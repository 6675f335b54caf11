import json
import math
from fractions import Fraction

import numpy as np
import pytest

from flexnum.errors import ContractionRequired, NumericOverflow
from flexnum.extnum import from_neutrix, monomial
from flexnum.recur import (
    Flag,
    OslashPow,
    RecurrenceSpec,
    affine_closed_form,
    affine_spec,
    classify_stability,
    oslash_power,
    reference_path,
    sample_paths,
)
from flexnum.scale import OSLASH, ZERO, pound
from flexnum.seq import ALT, Add, Const, Div, Mul, N, Pow, Var

one = monomial(1)


def drain_spec(a: int = 2, horizon: int = 400) -> RecurrenceSpec:
    """u_{n+1} = (-1 + n^-a) u_n + 2 - n^-a + (-1)^n (n^-a - (n+1)^-a - n^-2a).

    Starting at n0=2 with the bookkeeping value 1 + 1/2^a keeps the first
    coefficient away from zero (at n=1 it vanishes and every perturbation
    would collapse immediately).
    """
    n_a = Pow(N, Fraction(-a))
    np1_a = Pow(Add(N, Const(one)), Fraction(-a))
    n_2a = Pow(N, Fraction(-2 * a))
    f = (
        Mul(Add(Const(monomial(-1)), n_a), Var("u"))
        + Const(monomial(2))
        - n_a
        + Mul(ALT, n_a - np1_a - n_2a)
    )
    u0 = monomial(1 + Fraction(1, 2 ** a))
    return RecurrenceSpec(f, u0, horizon, n0=2)


class TestPaths:
    def test_constant_recurrence(self, conc_coarse):
        spec = RecurrenceSpec(Var("u"), one + from_neutrix(OSLASH), horizon=10)
        for p in sample_paths(spec, conc_coarse, count=8, seed=1):
            assert np.all(p.values == p.values[0])
            assert abs(p.values[0] - 1.0) <= conc_coarse.radius(OSLASH)

    def test_oslash_powers(self, conc_coarse):
        spec = RecurrenceSpec(Mul(Const(from_neutrix(OSLASH)), Var("u")), one, horizon=10)
        for p in sample_paths(spec, conc_coarse, count=64, seed=2):
            for n in range(1, 11):
                assert oslash_power(n).contains(p.values[n], conc_coarse)

    def test_reproducible(self, conc_coarse):
        spec = RecurrenceSpec(Mul(Const(from_neutrix(OSLASH)), Var("u")), one, horizon=6)
        a = sample_paths(spec, conc_coarse, count=16, seed=9)
        b = sample_paths(spec, conc_coarse, count=16, seed=9)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))

    def test_compensated_draws_one_parameter_per_leaf(self, conc_coarse):
        leaves = [
            monomial(Fraction(1, 2)) + from_neutrix(OSLASH),
            monomial(3),
            monomial(5),
            monomial(7) + from_neutrix(pound(1)),
            monomial(11),
        ]
        a, b, c, d, e = (Const(x) for x in leaves)
        u = Var("u")
        f = Add(Add(Div(Mul(a, u), Add(b, N)), Div(Pow(Div(u, c), 2), d)), e)
        spec = RecurrenceSpec(f, one, horizon=8)
        assert spec.parameters() == leaves
        plain = sample_paths(spec, conc_coarse, count=4, seed=5)
        compensated = sample_paths(spec, conc_coarse, count=4, seed=5, compensated=True)
        for p, q in zip(plain, compensated):
            assert len(q.draws) == len(leaves)
            for drawn, plain_drawn, leaf in zip(q.draws, p.draws, leaves):
                assert np.array_equal(drawn, plain_drawn)
                assert np.all(np.abs(drawn - conc_coarse.center(leaf)) <= conc_coarse.radius(leaf.neutrix))
            assert np.allclose(q.values, p.values, rtol=1e-12)

    def test_step_identity_recorded(self, conc_coarse):
        alpha = monomial(Fraction(1, 2)) + from_neutrix(OSLASH)
        spec = affine_spec(alpha, pound(1), one, horizon=20)
        for p in sample_paths(spec, conc_coarse, count=5, seed=3):
            for i in range(20):
                expect = p.draws[0][i] * p.values[i] + p.draws[1][i]
                assert math.isclose(p.values[i + 1], expect, rel_tol=1e-12, abs_tol=1e-300)
                assert abs(p.draws[0][i] - 0.5) <= conc_coarse.radius(OSLASH)
                assert abs(p.draws[1][i]) <= conc_coarse.radius(pound(1))

    def test_overflow(self, conc_coarse):
        spec = affine_spec(monomial(10 ** 150), ZERO, one, horizon=4)
        with pytest.raises(NumericOverflow):
            sample_paths(spec, conc_coarse, count=2, seed=1)

    def test_drain_path_tracks_closed_form(self, conc_coarse):
        spec = drain_spec(a=2, horizon=400)
        path = sample_paths(spec, conc_coarse, count=1, seed=4, compensated=True)[0]
        for i, n in enumerate(range(2, 2 + 400)):
            expect = 1 + (-1) ** n / n ** 2
            assert math.isclose(path.values[i], expect, rel_tol=1e-9), (n, path.values[i])


class TestAffine:
    def test_certificate(self, conc_coarse):
        alpha = monomial(Fraction(1, 2)) + from_neutrix(OSLASH)
        cert = affine_closed_form(alpha, pound(1), one, conc_coarse)
        assert cert.limit_neutrix == pound(1)
        assert 0.5 < cert.q < 0.54
        assert cert.c == conc_coarse.radius(pound(1))

    def test_contraction_required(self, conc_coarse):
        with pytest.raises(ContractionRequired):
            affine_closed_form(monomial(2), pound(1), one, conc_coarse)
        with pytest.raises(ContractionRequired):
            affine_closed_form(one + from_neutrix(OSLASH), pound(1), one, conc_coarse)

    def test_oslash_alpha_allowed(self, conc_coarse):
        cert = affine_closed_form(from_neutrix(OSLASH), ZERO, one, conc_coarse)
        assert cert.limit_neutrix == ZERO
        assert cert.c == 0.0

    def test_envelope_holds_per_path(self, conc_coarse):
        alpha = monomial(Fraction(1, 2)) + from_neutrix(OSLASH)
        spec = affine_spec(alpha, pound(1), one, horizon=60)
        for p in sample_paths(spec, conc_coarse, count=300, seed=5):
            q = np.abs(p.draws[0]).max()
            c = np.abs(p.draws[1]).max()
            geo = c / (1 - q)
            env = (abs(p.values[0]) + geo) * q ** np.arange(61) + geo
            assert np.all(np.abs(p.values) <= env * (1 + 1e-12))


class TestOslashPow:
    def test_membership(self, conc_coarse):
        eps = conc_coarse.eps0
        assert oslash_power(3).contains(eps ** 3, conc_coarse)
        assert not oslash_power(5).contains(1.0, conc_coarse)

    def test_multiplicative(self, conc_coarse):
        rng = conc_coarse.rng(77)
        r = conc_coarse.radius(OSLASH)
        for _ in range(200):
            m, k = rng.integers(1, 6), rng.integers(1, 6)
            logs_x = np.log(rng.uniform(1e-12, r, size=int(m))).sum()
            logs_y = np.log(rng.uniform(1e-12, r, size=int(k))).sum()
            assert oslash_power(int(m)).contains_log(logs_x, conc_coarse)
            assert oslash_power(int(k)).contains_log(logs_y, conc_coarse)
            assert oslash_power(int(m + k)).contains_log(logs_x + logs_y, conc_coarse)
        assert oslash_power(2) * oslash_power(3) == oslash_power(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            oslash_power(0)


class TestStability:
    def test_affine_proven(self, conc_coarse):
        alpha = monomial(Fraction(1, 2)) + from_neutrix(OSLASH)
        spec = affine_spec(alpha, pound(1), one, horizon=50)
        v = classify_stability(spec, monomial(0), pound(1), conc_coarse)
        assert (v.stable, v.asymptotically_stable, v.strongly_asymptotically_stable) == (
            Flag.PROVEN,
        ) * 3

    def test_expansion_falsified_with_path(self, conc_coarse):
        spec = affine_spec(monomial(2), OSLASH, one, horizon=50)
        v = classify_stability(spec, monomial(0), OSLASH, conc_coarse)
        assert v.stable is Flag.FALSIFIED
        path = v.evidence["escaping_path"]
        assert abs(path[-1]) > abs(path[0])

    def test_evidence_json_keeps_numbers(self, conc_coarse):
        contraction = affine_spec(monomial(Fraction(1, 2)), pound(1), one, horizon=50)
        affine = classify_stability(contraction, monomial(0), pound(1), conc_coarse)
        growth = affine_spec(monomial(2), OSLASH, one, horizon=50)
        expansion = classify_stability(growth, monomial(0), OSLASH, conc_coarse)
        drain = drain_spec(horizon=40)
        sampled = classify_stability(drain, drain.u0, OSLASH, conc_coarse, samples=20, seed=3)
        ev = json.loads(json.dumps(affine.to_dict()))["evidence"]
        assert (ev["alpha"], ev["f_noise"], ev["limit_neutrix"]) == ("1/2", "e*L", "e*L")
        assert ev["q"] == affine.evidence["q"] and isinstance(ev["c"], float)
        ev = json.loads(json.dumps(expansion.to_dict()))["evidence"]
        assert ev["q"] == 2.0
        assert ev["escaping_path"] == expansion.evidence["escaping_path"].tolist()
        ev = json.loads(json.dumps(sampled.to_dict()))["evidence"]
        assert ev["route"] == "sampled falsification"
        assert (ev["samples"], ev["horizon"]) == (20, 40)
        assert ev["tolerance_scales"] == [[s, ok] for s, ok in sampled.evidence["tolerance_scales"]]
        assert all(isinstance(ok, bool) for _, ok in ev["tolerance_scales"])

    def test_zero_map(self, conc_coarse):
        spec = affine_spec(monomial(0), ZERO, monomial(7), horizon=10)
        v = classify_stability(spec, monomial(0), ZERO, conc_coarse)
        assert v.strongly_asymptotically_stable is Flag.PROVEN

    def test_strong_follows_asymptotic_for_nonzero_noise(self, conc_coarse):
        # Structural consequence of the strong convergence theorem.
        for alpha_c in (Fraction(1, 2), Fraction(1, 3)):
            spec = affine_spec(monomial(alpha_c), pound(1), one, horizon=40)
            v = classify_stability(spec, monomial(0), pound(1), conc_coarse)
            if v.asymptotically_stable is Flag.PROVEN:
                assert v.strongly_asymptotically_stable is Flag.PROVEN

    def test_drain_flags(self, conc_coarse):
        spec = drain_spec(a=2, horizon=400)
        v = classify_stability(
            spec, spec.u0, OSLASH, conc_coarse, samples=100, seed=3
        )
        assert v.stable is not Flag.FALSIFIED
        assert v.asymptotically_stable is Flag.FALSIFIED
        assert v.strongly_asymptotically_stable is Flag.FALSIFIED

    def test_reseeding_invariance_for_affine(self, conc_coarse):
        alpha = monomial(Fraction(1, 2)) + from_neutrix(OSLASH)
        spec = affine_spec(alpha, pound(1), one, horizon=50)
        a = classify_stability(spec, monomial(0), pound(1), conc_coarse, seed=1)
        b = classify_stability(spec, monomial(0), pound(1), conc_coarse, seed=2)
        assert (a.stable, a.asymptotically_stable) == (b.stable, b.asymptotically_stable)

    def test_reference_path_deterministic(self, conc_coarse):
        spec = drain_spec(a=2, horizon=50)
        r1 = reference_path(spec, conc_coarse)
        r2 = reference_path(spec, conc_coarse)
        assert np.array_equal(r1, r2)
