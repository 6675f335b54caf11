import json
import math
import os
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from flexnum import recur
from flexnum.concretize import Concretization
from flexnum.dsl import parse_recur_rhs
from flexnum.errors import ContractionRequired, FullNotConcretizable, NumericOverflow
from flexnum.extnum import from_neutrix, monomial
from flexnum.recur import (
    Flag,
    OslashPow,
    RecurrenceSpec,
    affine_closed_form,
    affine_spec,
    classify_stability,
    reference_path,
    sample_paths,
)
from flexnum.scale import FULL, OSLASH, ZERO, pound
from flexnum.seq import ALT, Add, Const, Div, Mul, N, Pow, Var

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
sys.path.insert(0, os.path.abspath(PERFBENCH))

import inputs  # noqa: E402

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
                assert OslashPow(n).contains(p.values[n], conc_coarse)

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

    @staticmethod
    def two_where_sum(xs):
        """The Neumaier sum as first written: from zero, with the larger and
        the smaller operand of each addition picked by two np.where calls."""
        total = np.zeros_like(xs[0])
        err = np.zeros_like(xs[0])
        for x in xs:
            t = total + x
            big = np.where(np.abs(total) >= np.abs(x), total, x)
            small = np.where(np.abs(total) >= np.abs(x), x, total)
            err += (big - t) + small
            total = t
        return total + err

    @staticmethod
    def compensated_step(monkeypatch, conc, f):
        """The step that sample_paths(compensated=True) hands to its run."""
        steps = []
        run = recur._run
        monkeypatch.setattr(recur, "_run", lambda step, *rest: (steps.append(step), run(step, *rest)))
        sample_paths(RecurrenceSpec(f, one, horizon=0), conc, count=1, seed=1, compensated=True)
        return steps[0]

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_compensated_step_matches_two_where_sum(self, conc_coarse, monkeypatch, k):
        # u plus k - 1 parameters, each summand running over every value
        # below against every value of the others: inf, nan and -0.0 too.
        special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 1.0, -1.0, 3.0, 1e308, -1e308, 5e-324, 2.0 ** 53 + 2]
        grid = [g.ravel() for g in np.meshgrid(*[np.array(special)] * k, indexing="ij")]
        f = Var("u")
        for _ in range(k - 1):
            f = Add(f, Const(monomial(0)))
        step = self.compensated_step(monkeypatch, conc_coarse, f)
        with np.errstate(all="ignore"):  # as inside a run
            got, want = step(0, grid[0], grid[1:]), self.two_where_sum(grid)
        assert got.tobytes() == want.tobytes()

    def test_compensated_paths_match_two_where_sum(self, conc_coarse):
        # The benchmark's affine family, and a lone summand.
        rng = random.Random(5)
        specs = [RecurrenceSpec(Mul(Const(monomial(Fraction(1, 2)) + from_neutrix(OSLASH)), Var("u")), one, 30)]
        for _ in range(4):
            case = inputs.numeric_case(rng, 8)
            specs.append(affine_spec(case.affine_alpha, case.affine_noise, case.affine_u0, horizon=30))
        for spec in specs:
            paths = sample_paths(spec, conc_coarse, count=50, seed=3, compensated=True)
            params = []
            summands = [recur._compile(t, params) for t in recur._summands(spec.f)]
            for i in range(spec.horizon):
                draws = [d[i] for d in paths.draws]
                want = self.two_where_sum([fn(spec.n0 + i, paths.values[i], draws) for fn in summands])
                assert paths.values[i + 1].tobytes() == want.tobytes()

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
        with pytest.raises(NumericOverflow, match=r"^path left double range at step n=\d+$"):
            sample_paths(spec, conc_coarse, count=2, seed=1)
        with pytest.raises(NumericOverflow, match=r"^reference path left double range at step n=1$"):
            reference_path(affine_spec(monomial(10 ** 200), ZERO, one, horizon=4), conc_coarse)

    @pytest.mark.parametrize("what", ("path", "reference path", "perturbed path"))
    def test_every_run_refuses_overflow_alike(self, conc_coarse, what):
        # Each run stays below 1e300 at step n=0 and leaves double range at n=1.
        affine = affine_spec(monomial(10 ** 200), ZERO, one, horizon=4)
        # The reference 0 stays at 0; perturbations inside o square up.
        square = Mul(Const(monomial(10 ** 200)), Pow(Var("u"), Fraction(2)))
        zero = monomial(0)
        runs = {
            "path": lambda: sample_paths(affine, conc_coarse, count=3, seed=1),
            "reference path": lambda: reference_path(affine, conc_coarse),
            "perturbed path": lambda: classify_stability(
                RecurrenceSpec(square, zero, horizon=5), zero, OSLASH, conc_coarse, samples=10
            ),
        }
        with pytest.raises(NumericOverflow, match=rf"^{what} left double range at step n=1$"):
            runs[what]()

    def test_overflow_named_in_run_order(self, conc_coarse):
        # The stability run leaves double range at n=44.  The tolerance-scale
        # run from d0 = 0.25 leaves it near n=14, but runs after it.
        spec = RecurrenceSpec(parse_recur_rhs("u + u^2"), monomial(0), horizon=200)
        with pytest.raises(NumericOverflow, match=r"^perturbed path left double range at step n=44$"):
            classify_stability(spec, monomial(0), pound(1), conc_coarse, samples=200, seed=1)

    def test_path_set_views(self, conc_coarse):
        # One noisy parameter and one precise one, 1/10.
        alpha = monomial(Fraction(1, 2)) + from_neutrix(OSLASH)
        f = Add(Mul(Const(alpha), Var("u")), Const(monomial(Fraction(1, 10))))
        spec = RecurrenceSpec(f, one + from_neutrix(OSLASH), horizon=6, n0=2)
        paths = sample_paths(spec, conc_coarse, count=5, seed=8)
        assert len(paths) == 5 and paths.start == 2 and paths.values.shape == (7, 5)
        assert [d.shape for d in paths.draws] == [(6, 5), (6, 5)]
        assert [p.values.tobytes() for p in paths] == [paths.values[:, j].tobytes() for j in range(5)]
        for j in range(5):
            for p in (paths[j], paths[j - 5]):
                assert p.start == 2
                assert np.shares_memory(p.values, paths.values)
                assert p.values.tobytes() == paths.values[:, j].tobytes()
                assert np.shares_memory(p.draws[0], paths.draws[0])
                assert p.draws[0].tobytes() == paths.draws[0][:, j].tobytes()
                assert p.draws[1].tobytes() == np.full(6, 0.1).tobytes()
        for j in (5, -6):
            with pytest.raises(IndexError):
                paths[j]

    def test_nan_path_is_not_an_overflow(self, conc_coarse):
        # The square root of a negative value is nan, not out of range.
        spec = RecurrenceSpec(Pow(Add(Var("u"), Const(monomial(-2))), Fraction(1, 2)), one, horizon=5)
        with pytest.raises(NumericOverflow, match=r"^path is not a number at step n=0$"):
            sample_paths(spec, conc_coarse, count=4, seed=1)

    def test_nan_reference_path_is_not_an_overflow(self, conc_coarse):
        spec = RecurrenceSpec(Pow(Add(Var("u"), Const(monomial(-2))), Fraction(1, 2)), one, horizon=5)
        with pytest.raises(NumericOverflow, match=r"^reference path is not a number at step n=0$"):
            reference_path(spec, conc_coarse)

    def test_nan_perturbed_path_is_not_an_overflow(self, conc_coarse):
        # The reference path stays at 0; a perturbation below it has no square root.
        spec = RecurrenceSpec(Pow(Var("u"), Fraction(1, 2)), monomial(0), horizon=5)
        with pytest.raises(NumericOverflow, match=r"^perturbed path is not a number at step n=0$"):
            classify_stability(spec, monomial(0), OSLASH, conc_coarse, samples=10)

    def test_drain_path_tracks_closed_form(self, conc_coarse):
        spec = drain_spec(a=2, horizon=400)
        path = sample_paths(spec, conc_coarse, count=1, seed=4, compensated=True)[0]
        for i, n in enumerate(range(2, 2 + 400)):
            expect = 1 + (-1) ** n / n ** 2
            assert math.isclose(path.values[i], expect, rel_tol=1e-9), (n, path.values[i])


class TestAffine:
    def test_certificate(self, conc_coarse):
        alpha = monomial(Fraction(1, 2)) + from_neutrix(OSLASH)
        cert = affine_closed_form(alpha, pound(1), conc_coarse)
        assert cert.limit_neutrix == pound(1)
        assert 0.5 < cert.q < 0.54
        assert cert.c == conc_coarse.radius(pound(1))

    def test_contraction_required(self, conc_coarse):
        with pytest.raises(ContractionRequired):
            affine_closed_form(monomial(2), pound(1), conc_coarse)
        with pytest.raises(ContractionRequired):
            affine_closed_form(one + from_neutrix(OSLASH), pound(1), conc_coarse)

    def test_oslash_alpha_allowed(self, conc_coarse):
        cert = affine_closed_form(from_neutrix(OSLASH), ZERO, conc_coarse)
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
        assert OslashPow(3).contains(eps ** 3, conc_coarse)
        assert not OslashPow(5).contains(1.0, conc_coarse)

    def test_multiplicative(self, conc_coarse):
        rng = conc_coarse.rng(77)
        r = conc_coarse.radius(OSLASH)
        for _ in range(200):
            m, k = rng.integers(1, 6), rng.integers(1, 6)
            logs_x = np.log(rng.uniform(1e-12, r, size=int(m))).sum()
            logs_y = np.log(rng.uniform(1e-12, r, size=int(k))).sum()
            assert OslashPow(int(m)).contains_log(logs_x, conc_coarse)
            assert OslashPow(int(k)).contains_log(logs_y, conc_coarse)
            assert OslashPow(int(m + k)).contains_log(logs_x + logs_y, conc_coarse)
        assert OslashPow(2) * OslashPow(3) == OslashPow(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            OslashPow(0)


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


def per_draw(conc, a, rng, size):
    """One parameter's draw for one step, its interval derived afresh: the
    per-step sampler that the block drawer stands for."""
    r = conc.radius(a.neutrix)
    base = np.full(size, conc.center(a), dtype=float)
    return base + rng.uniform(-r, r, size=size) if r else base


class TestDrawOrder:
    """Block draws and the batched run give what step-by-step draws give.

    The reference replaces the block drawer with a loop that draws every
    parameter at every step through :func:`per_draw` and logs which number
    it drew for, so a run through it must match the real run bit for bit,
    and its log pins the order of the draws: u0 first, then every parameter
    occurrence in leaf order at every step, run after run.
    """

    @pytest.fixture
    def reference(self, monkeypatch):
        log = []

        def loop_drawer(conc, params):
            # Centers and noisy parameters derived afresh; every parameter,
            # noisy or not, is drawn at every step, as one sampler per draw did.
            noisy = [j for j, a in enumerate(params) if conc.radius(a.neutrix)]

            def draw(rng, steps, size):
                block = np.empty((steps, len(noisy), size))
                for i in range(steps):
                    log.extend((a, size) for a in params)
                    rows = [per_draw(conc, a, rng, size) for a in params]
                    for k, j in enumerate(noisy):
                        block[i, k] = rows[j]
                return block

            return [conc.center(a) for a in params], noisy, draw

        def run(fn, *args, **kwargs):
            log.clear()
            with monkeypatch.context() as m:
                m.setattr(Concretization, "drawer", loop_drawer)
                out = fn(*args, **kwargs)
            return out, list(log)

        return run

    @staticmethod
    def run_by_run(spec, reference, noise, conc, samples, seed):
        """The sampled classification as nine runs in turn, each drawing every
        parameter at every step: the loop that the one batch replaces.  Returns
        the verdict and the nine runs' paths side by side."""
        ref = reference_path(RecurrenceSpec(spec.f, reference, spec.horizon, spec.n0), conc)
        r_noise = conc.radius(noise)
        rng = np.random.default_rng([conc.seed, seed, 7])
        params = spec.parameters()
        step = recur._compile(spec.f, [])
        paths = []

        def run(d0):
            values = [ref[0] + d0]
            for i in range(spec.horizon):
                n = spec.n0 + i
                with np.errstate(all="ignore"):
                    nxt = step(n, values[-1], [per_draw(conc, a, rng, d0.size) for a in params])
                if not np.all(np.abs(nxt) <= 1e300):
                    why = "is not a number" if np.any(np.isnan(nxt)) else "left double range"
                    raise NumericOverflow(f"perturbed path {why} at step n={n}")
                values.append(nxt)
            paths.append(np.array(values))
            return paths[-1] - ref[:, None]

        within = conc.sample_neutrix(noise, rng, size=samples)
        bound = 0.0 if noise.is_zero else max(r_noise, 1e-300) * recur._ESCAPE_FACTOR
        escape = np.abs(run(within)).max(axis=0) > bound
        evidence = {"route": "sampled falsification", "samples": samples, "horizon": spec.horizon}
        stable = Flag.FALSIFIED if escape.any() else Flag.UNKNOWN
        if escape.any():
            evidence["stability_counterexample_d0"] = float(within[int(np.argmax(escape))])
        tail = max(1, spec.horizon // 4)
        per_scale = []
        for s in np.geomspace(max(r_noise * 4.0, conc.eps0 ** 12), 0.5, num=8):
            d = run(np.full(16, s * 0.5))
            per_scale.append((float(s), bool((np.abs(d[-tail:]) <= max(r_noise, 1e-300)).all(axis=0).any())))
        evidence["tolerance_scales"] = per_scale
        asym = Flag.UNKNOWN if any(ok for _, ok in per_scale) else Flag.FALSIFIED
        return recur.StabilityVerdict(stable, asym, asym, evidence), np.hstack(paths)

    @staticmethod
    def benchmark_spec(horizon):
        case = inputs.numeric_case(random.Random(7), 8)
        return RecurrenceSpec(case.stability.f, case.stability.u0, horizon, n0=3)

    @pytest.mark.parametrize("compensated", (False, True))
    def test_sample_paths(self, conc_coarse, reference, compensated):
        u0 = monomial(Fraction(3, 4)) + from_neutrix(pound(1))
        spec = self.benchmark_spec(12)
        spec = RecurrenceSpec(spec.f, u0, spec.horizon, spec.n0)
        got = sample_paths(spec, conc_coarse, count=9, seed=31, compensated=compensated)
        want, log = reference(sample_paths, spec, conc_coarse, count=9, seed=31, compensated=compensated)
        assert got.values.tobytes() == want.values.tobytes()
        for p, q in zip(got, want, strict=True):
            assert p.start == q.start
            assert p.values.tobytes() == q.values.tobytes()
            assert [d.tobytes() for d in p.draws] == [d.tobytes() for d in q.draws]
        params = spec.parameters()
        assert log == [(u0, 9)] + [(a, 9) for _ in range(spec.horizon) for a in params]

    CASES = ("benchmark", "benchmark-zero-noise", "drain")

    def case_args(self, case, conc):
        if case == "drain":
            spec = drain_spec(a=2, horizon=30)
            return spec, (spec, spec.u0, OSLASH, conc)
        spec = self.benchmark_spec(30)
        noise = ZERO if case == "benchmark-zero-noise" else inputs.STABILITY_NOISE
        return spec, (spec, monomial(0), noise, conc)

    @pytest.mark.parametrize("case", CASES)
    def test_classify_stability(self, conc_coarse, reference, case):
        spec, args = self.case_args(case, conc_coarse)
        got = classify_stability(*args, samples=40, seed=5)
        want, log = reference(classify_stability, *args, samples=40, seed=5)
        assert got.evidence["route"] == "sampled falsification"
        assert repr(got.to_dict()) == repr(want.to_dict())
        params = spec.parameters()
        # The 40 starting offsets inside the noise (none for zero noise), then
        # one 40-path stability run and eight 16-path tolerance-scale runs.
        noise = args[2]
        within = [] if noise.is_zero else [(from_neutrix(noise), 40)]
        sizes = [40] + [16] * 8
        assert log == within + [(a, size) for size in sizes for _ in range(spec.horizon) for a in params]

    @pytest.mark.parametrize("case", CASES)
    def test_batch_matches_run_by_run(self, conc_coarse, case, monkeypatch):
        spec, args = self.case_args(case, conc_coarse)
        batches = []

        def spy(step, values, *rest):
            run(step, values, *rest)
            batches.append(values.copy())

        want, paths = self.run_by_run(*args, samples=40, seed=5)
        ref = reference_path(RecurrenceSpec(spec.f, args[1], spec.horizon, spec.n0), conc_coarse)
        run = recur._run
        monkeypatch.setattr(recur, "_run", spy)
        got = classify_stability(*args, samples=40, seed=5)
        assert repr(got.to_dict()) == repr(want.to_dict())
        # One run: the reference path in column 0, then every value of every
        # perturbed run, bit for bit.
        assert len(batches) == 1
        assert batches[0][:, 0].tobytes() == ref.tobytes()
        assert batches[0][:, 1:].tobytes() == paths.tobytes()

    # The reference path and the horizon, where not 0 and 200.  From 1 the
    # stability runs leave double range early, and the reference meets the
    # float overflow of (3/2)^n at n=1751.  From 2 the reference leaves double
    # range at n=9, and the radius of e^(-400)*L overflows a double.
    STARTS = {"u^2 + (3/2)^n*e*L": (1, 1800), "u^2 + e^(-400)*L": (2, 200)}

    # With zero noise the stability run stays at 0 and only the last scale
    # escapes.  In the sixth case the scales' runs are nan from n=0, and the
    # stability run, first in order, leaves double range at n=1 without a nan.
    # In the last two the reference path's refusal wins.
    @pytest.mark.parametrize("f, noise", [
        ("u + u^2", pound(1)), ("u + u^2", ZERO), ("u + u^2 + e*L", pound(1)),
        ("u*u*u*1000 + e*L", pound(1)), ("u^(1/2) + e*L", pound(1)),
        ("u^8 + 0*(u^2*((u - 1/10)^2 - 1/25))^(1/2)", pound(-2)),
        ("u^2 + (3/2)^n*e*L", pound(1)), ("u^2 + e^(-400)*L", pound(1)),
    ], ids=str)
    def test_batch_refuses_as_run_by_run(self, conc_coarse, f, noise):
        start, horizon = self.STARTS.get(f, (0, 200))
        spec = RecurrenceSpec(parse_recur_rhs(f), monomial(start), horizon=horizon)
        args = (spec, monomial(start), noise, conc_coarse)
        with pytest.raises(NumericOverflow) as want:
            self.run_by_run(*args, samples=200, seed=1)
        assert str(want.value).startswith("reference path ") == (f in self.STARTS)
        with pytest.raises(NumericOverflow, match=f"^{re.escape(str(want.value))}$"):
            classify_stability(*args, samples=200, seed=1)

    def test_full_parameter_refused_at_every_horizon(self, conc_coarse):
        f = Add(Mul(Const(from_neutrix(FULL)), Pow(Var("u"), 2)), Const(from_neutrix(pound(1))))
        for horizon in (0, 1):
            spec = RecurrenceSpec(f, one, horizon)
            with pytest.raises(FullNotConcretizable):
                sample_paths(spec, conc_coarse, count=2, seed=1)
            with pytest.raises(FullNotConcretizable):
                classify_stability(spec, monomial(0), pound(1), conc_coarse, samples=4)
