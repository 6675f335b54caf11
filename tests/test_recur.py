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
from flexnum.extnum import from_neutrix, monomial, subset
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
from flexnum.seq import ALT, Add, Const, Div, Index, Mul, N, Pow, Var, eval_at, fold

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
sys.path.insert(0, os.path.abspath(PERFBENCH))

import inputs  # noqa: E402
import support  # noqa: E402

one = monomial(1)


def parameters(f):
    """The Const leaves of f, in the order its compiled step reads their draws."""
    params = []
    recur._compile(f, params)
    return params


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

    def test_no_paths_refused(self, conc_coarse):
        spec = RecurrenceSpec(Var("u"), one, horizon=3)
        with pytest.raises(ValueError, match=r"^need at least one path$"):
            sample_paths(spec, conc_coarse, count=0, seed=1)

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
        assert parameters(spec.f) == leaves
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

    @staticmethod
    def one_where_sum(xs):
        """The compensated step with one np.where per summand after the first,
        which took the rounding error as (larger - sum) + smaller."""
        total, err = xs[0] + 0.0, xs[0] - xs[0]
        for x in xs[1:]:
            t = total + x
            err += np.where(np.abs(total) >= np.abs(x), (total - t) + x, (x - t) + total)
            total = t
        return total + err

    @staticmethod
    def random_doubles(rng, size):
        """Doubles of every kind: any bit pattern (subnormals, inf and nan
        among them), signed zeros and specials, values near 1e300 and near
        the largest double, and ordinary magnitudes."""
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, np.inf, -np.inf, np.nan, 1.0, -1.0,
                            1e300, -1e300, np.finfo(float).max, -np.finfo(float).max])
        sign = rng.choice((-1.0, 1.0), size)
        kinds = [
            rng.integers(0, 2 ** 64, size, dtype=np.uint64).view(np.float64),
            rng.choice(special, size),
            sign * 1e300 * rng.uniform(0.5, 2.0, size),
            sign * np.finfo(float).max * rng.uniform(0.25, 1.0, size),
            sign * 2.0 ** -1022 * rng.uniform(0.0, 4.0, size),
            sign * rng.uniform(1.0, 2.0, size) * 10.0 ** rng.integers(-30, 30, size),
        ]
        return np.choose(rng.integers(0, len(kinds), size), kinds)

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_two_sum_step_matches_one_where_sum(self, conc_coarse, monkeypatch, k):
        rng = np.random.default_rng(100 + k)
        xs = [self.random_doubles(rng, 200_000) for _ in range(k)]
        with np.errstate(all="ignore"):
            # Near cancellation: the next summand undoes most of the last one.
            xs[1][::3] = -xs[0][::3] * (1.0 + rng.uniform(-1e-12, 1e-12, xs[0][::3].size))
        f = Var("u")
        for _ in range(k - 1):
            f = Add(f, Const(monomial(0)))
        step = self.compensated_step(monkeypatch, conc_coarse, f)
        with np.errstate(all="ignore"):  # as inside a run
            got, want = step(0, xs[0], xs[1:]), self.one_where_sum(xs)
        # TwoSum's t - total overflows, and its error is nan, only when a
        # summand lies within two ulps of the largest double.
        top = np.nextafter(np.nextafter(np.finfo(float).max, 0), 0)
        edge = np.any([np.abs(x) >= top for x in xs], axis=0)
        finite = np.isfinite(want) & ~edge
        assert finite.sum() > 100_000 and (~np.isfinite(want) & ~edge).sum() > 2_000
        assert got[finite].tobytes() == want[finite].tobytes()
        # Elsewhere the same class, so a run refuses the step in the same words.
        rest = ~finite & ~edge
        assert np.array_equal(np.isnan(got[rest]), np.isnan(want[rest]))
        assert np.array_equal(np.isinf(got[rest]), np.isinf(want[rest]))
        differs = got.view(np.uint64) != want.view(np.uint64)
        assert np.isnan(got[edge & differs]).all()

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

    def test_overflow_before_an_arithmetic_error_is_refused_first(self, conc_coarse):
        # The value leaves double range at n=1745; (3/2)^n raises at n=1751,
        # before the loop tests the rows in between.
        spec = RecurrenceSpec(parse_recur_rhs("10^200*u^2 + (3/2)^n"), one, horizon=20, n0=1745)
        with pytest.raises(NumericOverflow, match=r"^reference path left double range at step n=1745$"):
            reference_path(spec, conc_coarse)

    def test_overflow_that_comes_back_is_refused_at_its_step(self, conc_coarse):
        # Out of double range at every odd row, back at 0 at every even one,
        # as at row 32, where the loop tests; (3/2)^n raises at the next step.
        spec = RecurrenceSpec(parse_recur_rhs("u + 10^301*(-1)^n + 0*(3/2)^n"), monomial(0), horizon=64, n0=1719)
        with pytest.raises(NumericOverflow, match=r"^reference path left double range at step n=1719$"):
            reference_path(spec, conc_coarse)
        with pytest.raises(NumericOverflow, match=r"^path left double range at step n=1719$"):
            sample_paths(spec, conc_coarse, count=3, seed=1)

    def test_overflow_stops_the_loop_early(self, conc_coarse, monkeypatch):
        # Out of double range at n=1 of 10^5 steps: the loop stops at its
        # next overflow test, within 32 steps.
        steps = []
        run = recur._run

        def spy(step, *rest):
            return run(lambda n, u, draws: (steps.append(n), step(n, u, draws))[1], *rest)

        monkeypatch.setattr(recur, "_run", spy)
        with pytest.raises(NumericOverflow, match=r"^reference path left double range at step n=1$"):
            reference_path(affine_spec(monomial(10 ** 200), ZERO, one, horizon=10 ** 5), conc_coarse)
        assert 2 <= len(steps) <= 32 and steps == list(range(len(steps)))

    @pytest.mark.parametrize("what", ("path", "reference path"))
    def test_every_run_refuses_overflow_alike(self, conc_coarse, what):
        # Each run stays below 1e300 at step n=0 and leaves double range at n=1.
        affine = affine_spec(monomial(10 ** 200), ZERO, one, horizon=4)
        runs = {
            "path": lambda: sample_paths(affine, conc_coarse, count=3, seed=1),
            "reference path": lambda: reference_path(affine, conc_coarse),
        }
        with pytest.raises(NumericOverflow, match=rf"^{what} left double range at step n=1$"):
            runs[what]()

    # The reference 0 stays at 0.  The stability run of u + u^2 leaves double
    # range at n=44; 10^200*u^2 squares the perturbations inside o past it at n=1.
    @pytest.mark.parametrize("f, noise", [("u + u^2", pound(1)), ("10^200*u^2", OSLASH)], ids=["u + u^2", "square"])
    def test_perturbed_overflow_escapes(self, conc_coarse, f, noise):
        spec = RecurrenceSpec(parse_recur_rhs(f), monomial(0), horizon=200)
        v = classify_stability(spec, monomial(0), noise, conc_coarse, samples=200, seed=1)
        assert (v.stable, v.asymptotically_stable, v.strongly_asymptotically_stable) == (Flag.FALSIFIED,) * 3
        assert "stability_counterexample_d0" in v.evidence

    def test_overflow_that_turns_nan_still_escapes(self, conc_coarse, monkeypatch):
        # 10^200*u^2 leaves double range at n=1, and at inf 0*u is nan.
        batches = []
        run = recur._run
        monkeypatch.setattr(recur, "_run", lambda step, values, *rest: run(step, values, *rest) or batches.append(values))
        spec = RecurrenceSpec(parse_recur_rhs("10^200*u^2 + 0*u"), monomial(0), horizon=5)
        v = classify_stability(spec, monomial(0), OSLASH, conc_coarse, samples=10)
        stability_run = batches[0][:, 1:11]
        assert np.isinf(stability_run[2]).all() and np.isnan(stability_run[3:]).all()
        assert v.stable is Flag.FALSIFIED

    def test_all_nan_perturbations_show_nothing(self, conc_coarse):
        # (-u^2)^(1/2) keeps the reference 0 at 0 and is nan at every perturbation.
        spec = RecurrenceSpec(parse_recur_rhs("(-u^2)^(1/2) + e*L"), monomial(0), horizon=200)
        v = classify_stability(spec, monomial(0), pound(1), conc_coarse, samples=100)
        assert (v.stable, v.asymptotically_stable, v.strongly_asymptotically_stable) == (Flag.UNKNOWN,) * 3

    @pytest.mark.parametrize("compensated", (False, True))
    def test_complex_value_is_not_a_number(self, conc_coarse, compensated):
        # ((-1)^n)^(1/2) is (-1.0) ** 0.5 at n=1, a Python complex.
        spec = RecurrenceSpec(parse_recur_rhs("u/2 + ((-1)^n)^(1/2)"), monomial(0), horizon=40)
        with pytest.raises(NumericOverflow, match=r"^path is not a number at step n=1$"):
            sample_paths(spec, conc_coarse, count=3, seed=1, compensated=compensated)

    def test_type_error_of_a_step_propagates(self):
        with pytest.raises(TypeError):
            recur._run(lambda n, u, draws: u + None, np.zeros((5, 2)), 0, [], [], lambda i: (), "path")

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
        # The reference path stays at 0.  A perturbation below it has no square
        # root and shows nothing; one above it escapes toward 1.
        spec = RecurrenceSpec(Pow(Var("u"), Fraction(1, 2)), monomial(0), horizon=5)
        v = classify_stability(spec, monomial(0), OSLASH, conc_coarse, samples=10, seed=2)
        within = conc_coarse.sample_neutrix(OSLASH, np.random.default_rng([conc_coarse.seed, 2, 7]), size=10)
        assert within[0] < 0 and v.evidence["stability_counterexample_d0"] == within[within > 0][0]

    def test_drain_path_tracks_closed_form(self, conc_coarse):
        spec = drain_spec(a=2, horizon=400)
        path = sample_paths(spec, conc_coarse, count=1, seed=4, compensated=True)[0]
        for i, n in enumerate(range(2, 2 + 400)):
            expect = 1 + (-1) ** n / n ** 2
            assert math.isclose(path.values[i], expect, rel_tol=1e-9), (n, path.values[i])


class TestAffine:
    def test_certificate(self, conc_coarse):
        # An appreciable gap 1 - |alpha| keeps the step noise.
        alpha = monomial(Fraction(1, 2)) + from_neutrix(OSLASH)
        assert affine_closed_form(alpha, pound(1)) == pound(1)

    def test_contraction_required(self):
        with pytest.raises(ContractionRequired):
            affine_closed_form(monomial(2), pound(1))
        with pytest.raises(ContractionRequired):
            affine_closed_form(one + from_neutrix(OSLASH), pound(1))

    def test_contraction_tested_before_the_full_line(self):
        with pytest.raises(ContractionRequired):
            affine_closed_form(monomial(2), FULL)
        # Full-line step noise settles in R.
        assert affine_closed_form(monomial(Fraction(1, 2)), FULL) == FULL
        assert affine_closed_form(one - monomial(1, 1), FULL) == FULL

    @pytest.mark.parametrize("gap, noise, want", [
        (1, pound(1), pound(0)),
        (2, pound(1), pound(-1)),
        (1, pound(3), pound(2)),
        (10, pound(1), pound(-9)),  # the model's factor would round to 1
    ], ids=["e", "e^2", "e-over-e^3", "e^10"])
    def test_infinitesimal_gap_widens_the_limit_neutrix(self, gap, noise, want):
        # N/(1 - |alpha|) with 1 - |alpha| = e^gap.
        assert affine_closed_form(one - monomial(1, gap), noise) == want

    def test_oslash_alpha_allowed(self):
        assert affine_closed_form(from_neutrix(OSLASH), ZERO) == ZERO

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

    # An expansion is falsified by exact comparison alone, however close
    # |alpha| is to 1 (at 1 + e^10 the model's factor is 1.0) and however
    # wide the noise (w^400*L has no radius at eps0=1e-3).
    @pytest.mark.parametrize("alpha, fnoise, noise", [
        (monomial(2), OSLASH, OSLASH), (monomial(2), pound(1), pound(1)), (one + monomial(1, 1), pound(1), pound(1)),
        (one + monomial(1, 2), pound(1), pound(1)), (one + monomial(1, 10), pound(1), pound(1)),
        (monomial(2), ZERO, pound(-400)),
    ], ids=["2-modulo-o", "2", "1+e", "1+e^2", "1+e^10", "2-modulo-w^400*L"])
    def test_expansion_is_falsified(self, conc_coarse, alpha, fnoise, noise):
        v = classify_stability(affine_spec(alpha, fnoise, one, horizon=5), monomial(0), noise, conc_coarse)
        assert (v.stable, v.asymptotically_stable, v.strongly_asymptotically_stable) == (Flag.FALSIFIED,) * 3
        assert v.evidence == {"route": "affine analysis (expansion)", "alpha": alpha, "f_noise": fnoise}

    def test_full_line_noise_is_falsified(self, conc_coarse):
        spec = RecurrenceSpec(parse_recur_rhs("u/2 + R"), monomial(0), horizon=5)
        v = classify_stability(spec, monomial(0), pound(1), conc_coarse, samples=10)
        assert (v.stable, v.asymptotically_stable, v.strongly_asymptotically_stable) == (Flag.FALSIFIED,) * 3
        assert (v.evidence["limit_neutrix"], v.evidence["escape"]) == (FULL, "step noise R already exceeds e*L")

    @pytest.mark.parametrize("f", ["u/2 + e*L", "2*u", "u/2 + u^2 + e*L"], ids=["affine", "expansion", "sampled"])
    def test_modulo_R_is_refused_before_routing(self, conc_coarse, f):
        spec = RecurrenceSpec(parse_recur_rhs(f), monomial(0), horizon=5)
        with pytest.raises(ValueError, match=r"^stability modulo N is only considered for N != R$"):
            classify_stability(spec, monomial(0), FULL, conc_coarse, samples=10)

    def test_evidence_json_keeps_numbers(self, conc_coarse):
        contraction = affine_spec(monomial(Fraction(1, 2)), pound(1), one, horizon=50)
        affine = classify_stability(contraction, monomial(0), pound(1), conc_coarse)
        growth = affine_spec(monomial(2), OSLASH, one, horizon=50)
        expansion = classify_stability(growth, monomial(0), OSLASH, conc_coarse)
        drain = drain_spec(horizon=40)
        sampled = classify_stability(drain, drain.u0, OSLASH, conc_coarse, samples=20, seed=3)
        # The affine route's evidence is exact: it holds no float.
        ev = json.loads(json.dumps(affine.to_dict()))["evidence"]
        assert ev == {"route": "affine analysis", "alpha": "1/2", "f_noise": "e*L", "limit_neutrix": "e*L"}
        ev = json.loads(json.dumps(expansion.to_dict()))["evidence"]
        assert ev == {"route": "affine analysis (expansion)", "alpha": "2", "f_noise": "o"}
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


def spelled_match_affine(f):
    """The spelling matcher that the fold reading replaced, kept as its
    reference: alpha*u + N with one u-term ``u``, ``c*u`` or ``u*c`` and
    constants of representative 0, in any order."""
    alpha = None
    noise = ZERO
    for p in recur._summands(f):
        if p == Var("u"):
            if alpha is not None:
                return None
            alpha = monomial(1)
        elif isinstance(p, Mul):
            a, b = p.left, p.right
            if isinstance(a, Const) and b == Var("u"):
                cand = a.value
            elif isinstance(b, Const) and a == Var("u"):
                cand = b.value
            else:
                return None
            if alpha is not None:
                return None
            alpha = cand
        elif isinstance(p, Const):
            if not p.value.rep.is_zero:
                return None
            noise = noise + p.value.neutrix
        else:
            return None
    if alpha is None:
        return None
    return alpha, noise


def random_sum(rng, parts):
    """The parts added up in their order, under a random bracketing."""
    parts = list(parts)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [Add(parts[i], parts[i + 1])]
    return parts[0]


def substitute_u(f, k):
    """f with u := k, through seq.fold."""
    return fold(f, {
        Const: lambda c: c,
        Var: lambda v: Const(monomial(k)) if v.name == "u" else v,
        Index: lambda i: i,
        Add: lambda _, a, b: Add(a, b),
        Mul: lambda _, a, b: Mul(a, b),
        Div: lambda _, a, b: Div(a, b),
        Pow: lambda p, a: Pow(a, p.exponent),
    })


def random_polynomial(rng, consts, depth=4):
    """A random term over u, n and ``consts``, with every operator and
    exponents that the affine reading must accept or refuse."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Var("u"), Var("u"), N, Const(rng.choice(consts))])
    a = random_polynomial(rng, consts, depth - 1)
    op = rng.randrange(4)
    if op == 3:
        return Pow(a, rng.choice([Fraction(-1), Fraction(0), Fraction(1), Fraction(1), Fraction(2), Fraction(1, 2)]))
    return (Add, Mul, Div)[op](a, random_polynomial(rng, consts, depth - 1))


class TestAffineReading:
    """The exact route reads f as a0 + a1*u by meaning: every spelling of
    one affine map takes the same route."""

    def test_same_answer_as_the_spelling_matcher(self, conc_coarse):
        rng = random.Random(24)
        coefficients = [monomial(Fraction(k, 4)) for k in range(-6, 7)] + [monomial(1, 1)]
        for _ in range(300):
            c = rng.choice(coefficients) + from_neutrix(rng.choice([ZERO, OSLASH, pound(1)]))
            parts = [rng.choice([Var("u"), Mul(Const(c), Var("u")), Mul(Var("u"), Const(c))])]
            parts += [Const(from_neutrix(support.rand_neutrix(rng))) for _ in range(rng.randint(0, 3))]
            rng.shuffle(parts)
            f = random_sum(rng, parts)
            want = spelled_match_affine(f)
            assert want is not None and recur._match_affine(f) == want, f
            spec = RecurrenceSpec(f, one, horizon=50)
            noise = rng.choice([ZERO, OSLASH, pound(1), pound(2)])
            got = classify_stability(spec, monomial(0), noise, conc_coarse)
            assert repr(got.to_dict()) == repr(recur._classify_affine(*want, noise).to_dict())

    @pytest.mark.parametrize("consts, exact", [
        ([monomial(Fraction(k, 3)) for k in range(-4, 5)] + [monomial(2, 1)], True),
        ([monomial(Fraction(1, 2)) + from_neutrix(OSLASH), from_neutrix(pound(1)), monomial(-1)], False),
    ], ids=["precise", "noisy"])
    def test_reading_evaluates_as_the_term(self, consts, exact):
        # Precise constants give the value exactly; noisy ones may be read
        # apart where one draw feeds both a0 and a1, which only widens.
        rng = random.Random(7)
        accepted = 0
        for _ in range(600):
            f = random_polynomial(rng, consts)
            form = fold(f, recur._AFFINE)
            if form is None or form[2]:
                continue
            accepted += 1
            a0, a1, _ = form
            for k in range(4):
                value, read = eval_at(substitute_u(f, k), 1), a1 * monomial(k) + a0
                assert value == read if exact else subset(value, read), (f, k)
        assert accepted >= 100

    @pytest.mark.parametrize("f, alpha, flags, route", [
        ("u/2 + e*L", "1/2", (Flag.PROVEN,) * 3, "affine analysis"),
        ("1/4*u + 1/4*u + e*L", "1/2", (Flag.PROVEN,) * 3, "affine analysis"),
        ("(9/10 + o)*u + 0*u^2 + e*L", "9/10 + o", (Flag.PROVEN,) * 3, "affine analysis"),
        ("u*(1/2 + o) + e*L", "1/2 + o", (Flag.PROVEN,) * 3, "affine analysis"),
        ("u/(2 + o) + e*L", "1/2 + o", (Flag.PROVEN,) * 3, "affine analysis"),
        ("0*(u + 1)^1000 + u/2 + e*L", "1/2", (Flag.PROVEN,) * 3, "affine analysis"),
        ("e*L", "0", (Flag.PROVEN,) * 3, "affine analysis"),
        ("0", "0", (Flag.PROVEN,) * 3, "affine analysis"),
        ("u*o - u*o + e*L", "o", (Flag.PROVEN,) * 3, "affine analysis"),
        ("u + u + e*L", "2", (Flag.FALSIFIED,) * 3, "affine analysis (expansion)"),
        ("2*u + 0*u^2 + e*L", "2", (Flag.FALSIFIED,) * 3, "affine analysis (expansion)"),
    ])
    def test_affine_by_meaning(self, conc_coarse, f, alpha, flags, route):
        spec = RecurrenceSpec(parse_recur_rhs(f), monomial(0), horizon=200)
        v = classify_stability(spec, monomial(0), pound(1), conc_coarse, seed=0)
        assert (v.stable, v.asymptotically_stable, v.strongly_asymptotically_stable) == flags
        assert (v.evidence["route"], str(v.evidence["alpha"])) == (route, alpha)

    @pytest.mark.parametrize("f", [
        "(1/2 + 1/n)*u + e*L",  # n in a coefficient
        "u/2 + (3/2)^n*e*L",
        "u + u^2 + e*L",  # nonlinear
        "u^2 - u^2 + u/2 + e*L",  # a nonlinear part never cancels
        "0*u^(-1) + u/2 + e*L",  # not a polynomial, even times 0
        "u^(1/2) + e*L",
        "u/(u + 1) + e*L",
        "u/(1 + e) + e*L",  # a quotient with no finite series form
        "u/2 + 5 + e*L",  # a0 with a nonzero representative
    ])
    def test_not_affine(self, f):
        assert recur._match_affine(parse_recur_rhs(f)) is None

    def test_n_dependent_stays_sampled(self, conc_coarse):
        spec = RecurrenceSpec(parse_recur_rhs("(1/2 + 1/n)*u + e*L"), monomial(0), horizon=50, n0=1)
        v = classify_stability(spec, monomial(0), pound(1), conc_coarse, samples=20)
        assert v.evidence["route"] == "sampled falsification"
        drain = drain_spec(horizon=20)
        assert recur._match_affine(drain.f) is None


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
        the verdict and the nine runs' paths side by side.  The noise and
        every parameter are modelled before any run.  Only the reference path
        is refused; a perturbed run keeps its inf and nan, and a difference
        escapes or fails to enter only where it is past its bound, which no
        nan is."""
        r_noise = conc.radius(noise)
        params = parameters(spec.f)
        conc.drawer(params)
        ref = reference_path(RecurrenceSpec(spec.f, reference, spec.horizon, spec.n0), conc)
        rng = np.random.default_rng([conc.seed, seed, 7])
        step = recur._compile(spec.f, [])
        paths = []

        def run(d0):
            values = [ref[0] + d0]
            for i in range(spec.horizon):
                n = spec.n0 + i
                with np.errstate(all="ignore"):
                    values.append(step(n, values[-1], [per_draw(conc, a, rng, d0.size) for a in params]))
            paths.append(np.array(values))
            return paths[-1] - ref[:, None]

        within = conc.sample_neutrix(noise, rng, size=samples)
        bound = 0.0 if noise.is_zero else max(r_noise, 1e-300) * recur._ESCAPE_FACTOR
        escape = (np.abs(run(within)) > bound).any(axis=0)
        evidence = {"route": "sampled falsification", "samples": samples, "horizon": spec.horizon}
        stable = Flag.FALSIFIED if escape.any() else Flag.UNKNOWN
        if escape.any():
            evidence["stability_counterexample_d0"] = float(within[int(np.argmax(escape))])
        tail = max(1, spec.horizon // 4)
        per_scale = []
        for s in np.geomspace(max(r_noise * 4.0, conc.eps0 ** 12), 0.5, num=8):
            d = run(np.full(16, s * 0.5))
            per_scale.append((float(s), bool((~(np.abs(d[-tail:]) > max(r_noise, 1e-300)).any(axis=0)).any())))
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
        params = parameters(spec.f)
        assert log == [(u0, 9)] + [(a, 9) for _ in range(spec.horizon) for a in params]

    CASES = ("benchmark", "benchmark-zero-noise", "drain")
    # Maps whose perturbed runs leave double range or the reals, from the
    # reference 0.  With zero noise the stability run stays at 0 and only
    # the last scale leaves double range.  In the last case the scales' runs
    # are nan from n=0, and the stability run leaves double range at n=1
    # without a nan.
    ESCAPES = [pytest.param((f, noise), id=f"{f}-{noise}") for f, noise in (
        ("u + u^2", pound(1)), ("u + u^2", ZERO), ("u + u^2 + e*L", pound(1)),
        ("u*u*u*1000 + e*L", pound(1)), ("u^(1/2) + e*L", pound(1)),
        ("u^8 + 0*(u^2*((u - 1/10)^2 - 1/25))^(1/2)", pound(-2)),
    )]

    def case_args(self, case, conc):
        if isinstance(case, tuple):
            f, noise = case
            spec = RecurrenceSpec(parse_recur_rhs(f), monomial(0), horizon=200)
            return spec, (spec, monomial(0), noise, conc)
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
        params = parameters(spec.f)
        # The 40 starting offsets inside the noise (none for zero noise), then
        # one 40-path stability run and eight 16-path tolerance-scale runs.
        noise = args[2]
        within = [] if noise.is_zero else [(from_neutrix(noise), 40)]
        sizes = [40] + [16] * 8
        assert log == within + [(a, size) for size in sizes for _ in range(spec.horizon) for a in params]

    @pytest.mark.parametrize("case", [*CASES, *ESCAPES])
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

    # From 1 the reference meets the float overflow of (3/2)^n at n=1751.
    # From 2 the reference leaves double range at n=9, but the radius of
    # e^(-400)*L overflows a double first.
    @pytest.mark.parametrize("f, start, horizon, first", [
        ("u^2 + (3/2)^n*e*L", 1, 1800, "reference path "), ("u^2 + e^(-400)*L", 2, 200, "neutrix w^400*L "),
    ], ids=["u^2 + (3/2)^n*e*L-e*L", "u^2 + e^(-400)*L-e*L"])
    def test_batch_refuses_as_run_by_run(self, conc_coarse, f, start, horizon, first):
        spec = RecurrenceSpec(parse_recur_rhs(f), monomial(start), horizon=horizon)
        args = (spec, monomial(start), pound(1), conc_coarse)
        with pytest.raises(NumericOverflow) as want:
            self.run_by_run(*args, samples=200, seed=1)
        assert str(want.value).startswith(first)
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
