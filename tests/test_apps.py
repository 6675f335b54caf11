import math
import random
from fractions import Fraction

import numpy as np
import pytest

from flexnum import apps
from flexnum.concretize import Concretization
from flexnum.dsl import parse_scalar_field
from flexnum.errors import IndexBeyondPrefix, NotAttractive, StepUnstable
from flexnum.extnum import ExternalNumber, FormalSeries, from_neutrix, monomial
from flexnum.scale import MICRO, pound
from flexnum.seq import SegmentKind


class TestBorelRitt:
    def test_zero_coefficients(self):
        sh = apps.borel_ritt([0, 0, 0], 2)
        assert sh.value == from_neutrix(MICRO)

    def test_partial_sum_bound_certificate(self):
        sh = apps.borel_ritt([1] * 7, 6)
        assert sh.value.rep == FormalSeries.from_terms((1, k) for k in range(7))
        assert sh.certificate.noise == MICRO
        assert sh.certificate.segment.kind is SegmentKind.LIMITED
        assert len(sh.certificate.pair_bounds) == 21
        for m, n, bound in sh.certificate.pair_bounds:
            assert bound == pound(m + 1)

    def test_shadow_checks_all_levels(self, conc_coarse):
        for coeffs in ([1] * 7, [math.factorial(k) for k in range(6)], [0, 3, -5, 7, 0, 2]):
            sh = apps.borel_ritt(coeffs, len(coeffs) - 1)
            for n in range(len(coeffs) - 1):
                assert apps.shadow_check(sh.value, coeffs, n, conc_coarse), (coeffs, n)

    def test_divergent_archetype(self, conc_coarse):
        # Factorials diverge as a series; the prefix is still realized.
        fact = [math.factorial(k) for k in range(6)]
        sh = apps.borel_ritt(fact, 5)
        assert apps.shadow_check(sh.value, fact, 4, conc_coarse)

    def test_epsilon_perturbation_first_fails_at_level(self, conc_coarse):
        sh = apps.borel_ritt([1] * 7, 6)
        for n0 in (1, 3, 5):
            perturbed = ExternalNumber(
                sh.value.rep + FormalSeries.monomial(1, n0 + 1), sh.value.neutrix
            )
            got = [apps.shadow_check(perturbed, [1] * 7, n, conc_coarse) for n in range(6)]
            assert got[:n0] == [True] * n0
            assert got[n0] is False

    def test_micro_perturbation_invisible(self, conc_coarse):
        sh = apps.borel_ritt([1] * 7, 6)
        offset = conc_coarse.sample_neutrix(MICRO, conc_coarse.rng(15))
        for n in range(6):
            assert apps.shadow_check(sh.value, [1] * 7, n, conc_coarse, numeric_offset=offset)

    def test_prefix_guards(self, conc_coarse):
        sh = apps.borel_ritt([1, 2, 3], 2)
        with pytest.raises(IndexBeyondPrefix):
            apps.shadow_check(sh.value, [1, 2, 3], 2, conc_coarse)
        with pytest.raises(IndexBeyondPrefix):
            apps.borel_ritt([1, 2, 3], 5)

    def test_random_prefixes(self, conc_coarse):
        rng = random.Random(62)
        for _ in range(25):
            k = rng.randint(2, 9)
            coeffs = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 9)) for _ in range(k + 1)]
            sh = apps.borel_ritt(coeffs, k)
            for n in range(k):
                assert apps.shadow_check(sh.value, coeffs, n, conc_coarse)

    def test_pair_bounds_match_brute_force(self):
        def brute_force(coeffs, k):
            exp = apps.ShadowExpansion.of(coeffs)
            bounds = []
            for m in range(k + 1):
                for n in range(m + 1, k + 1):
                    diff = exp.partial_sum(n) - exp.partial_sum(m)
                    bound = pound(m + 1)
                    assert all(bound.absorbs(q) for _, q in diff.terms)
                    bounds.append((m, n, bound))
            return tuple(bounds)

        rng = random.Random(1103)
        for length in range(2, 18):
            for _ in range(3):
                coeffs = [rng.choice((0, 0, 1, -3, Fraction(rng.randint(-99, 99), rng.randint(1, 7))))
                          for _ in range(length)]
                for k in sorted({length - 1, rng.randint(1, length - 1)}):
                    order = None if k == length - 1 else k
                    sh = apps.borel_ritt(coeffs, order)
                    assert sh.certificate.pair_bounds == brute_force(coeffs, k), (coeffs, order)


def linear_problem(eps0: float, dt=None, tmax=None) -> apps.SlowCurveProblem:
    return apps.SlowCurveProblem(
        f=lambda t, y: -y,
        eps0=eps0,
        y0=1.0,
        t_max=tmax if tmax is not None else 40 * eps0,
        dt=dt if dt is not None else eps0 / 20,
    )


class TestMatching:
    @pytest.mark.parametrize("eps0", (1e-3, 1e-4, 1e-5))
    def test_entry_times_against_exact_solution(self, eps0):
        result = apps.match_simulate(linear_problem(eps0), Concretization(eps0=min(eps0, 1e-2)))
        t_halo = eps0 * math.log(1.0 / result.halo_radius)
        t_tube = eps0 * math.log(1.0 / result.tube_radius)
        assert result.ok
        assert abs(result.t_enter_halo - t_halo) / t_halo < 0.05
        assert abs(result.t_enter_eps_tube - t_tube) / t_tube < 0.05

    def test_containment_after_entry(self):
        result = apps.match_simulate(linear_problem(1e-3), Concretization(eps0=1e-3))
        entered = result.ts >= result.t_enter_eps_tube
        assert np.all(np.abs(result.ys[entered]) <= result.tube_radius)

    def test_repulsive_field_rejected(self):
        with pytest.raises(NotAttractive):
            apps.match_simulate(
                apps.SlowCurveProblem(f=lambda t, y: +y, eps0=1e-3, y0=1.0, t_max=0.01, dt=1e-5)
            )

    def test_initial_point_in_halo_rejected(self):
        with pytest.raises(NotAttractive):
            apps.match_simulate(
                apps.SlowCurveProblem(f=lambda t, y: -y, eps0=1e-3, y0=1e-3, t_max=0.01, dt=1e-5)
            )

    def test_step_size_guard(self):
        with pytest.raises(StepUnstable):
            apps.match_simulate(linear_problem(1e-3, dt=1e-3))

    def test_halving_dt_stable_entry_times(self):
        r1 = apps.match_simulate(linear_problem(1e-3, dt=1e-3 / 20), Concretization(eps0=1e-3))
        r2 = apps.match_simulate(linear_problem(1e-3, dt=1e-3 / 40), Concretization(eps0=1e-3))
        assert abs(r1.t_enter_halo - r2.t_enter_halo) / r2.t_enter_halo < 0.01
        assert abs(r1.t_enter_eps_tube - r2.t_enter_eps_tube) / r2.t_enter_eps_tube < 0.01

    def test_entry_times_decrease_with_eps0(self):
        times = [
            apps.match_simulate(linear_problem(e), Concretization(eps0=e)).t_enter_halo
            for e in (1e-3, 1e-4, 1e-5)
        ]
        assert times[0] > times[1] > times[2]

    def test_nonlinear_attractive_field(self):
        # f = -y - y^3 is attractive on the band; entry happens faster than
        # for the linear field but containment must still hold.
        p = apps.SlowCurveProblem(
            f=lambda t, y: -y - y ** 3, eps0=1e-3, y0=1.0, t_max=0.04, dt=5e-5
        )
        result = apps.match_simulate(p, Concretization(eps0=1e-3))
        assert result.ok

    def test_rows_regions(self):
        result = apps.match_simulate(linear_problem(1e-3), Concretization(eps0=1e-3))
        rows = list(result.rows())
        assert len(rows) == len(result.ts)
        regions = [region for _, _, region in rows]
        assert regions[0] == "fast" and regions[-1] == "eps_tube"
        # Under the default half-exponent buffer the halo and tube radii
        # coincide, so the trajectory may never show a separate halo band.
        assert set(regions) <= {"fast", "halo", "eps_tube"}


def field_problem(f) -> apps.SlowCurveProblem:
    return apps.SlowCurveProblem(f=f, eps0=1e-4, y0=1.0, t_max=4e-3, dt=5e-6)


# A field whose slow curve stops attracting at t = 7/4000 - 1/10^(9/2), and
# one whose curve is pushed away by a drift that grows with t.
SINGULAR = "-y*((t - 7/4000)^2 - 1/10^9)"
DRIFT = "-y + 15/1000*(t*250)"


class TestMatchBookkeeping:
    def test_singular_point_stops_the_tube_test(self):
        result = apps.match_simulate(field_problem(parse_scalar_field(SINGULAR)))
        assert result.t_singular == 344 * 5e-6  # 0.00172
        assert (result.t_enter_halo, result.t_enter_eps_tube, result.violations) == (None, None, ())

    def test_no_violation_past_the_singular_point(self):
        # Near the curve the field repels from t > 2e-3 on; the trajectory
        # leaves the tube for |y| = 0.015, where the band still attracts.
        def field(t, y):
            return -y * (1 - 2 * (t > 2e-3) / (1 + (y / 0.015) ** 2))

        result = apps.match_simulate(field_problem(field))
        assert result.t_enter_eps_tube == 93 * 5e-6 and result.t_singular == 401 * 5e-6
        assert abs(result.ys[-1]) > result.tube_radius and result.violations == ()

    def test_every_step_outside_the_tube_is_a_violation(self):
        result = apps.match_simulate(field_problem(parse_scalar_field(DRIFT)))
        assert result.t_singular is None
        assert result.t_enter_halo == result.t_enter_eps_tube == 96 * 5e-6  # 0.00048
        # From t = 554*dt to the last step, 800*dt.
        assert len(result.violations) == 247
        assert result.violations[0] == "left the eps-tube at t=0.00277 after entering at 0.00048"
        assert result.violations == tuple(
            f"left the eps-tube at t={i * 5e-6:.6g} after entering at 0.00048" for i in range(554, 801))

    @staticmethod
    def floats_only(f):
        """f evaluated one point at a time: it raises on arrays."""
        return lambda t, y: f(float(t), float(y))

    @staticmethod
    def lists_for_arrays(f):
        """f, but a list where it would give an array."""
        return lambda t, y: f(t, y).tolist() if isinstance(t, np.ndarray) else f(t, y)

    @pytest.mark.parametrize("text", (SINGULAR, DRIFT, "-y - y^3", "-2*y*(1 + t*100)"))
    @pytest.mark.parametrize("twin", ("floats_only", "lists_for_arrays"))
    def test_non_array_field_gives_the_same_result(self, text, twin):
        field = parse_scalar_field(text)
        array_calls = []

        def spy(t, y):
            if isinstance(t, np.ndarray):
                array_calls.append(t.shape)
            return field(t, y)

        want = apps.match_simulate(field_problem(spy))
        # The attraction grid above and below the curve, then the probe at
        # the 800 step times, each as one call.
        assert array_calls == [(13, 9), (13, 9), (800,), (800,)]
        got = apps.match_simulate(field_problem(getattr(self, twin)(field)))
        assert got.ts.tobytes() == want.ts.tobytes() and got.ys.tobytes() == want.ys.tobytes()
        for name in ("t_enter_halo", "t_enter_eps_tube", "halo_radius", "tube_radius", "t_singular", "violations"):
            assert getattr(got, name) == getattr(want, name), name

    @pytest.mark.parametrize("twin", ("floats_only", "lists_for_arrays"))
    def test_first_sign_failure_in_row_major_order(self, twin):
        # Fails at t = 0 above |y| = 1/2, and at every later t below |y| = 1/20.
        def field(t, y):
            return -y * (1 - 3 * ((t == 0) & (abs(y) > 0.5) | (t > 0) & (abs(y) < 0.05)))

        messages = []
        for f in (field, getattr(self, twin)(field)):
            with pytest.raises(NotAttractive) as exc:
                apps.match_simulate(field_problem(f))
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("sign condition fails at (t=0, |y|=0.6")

    def test_field_raising_on_the_grid_fails_the_sign_test(self):
        # The array field gives inf at the fourth grid time; called at floats,
        # it divides by zero there.  Either fails the sign test at that point.
        pole = float(np.linspace(0.0, 4e-3, 13)[3])

        def field(t, y):
            return -y + 1e-300 / (t - pole) ** 2

        messages = []
        for f in (field, self.floats_only(field)):
            with pytest.raises(NotAttractive) as exc:
                apps.match_simulate(field_problem(f))
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("sign condition fails at (t=0.001, |y|=")

    def test_pole_met_first_by_the_probe_still_raises(self):
        # At t = 107*dt the field divides 0.0 by 0.0.  No RK4 stage of a step
        # before step 108 lands on that time; that step's first stage raises.
        dt = 5e-6
        pole = 107 * dt
        calls = []

        def field(t, y):
            calls.append((t, y))
            return -y * (1 + 0.0 / (t - pole))

        with pytest.raises(ZeroDivisionError):
            apps.match_simulate(field_problem(field))
        t, y = calls[-1]
        assert t == pole and y not in (0.0, 1e-4)
