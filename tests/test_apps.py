import math
import random
from fractions import Fraction

import numpy as np
import pytest

from flexnum import apps
from flexnum.concretize import Concretization
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
