import random
from fractions import Fraction

import pytest
from hypothesis import given

import strategies as strat
from flexnum import scale
from flexnum.scale import FULL, MICRO, OSLASH, POUND, ZERO, oslash, pound


class TestTables:
    def test_add_union_is_larger(self):
        assert oslash(1) + pound(1) == pound(1)
        assert OSLASH + ZERO == OSLASH
        assert ZERO + OSLASH == OSLASH

    def test_add_across_scales(self):
        # e-scale L is still inside plain o: the coarser set wins.
        assert oslash(0) + pound(1) == oslash(0)
        assert pound(2) + oslash(-1) == oslash(-1)

    def test_mul_idempotents(self):
        assert OSLASH * OSLASH == OSLASH
        assert POUND * POUND == POUND
        assert POUND * OSLASH == OSLASH
        assert oslash(0) * pound(1) == oslash(1)

    def test_mul_absorbers(self):
        assert ZERO * FULL == ZERO
        assert FULL * MICRO == FULL
        assert MICRO * pound(-3) == MICRO
        assert MICRO * MICRO == MICRO

    def test_cmp_chain(self):
        assert OSLASH < POUND
        assert MICRO < oslash(5)
        assert pound(2) < oslash(1)
        assert ZERO < MICRO
        assert POUND < FULL
        assert POUND <= POUND and not POUND < POUND

    def test_scale_monomial(self):
        assert OSLASH.scaled(3, 0) == OSLASH
        assert POUND.scaled(1, 2) == pound(2)
        assert MICRO.scaled(1, 1) == MICRO
        assert oslash(1).scaled(-2, Fraction(1, 2)) == oslash(Fraction(3, 2))
        with pytest.raises(ValueError):
            OSLASH.scaled(0, 1)

    def test_inclusion_chain(self):
        chain = [ZERO, MICRO, oslash(2), pound(2), oslash(1), pound(1), OSLASH, POUND, FULL]
        for i, small in enumerate(chain):
            for big in chain[i + 1 :]:
                assert small < big
                assert small <= big
                assert not big <= small


class TestLaws:
    @given(strat.neutrices(), strat.neutrices(), strat.neutrices())
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(strat.neutrices())
    def test_add_idempotent(self, a):
        assert a + a == a

    @given(strat.neutrices(), strat.neutrices(), strat.neutrices())
    def test_mul_associative_commutative(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @given(strat.neutrices(), strat.neutrices(), strat.neutrices())
    def test_monotonicity(self, a, b, m):
        if a <= b:
            assert a + m <= b + m
            assert a * m <= b * m

    @given(strat.neutrices(allow_full=False), strat.coefficients, strat.exponents)
    def test_scaling_absorbs_coefficient(self, n, c, q):
        assert n.scaled(c, q) == n.scaled(1, q)

    @given(strat.neutrices())
    def test_total_order(self, a):
        assert a <= a
        assert not a < a


class TestOracle:
    """Symbolic inclusion versus interval containment under the concretizer."""

    def test_add_matches_interval_union(self, conc):
        pool = [ZERO, MICRO] + [k(q) for q in range(-2, 3) for k in (oslash, pound)]
        for a in pool:
            for b in pool:
                joined = a + b
                assert conc.radius(joined) == max(conc.radius(a), conc.radius(b))

    def test_inclusion_matches_radii(self, conc):
        pool = [ZERO, MICRO] + [k(q) for q in range(-2, 3) for k in (oslash, pound)]
        for a in pool:
            for b in pool:
                if a <= b:
                    assert conc.radius(a) <= conc.radius(b)

    def test_sampled_elements_of_smaller_lie_in_larger(self, conc):
        rng = conc.rng(3)
        pool = [MICRO] + [k(q) for q in range(-2, 3) for k in (oslash, pound)]
        for i, a in enumerate(pool):
            for b in pool:
                if a <= b:
                    xs = conc.sample_neutrix(a, rng, size=64)
                    assert (abs(xs) <= conc.radius(b)).all()

    def test_mul_radius_matches_product_scale(self, conc):
        # Product of monomial neutrices concretizes within one buffer of the
        # product of the radii (kinds can tighten by up to 2*delta).
        import math

        for qa in range(-2, 3):
            for qb in range(-2, 3):
                prod = oslash(qa) * pound(qb)
                got = math.log(conc.radius(prod), conc.eps0)
                expect = math.log(conc.radius(oslash(qa)), conc.eps0) + math.log(
                    conc.radius(pound(qb)), conc.eps0
                )
                assert abs(got - expect) <= 2 * float(conc.delta) + 1e-9


def test_text_rendering():
    assert str(ZERO) == "0"
    assert str(OSLASH) == "o"
    assert str(POUND) == "L"
    assert str(MICRO) == "M"
    assert str(FULL) == "R"
    assert str(oslash(2)) == "e^2*o"
    assert str(pound(-1)) == "w*L"
    assert str(pound(Fraction(3, 2))) == "e^(3/2)*L"


def _rational(rng, lo, hi):
    """An int or a Fraction of small denominator in [lo, hi], as scale.exact gives it."""
    d = rng.choice((1, 2, 3, 4, 12))
    return scale.exact(Fraction(rng.randint(lo * d, hi * d), d)) if rng.random() < 0.7 else rng.randint(lo, hi)


def test_rounds_is_the_first_absorbed_round():
    """Neutrix.rounds against a search over absorbs, for every variant and
    kind, with starts on the boundary q + k*step == p half the time."""
    rng = random.Random(3101)
    seen = set()
    for _ in range(1500):
        nx = rng.choice([ZERO, MICRO, FULL, oslash(_rational(rng, -4, 4)), pound(_rational(rng, -4, 4))])
        step = _rational(rng, 0, 3) or Fraction(1, 7)
        q = nx.q - rng.randint(-3, 40) * step if nx.is_mono and rng.random() < 0.5 else _rational(rng, -8, 8)
        want = next((k for k in range(200) if nx.absorbs(q + k * step)), None)
        assert nx.rounds(q, step) == want, (nx, q, step)
        seen.add((str(nx)[-1], want is None, want == 0, nx.is_mono and (nx.q - q) % step == 0))
    assert {("L", False, False, True), ("o", False, False, True), ("0", True, False, False),
            ("M", True, False, False), ("R", False, True, False)} <= seen
