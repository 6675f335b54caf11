import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given

import strategies as strat
from flexnum import extnum, scale
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


def _absorbs_by_branches(nx, q):
    """``Neutrix.absorbs`` as three branches on the variant and kind: the
    reference for the one integer compare."""
    if nx.variant is scale._Variant.FULL:
        return True
    if nx.variant is scale._Variant.MONO:
        if nx.kind is scale.Kind.POUND:
            return q >= nx.q
        return q > nx.q
    return False


def test_absorbs_matches_the_branch_reference():
    """Every (variant, kind) against 2 000 int and Fraction exponents: half
    equal to the neutrix's own exponent, zero and both signs among them."""
    rng = random.Random(3401)
    seen = set()
    for _ in range(2000):
        p = _rational(rng, -5, 5)
        nx = rng.choice([ZERO, MICRO, FULL, oslash(p), pound(p)])
        q = rng.choice([p, Fraction(p), _rational(rng, -5, 5)])
        assert nx.absorbs(q) == _absorbs_by_branches(nx, q), (nx, q)
        seen.add((str(nx)[-1], q == nx.q and nx.is_mono, (q > 0) - (q < 0), type(q)))
    for letter in "oL":
        assert {(letter, True, sign, kind) for sign in (-1, 0, 1) for kind in (int, Fraction)} <= seen
    assert {("0", False, 0, int), ("M", False, 1, Fraction), ("R", False, -1, int)} <= seen


_EXPONENTS = (0, 1, -3, Fraction(1, 2), Fraction(-7, 3), Fraction(6, 3))


@pytest.mark.parametrize("make, kind", [(oslash, scale.Kind.OSLASH), (pound, scale.Kind.POUND)])
def test_one_instance_per_point_of_the_chain(make, kind):
    other = pound if make is oslash else oslash
    for q in _EXPONENTS:
        nx = make(q)
        assert make(scale.exact(q)) is nx and make(Fraction(q)) is nx
        assert nx.kind is kind and nx.q == q and type(nx.q) is type(scale.exact(q))
        assert other(q) is not nx and other(q) != nx
        assert nx.scaled(5, 0) is nx and nx.scaled(-1, 1) is make(q + 1)
        assert make(1).scaled(2, q - 1) is nx
    assert make(3) * POUND is make(3) and POUND * make(Fraction(5, 2)) is make(Fraction(5, 2))


def test_copies_and_raw_values_behave_like_the_shared_one():
    """A pickled copy, a deep copy and a raw-constructor value of each
    requested point equal the shared value, hash like it and order like it."""
    pool = [ZERO, MICRO, FULL] + [make(q) for q in _EXPONENTS for make in (oslash, pound)]
    requested = [(ZERO, scale._Variant.ZERO, None, 0), (MICRO, scale._Variant.MICRO, None, 0),
                 (FULL, scale._Variant.FULL, None, 0)]
    requested += [(make(q), scale._Variant.MONO, kind, q)
                  for q in _EXPONENTS for make, kind in ((oslash, scale.Kind.OSLASH), (pound, scale.Kind.POUND))]
    for nx, variant, kind, q in requested:
        raw = scale.Neutrix(variant, kind, Fraction(q) if kind is not None else q)
        for twin in (pickle.loads(pickle.dumps(nx)), copy.deepcopy(nx), raw):
            assert twin == nx and hash(twin) == hash(nx) and str(twin) == str(nx)
            for other in pool:
                assert (twin < other, twin <= other, other < twin, other <= twin) == (
                    nx < other, nx <= other, other < nx, other <= nx)
                assert twin + other == nx + other and twin * other == nx * other
            for p in (q - 1, q, q + 1):
                assert twin.absorbs(p) == nx.absorbs(p)


def test_lt_reads_the_sign_of_the_leading_difference():
    """``extnum.lt`` against the sign test ``lead[0] > 0`` on the leading
    term of b - a, with the branch reference of ``absorbs``."""
    rng = random.Random(3402)
    nxs = [ZERO, MICRO] + [make(q) for q in (-1, 0, Fraction(1, 2), 1) for make in (oslash, pound)]
    seen = set()
    for _ in range(1500):
        a, b = (extnum.ExternalNumber(extnum.FormalSeries.from_terms(
            [(rng.choice((-3, -1, Fraction(1, 2), 2)), rng.choice((-1, 0, Fraction(1, 2), 1)))
             for _ in range(rng.randint(0, 2))]), rng.choice(nxs)) for _ in range(2))
        lead = extnum._lead_difference(b.rep, a.rep)
        want = lead is not None and lead[0] > 0 and not _absorbs_by_branches(a.neutrix + b.neutrix, lead[1])
        assert extnum.lt(a, b) == want, (a, b)
        seen.add((want, lead is not None and lead[0] > 0))
    assert seen == {(True, True), (False, True), (False, False)}
