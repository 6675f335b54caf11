from fractions import Fraction

import pytest
from hypothesis import given

import strategies as strat
from flexnum import extnum as E
from flexnum.errors import DivisionByNeutrix, UnrepresentableDivision
from flexnum.extnum import (
    ExternalNumber,
    FormalSeries,
    div,
    from_neutrix,
    ge,
    gt,
    le,
    lt,
    monomial,
    subset,
)
from flexnum.scale import FULL, MICRO, OSLASH, POUND, ZERO, oslash, pound

o = from_neutrix(OSLASH)
L = from_neutrix(POUND)
one = monomial(1)
eps = monomial(1, 1)
omega = monomial(1, -1)


class TestCanonical:
    def test_absorbed_terms_drop(self):
        x = ExternalNumber(FormalSeries.from_terms([(1, 0), (1, 2)]), OSLASH)
        assert x == one + o
        assert len(x.rep.terms) == 1

    def test_collapse_to_neutrix(self):
        x = ExternalNumber(FormalSeries.monomial(1, 1), pound(1))
        assert not x.is_zeroless and x.neutrix == pound(1)

    def test_kept_when_outside(self):
        x = ExternalNumber(FormalSeries.from_terms([(1, 0), (1, 1)]), oslash(1))
        assert len(x.rep.terms) == 2 and x.is_zeroless

    def test_value_equality_is_set_equality(self):
        assert monomial(5) + o == monomial(5) + eps + o
        assert monomial(5) + o != monomial(5) + monomial(1, Fraction(-1, 2)) + o

    def test_absorption_boundaries(self):
        # L absorbs its own scale, o only strictly smaller ones.
        assert not ExternalNumber(FormalSeries.monomial(1, 1), pound(1)).is_zeroless
        assert ExternalNumber(FormalSeries.monomial(1, 1), oslash(1)).is_zeroless
        assert ExternalNumber(FormalSeries.monomial(1, 1), MICRO).is_zeroless
        assert not ExternalNumber(FormalSeries.monomial(1, 1), FULL).is_zeroless


class TestArithmetic:
    def test_add_examples(self):
        assert (one + o) + (monomial(2) + from_neutrix(pound(1))) == monomial(3) + o
        a = monomial(5) + o
        assert a - a == o
        w2 = monomial(1, -2) + from_neutrix(pound(-1))
        assert w2 + monomial(-1, -2) == from_neutrix(pound(-1))

    def test_mul_examples(self):
        assert (monomial(1, 1) + o) * (monomial(1, -2) + from_neutrix(pound(-1))) == from_neutrix(
            oslash(-2)
        )
        assert (monomial(2) + o) * (monomial(3) + from_neutrix(pound(1))) == monomial(6) + o
        x = monomial(7) + from_neutrix(pound(2))
        assert x * one == x

    def test_div_examples(self):
        assert div(one, one + o) == one + o
        assert div(one, omega + L) == monomial(1, 1) + from_neutrix(pound(2))
        with pytest.raises(DivisionByNeutrix):
            div(one, o)

    def test_div_truncates_against_result_noise(self):
        # (1+e+e^2*L) is inverted only far enough for the noise to absorb.
        den = one + eps + from_neutrix(pound(2))
        out = div(one, den)
        assert out == one + monomial(-1, 1) + from_neutrix(pound(2))

    def test_div_unrepresentable(self):
        with pytest.raises(UnrepresentableDivision):
            div(one, one + eps)

    def test_div_identity_on_monomials(self):
        assert div(one, monomial(2)) == monomial(Fraction(1, 2))
        assert div(one, monomial(1, 2)) == monomial(1, -2)

    def test_abs(self):
        assert abs(monomial(-2) + o) == monomial(2) + o
        assert abs(o) == o
        assert abs(from_neutrix(pound(-1))) == from_neutrix(pound(-1))
        assert abs(monomial(-1, 1) + from_neutrix(pound(2))) == monomial(1, 1) + from_neutrix(
            pound(2)
        )


class TestOrder:
    def test_golden_facts(self):
        assert gt(one + from_neutrix(pound(1)), o)
        assert ge(o, L) and not le(L, o)
        assert le(eps, o) and ge(eps, o)
        assert le(o, L)

    def test_lt_gt_flip(self):
        assert lt(one, monomial(2))
        assert gt(monomial(2), one)
        assert not lt(one + o, one + o)

    def test_subset_and_predicates(self):
        assert subset(eps, o)
        assert (one + o).is_zeroless
        assert not o.is_zeroless
        assert (monomial(1, -2) + from_neutrix(pound(-1))).neutrix == pound(-1)

    def test_nonantisymmetry_documented_case(self):
        a, b = o, L
        assert le(a, b) and ge(a, b)
        assert a != b


class TestLaws:
    @given(strat.externals(), strat.externals())
    def test_triangle_dt1(self, a, b):
        assert le(abs(a + b), abs(a) + abs(b))

    @given(strat.externals(), strat.externals())
    def test_triangle_dt2_corrected(self, a, b):
        # As printed elsewhere with |a|-|b| on the right the inequality fails
        # whenever |b| > |a|; the standard form uses |a - b|.
        assert le(abs(abs(a) - abs(b)), abs(a - b))

    @given(strat.externals(), strat.zeroless_externals())
    def test_split_property(self, a, b):
        beta = abs(b)
        if lt(abs(a), beta):
            assert lt(-beta, a) and lt(a, beta)
        if lt(-beta, a) and lt(a, beta):
            assert lt(abs(a), beta)

    @given(strat.externals(), strat.externals(), strat.externals())
    def test_le_compatible_with_addition(self, a, b, c):
        if le(a, b):
            assert le(a + c, b + c)

    @given(strat.externals(), strat.externals())
    def test_characterizations(self, a, b):
        assert lt(a, b) == (le(a, b) and not subset(a, b) and not subset(b, a))
        assert gt(a, b) == lt(b, a)
        assert le(a, b) == (lt(a, b) or subset(a, b))
        assert ge(a, b) == (gt(a, b) or subset(a, b))

    @given(strat.externals(), strat.externals())
    def test_dichotomy(self, a, b):
        # Two external numbers are either disjoint or nested.
        if not E.disjoint(a, b):
            assert subset(a, b) or subset(b, a)

    @given(strat.externals(), strat.externals())
    def test_same_neutrix_corollary(self, a, b):
        if a.neutrix == b.neutrix and not le(a, b):
            assert gt(a, b)

    @given(strat.externals(), strat.externals())
    def test_self_difference_is_noise(self, a, b):
        assert (a - a) == from_neutrix(a.neutrix)
        assert (a + b).neutrix == a.neutrix + b.neutrix

    @given(strat.zeroless_externals())
    def test_div_inverse_consistency(self, a):
        try:
            inv = div(monomial(1), a)
        except UnrepresentableDivision:
            return
        # a * (1/a) contains 1.
        assert subset(monomial(1), a * inv)
