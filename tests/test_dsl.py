import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from flexnum import dsl, seq
from flexnum.errors import ParseError, Unnormalizable
from flexnum.extnum import from_neutrix, monomial
from flexnum.scale import FULL, MICRO, OSLASH, pound
from flexnum.seq import ALT, Const, Div, Geom, Index, Var

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
sys.path.insert(0, os.path.abspath(PERFBENCH))

import inputs  # noqa: E402

# The benchmark's slow-curve fields at a = 5/4, written out by hand in the
# parser's operation order: a negation is a product with -1, which IEEE
# arithmetic rounds exactly like a sign flip.
HAND_FIELDS = (
    lambda t, y: -(1.25 * y) - y ** 3,
    lambda t, y: -((1.25 + t) * y),
    lambda t, y: -((1.25 * y) / (1 + y ** 2)),
    lambda t, y: -(2.5 * y) + y ** 2 / 4,
    lambda t, y: -(1.25 * y) - t * y ** 3,
    lambda t, y: -((2.5 + t) * y) - y ** 3 / 3,
)


class TestParse:
    def test_extnum_literals(self):
        assert dsl.parse_extnum("5 + o") == monomial(5) + from_neutrix(OSLASH)
        assert dsl.parse_extnum("w^2 + w*L") == monomial(1, -2) + from_neutrix(pound(-1))
        assert dsl.parse_extnum("e^2*L") == from_neutrix(pound(2))
        assert dsl.parse_extnum("3/2") == monomial(Fraction(3, 2))
        assert dsl.parse_extnum("M") == from_neutrix(MICRO)
        assert dsl.parse_extnum("R") == from_neutrix(FULL)
        assert dsl.parse_extnum("e^(3/2)") == monomial(1, Fraction(3, 2))
        assert dsl.parse_extnum("-2 + o") == monomial(-2) + from_neutrix(OSLASH)

    def test_seq_terms(self):
        t = dsl.parse_seq("1/n + o")
        assert t == seq.Add(Div(Const(monomial(1)), Index()), Const(from_neutrix(OSLASH)))
        v = dsl.parse_seq("1/n^2 + e*L")
        assert seq.normalize(v) == seq.normalize(
            Div(Const(monomial(1)), seq.Pow(Index(), Fraction(2)))
            + Const(from_neutrix(pound(1)))
        )
        assert dsl.parse_seq("(-1)^n") == ALT
        assert dsl.parse_seq("(1/2)^n") == Geom(Fraction(1, 2))
        assert dsl.parse_seq("(-2)^n") == seq.Mul(ALT, Geom(2))

    def test_neutrix_parse(self):
        assert dsl.parse_neutrix("e*L") == pound(1)
        with pytest.raises(ParseError):
            dsl.parse_neutrix("1 + o")

    def test_scalar_field(self):
        f = dsl.parse_scalar_field("-y")
        assert f(0.0, 2.0) == -2.0
        g = dsl.parse_scalar_field("-y + t*y/2")
        assert g(1.0, 4.0) == -4.0 + 2.0

    def test_recurrence_leaves_are_one_variable(self):
        t = dsl.parse_recur_rhs("u*u + u")
        leaves = [t.left.left, t.left.right, t.right]
        assert leaves == [Var("u")] * 3
        assert {hash(leaf) for leaf in leaves} == {hash(Var("u"))}

    @pytest.mark.parametrize("i", range(len(inputs.FIELDS)))
    def test_benchmark_fields_match_hand_written(self, i):
        f = dsl.parse_scalar_field(inputs.FIELDS[i].format(a=Fraction(5, 4)))
        for t in (0.0, 0.5, 1.75, 3.0):
            for y in (-2.5, -1.0, -0.3, -0.0, 0.0, 0.1, 0.7, 1.5, 4.0):
                assert f(t, y).hex() == HAND_FIELDS[i](t, y).hex(), (t, y)

    def test_scalar_field_rejects_neutrices(self):
        with pytest.raises(ParseError):
            dsl.parse_scalar_field("y + o")

    def test_nesting_depth_is_bounded(self):
        assert dsl.parse_extnum("(" * 100 + "1" + ")" * 100) == monomial(1)
        with pytest.raises(ParseError) as err:
            dsl.parse_extnum("(" * 101 + "1" + ")" * 101)
        assert err.value.position == 100

    @pytest.mark.parametrize("parse, text", [(dsl.parse_extnum, "e^(1/0)"), (dsl.parse_extnum, "2^(-3/0)"),
                                             (dsl.parse_seq, "n^(0/0)")], ids=["e", "rational", "n"])
    def test_zero_denominator_in_an_exponent_is_positioned(self, parse, text):
        with pytest.raises(ParseError, match="^divisor 0 contains zero") as err:
            parse(text)
        assert err.value.position == text.index("/")

    @pytest.mark.parametrize("text, same", [("e^(1+1)", "e^2"), ("w^-2", "e^2"), ("e^-(1/2)", "w^(1/2)"),
                                            ("e^(2^2/(3*2))", "e^(2/3)"), ("w^+(-3)", "e^3")])
    def test_exponent_is_any_rational_constant(self, text, same):
        assert dsl.parse_extnum(text) == dsl.parse_extnum(same)

    def test_sequence_exponent_is_a_rational_constant(self):
        assert dsl.parse_seq("n^(-1/2)") == seq.Pow(Index(), Fraction(-1, 2))
        assert dsl.parse_seq("n^-(1/2)") == seq.Pow(Index(), Fraction(-1, 2))

    @pytest.mark.parametrize("parse, text, message, position", [
        (dsl.parse_extnum, "e^o", "an exponent must be n or a rational constant", 2),
        (dsl.parse_seq, "2^-n", "an exponent must be n or a rational constant", 2),
        (dsl.parse_extnum, "e^(2^1000)", "exponent out of range", 2),
    ], ids=["neutrix", "negative-index", "out-of-range"])
    def test_exponent_that_is_no_rational_constant_is_refused(self, parse, text, message, position):
        with pytest.raises(ParseError, match=f"^{message}") as err:
            parse(text)
        assert err.value.position == position

    def test_errors_carry_positions(self):
        # The second + reads as a unary sign, so the * is the offender.
        with pytest.raises(ParseError) as err:
            dsl.parse_extnum("5 + + *")
        assert err.value.position == 6


class TestRoundTrip:
    CORPUS = [
        "0",
        "5 + o",
        "w^2 + w*L",
        "e^2*L",
        "M",
        "3/2",
        "1/n + o",
        "(-1)^n/n",
        "1/n^2 + e*L",
        "(1/2)^n*n^2",
        "n^(3/2)",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_print_parse_identity(self, text):
        value = dsl.parse_seq(text)
        printed = dsl.print_seq(value)
        again = dsl.parse_seq(printed)
        try:
            assert seq.normalize(again) == seq.normalize(value)
        except Exception:
            assert again == value

    def test_random_extnum_round_trip(self):
        rng = random.Random(11)
        for _ in range(300):
            value = support.rand_extnum(rng)
            printed = dsl.print_extnum(value)
            assert dsl.parse_extnum(printed) == value, printed

    def test_random_term_round_trip(self):
        rng = random.Random(12)
        for _ in range(200):
            t = support.rand_term(rng, convergent=True)
            printed = dsl.print_seq(t)
            again = dsl.parse_seq(printed)
            try:
                assert seq.normalize(again) == seq.normalize(t), printed
            except Exception:
                assert dsl.print_seq(again) == printed

    def test_normal_form_text_parses_back(self):
        # The point and noise monomials of a form print in the term grammar;
        # a unit coefficient before n or b^n is a bare sign: -n^-1, not -*n^-1.
        witness = seq.normalize(dsl.parse_seq("1/(1 + 1/n)"))
        assert str(witness) == "-n^-1 + 1 + O(2*n^-2)"
        rng = random.Random(13)
        forms = [witness]
        for _ in range(300):
            try:
                forms.append(seq.normalize(support.rand_term(rng, convergent=rng.random() < 0.5)))
            except Unnormalizable:
                continue
        unit_signs = 0
        for nf in forms:
            exact = seq._form(nf.point, nf.noise)
            assert seq.normalize(dsl.parse_seq(str(exact))) == exact, str(exact)
            unit_signs += any(c == -1 and (r, b, alt) != (0, 1, False) for (_, r, b, alt), c in nf.point)
        assert unit_signs > 1


class TestFuzz:
    @given(st.text(alphabet="ewoLMRn0123456789+-*/^() ", max_size=24))
    def test_random_token_soup_never_crashes(self, text):
        try:
            dsl.parse_seq(text)
        except ParseError:
            pass

    @given(st.text(max_size=16))
    def test_arbitrary_text_never_crashes(self, text):
        try:
            dsl.parse_extnum(text)
        except ParseError:
            pass
