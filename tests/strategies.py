"""Hypothesis strategies for the symbolic types."""

from fractions import Fraction

from hypothesis import strategies as st

from flexnum import scale, seq
from flexnum.extnum import ExternalNumber, FormalSeries, monomial

exponents = st.fractions(min_value=-4, max_value=4, max_denominator=2)
coefficients = st.fractions(min_value=-8, max_value=8, max_denominator=4).filter(lambda c: c != 0)


@st.composite
def neutrices(draw, allow_full=True):
    kind = draw(st.sampled_from(["zero", "micro", "oslash", "pound"] + (["full"] if allow_full else [])))
    if kind == "zero":
        return scale.ZERO
    if kind == "micro":
        return scale.MICRO
    if kind == "full":
        return scale.FULL
    q = draw(exponents)
    return scale.oslash(q) if kind == "oslash" else scale.pound(q)


@st.composite
def series(draw, max_terms=3):
    items = draw(st.lists(st.tuples(coefficients, exponents), max_size=max_terms))
    return FormalSeries.from_terms(items)


@st.composite
def externals(draw, allow_full=False):
    return ExternalNumber(draw(series()), draw(neutrices(allow_full=allow_full)))


@st.composite
def zeroless_externals(draw):
    value = draw(externals())
    if value.is_zeroless:
        return value
    nx = value.neutrix
    q = nx.q - 1 if nx.is_mono else Fraction(-1)
    return value + ExternalNumber(FormalSeries.monomial(draw(coefficients), q), scale.ZERO)


def _power_of_n(r):
    return seq.Pow(seq.N, Fraction(r))


@st.composite
def seq_terms(draw, depth=2):
    """A sequence term of the normal-form grammar.  Its leaves include
    alternating twins c1*n^r + c2*(-1)^n*n^r and quotients by 1 + (vanishing)
    or n + k, whose forms carry tails or are trimmed; a quotient the fragment
    refuses is left for the caller to skip."""
    if depth > 0 and draw(st.booleans()):
        op = draw(st.sampled_from([seq.Add, seq.Mul, seq.Add]))
        return op(draw(seq_terms(depth - 1)), draw(seq_terms(depth - 1)))
    kind = draw(st.sampled_from(["const", "n", "alt", "geom", "twin", "inverse", "shifted"]))
    if kind == "const":
        return seq.Const(draw(externals(allow_full=draw(st.booleans()))))
    if kind == "n":
        return _power_of_n(draw(st.integers(-2, 2)))
    if kind == "alt":
        return seq.Mul(seq.Const(monomial(draw(coefficients), draw(exponents))), seq.ALT)
    if kind == "geom":
        return seq.Geom(draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 2)])))
    if kind == "twin":
        c, r = draw(coefficients), draw(st.integers(-2, 1))
        twin = c * draw(st.sampled_from([1, -1, Fraction(1, 2)]))
        return seq.Add(
            seq.Mul(seq.Const(monomial(c)), _power_of_n(r)),
            seq.Mul(seq.Const(monomial(twin)), seq.Mul(seq.ALT, _power_of_n(r))),
        )
    num = seq.Const(draw(externals()))
    if kind == "inverse":
        vanishing = draw(st.sampled_from([_power_of_n(-1), _power_of_n(-2), seq.Geom(Fraction(1, 2))]))
        small = seq.Mul(seq.Const(monomial(draw(coefficients), draw(st.integers(0, 2)))), vanishing)
        return seq.Div(num, seq.Add(seq.Const(monomial(draw(st.integers(1, 4)))), small))
    return seq.Div(num, seq.Add(seq.N, seq.Const(monomial(draw(st.integers(1, 4))))))
