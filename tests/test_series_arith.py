"""Series arithmetic keeps the canonical form and agrees with plain references.

``FormalSeries`` arithmetic works on its canonical form (exponents strictly
ascending, no zero coefficients, every coefficient a ``Fraction`` and every
exponent as ``scale.exact`` gives it: an ``int`` exactly when it is
integral).  The references
below rebuild each result from all its monomials, as the constructor
``from_terms`` does, and expand the series inverse without truncating its
powers; the fast paths must give the same series.  External-number division
and order are checked the same way, against the formulations that build
every product and difference whole.
"""

import dataclasses
import functools
import itertools
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given

import strategies as strat
import support
from flexnum import extnum, scale, seq
from flexnum.errors import DivisionByNeutrix, FlexError, UnrepresentableDivision
from flexnum.extnum import FormalSeries, monomial
from flexnum.scale import FULL, MICRO, ZERO, oslash, pound

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
sys.path.insert(0, os.path.abspath(PERFBENCH))

import inputs  # noqa: E402

TARGETS = [ZERO, MICRO, FULL] + [kind(q) for q in range(-3, 4) for kind in (oslash, pound)]


def ref_from_terms(items):
    acc = {}
    for c, q in items:
        c, q = Fraction(c), Fraction(q)
        if c != 0:
            acc[q] = acc.get(q, Fraction(0)) + c
    return FormalSeries(tuple(sorted(((c, q) for q, c in acc.items() if c != 0), key=lambda t: t[1])))


def ref_add(a, b):
    return ref_from_terms(a.terms + b.terms)


def ref_mul(a, b):
    return ref_from_terms((c1 * c2, q1 + q2) for c1, q1 in a.terms for c2, q2 in b.terms)


def ref_inverse(s, target):
    """1/s by the geometric expansion, every power kept whole."""
    c0, q0 = s.terms[0]
    lead_inv = ref_from_terms([(1 / c0, -q0)])
    if len(s.terms) == 1:
        return lead_inv
    if not target.is_mono and not target.is_full:
        raise UnrepresentableDivision(f"1/({s}) has no finite series form against neutrix {target}")
    t = ref_from_terms((c / c0, q - q0) for c, q in s.terms[1:])
    # The m-th power starts at m times t's lowest exponent; searched, not solved.
    delta = t.terms[0][1]
    rounds = next(m for m in itertools.count(1) if target.absorbs(m * delta - q0))
    if rounds > 64:
        raise UnrepresentableDivision(
            f"series inverse of {s} against neutrix {target} needs {rounds} rounds, more than 64")
    out = power = ref_from_terms([(1, 0)])
    sign = 1
    for m in itertools.count(1):
        sign = -sign
        power = ref_mul(power, t)
        kept = [(sign * c, q) for c, q in power.terms if not target.absorbs(q - q0)]
        if not kept:
            assert m == rounds, (s, target)
            return ref_mul(lead_inv, out)
        out = ref_add(out, ref_from_terms(kept))


def is_exact(q):
    """An int, or a Fraction that is not integral: the form scale.exact gives."""
    return type(q) is int or (type(q) is Fraction and q.denominator != 1)


def assert_canonical(s):
    qs = [q for _, q in s.terms]
    assert all(p < q for p, q in zip(qs, qs[1:])), s.terms
    for c, q in s.terms:
        assert c != 0 and type(c) is Fraction and is_exact(q), s.terms


def rand_series(rng):
    """The representative of a support.py value, or a bare sum of 0-4 of its monomials."""
    if rng.random() < 0.5:
        return support.rand_extnum(rng).rep
    return FormalSeries.from_terms(
        (support.rand_coeff(rng), support.rand_exponent(rng)) for _ in range(rng.randint(0, 4)))


def test_arithmetic_is_canonical_and_matches_reference():
    rng = random.Random(9101)
    for _ in range(2000):
        a, b = rand_series(rng), rand_series(rng)
        for got, want in [
            (a + b, ref_add(a, b)),
            (a - b, ref_add(a, ref_from_terms((-c, q) for c, q in b.terms))),
            (a * b, ref_mul(a, b)),
        ]:
            assert_canonical(got)
            assert got == want
        for c, q in [(support.rand_coeff(rng), support.rand_exponent(rng)), (rng.randint(-3, 3), rng.randint(-3, 3))]:
            got = a.scaled(c, q)
            assert_canonical(got)
            assert got == ref_from_terms((c * c0, q + q0) for c0, q0 in a.terms)


def test_from_terms_wraps_ints_and_merges():
    s = FormalSeries.from_terms([(2, 1), (1, 0), (Fraction(-2), Fraction(1)), (0, 5), (3, Fraction(1, 2))])
    assert_canonical(s)
    assert s.terms == ((Fraction(1), Fraction(0)), (Fraction(3), Fraction(1, 2)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UnrepresentableDivision as exc:
        return type(exc), str(exc)


def test_inverse_matches_untruncated_expansion():
    rng = random.Random(9102)
    seen = set()
    for _ in range(600):
        s = rand_series(rng)
        if s.is_zero:
            continue
        target = rng.choice(TARGETS)
        got, want = _outcome(s.inverse, target), _outcome(ref_inverse, s, target)
        assert got == want, (s, target)
        if isinstance(got, FormalSeries):
            assert_canonical(got)
        kind = "refused" if isinstance(got, tuple) else "mono" if target.is_mono else "full"
        seen.add((kind, len(s.terms) > 1))
    assert {("mono", True), ("full", True), ("refused", True), ("mono", False)} <= seen


@pytest.mark.parametrize("target,terms", [(pound(1), 64), (oslash(1), None)], ids=["closes", "refused"])
def test_inverse_round_limit(target, terms):
    # The powers of e^(1/64) reach e*L in the 64th and last round, and e*o only in the 65th.
    s = FormalSeries.from_terms([(1, 0), (1, Fraction(1, 64))])
    got, want = _outcome(s.inverse, target), _outcome(ref_inverse, s, target)
    assert got == want
    if terms is None:
        assert got == (UnrepresentableDivision,
                       f"series inverse of {s} against neutrix {target} needs 65 rounds, more than 64")
    else:
        assert len(got.terms) == terms


def ref_absorbs(nx, q):
    """Whether e^q lies in nx, read off the chain 0 < M < e^p*o < e^p*L < R."""
    if nx.is_full:
        return True
    return nx.is_mono and (q > nx.q or (q == nx.q and nx.kind is scale.Kind.POUND))


def ref_scale_noise(n, alpha):
    """alpha * n: n scaled by every term of alpha's series, plus N(alpha) * n."""
    out = alpha.neutrix * n
    for c, q in alpha.rep.terms:
        out = out + n.scaled(c, q)
    return out


def ref_div(num, den):
    """num/den through the identity b/a = a*b / a^2: the product built whole,
    then multiplied by the inverse of the divisor's square."""
    if not den.is_zeroless:
        raise DivisionByNeutrix(f"divisor {den} contains zero")
    noise = ref_scale_noise(den.neutrix, num) + ref_scale_noise(num.neutrix, den) + num.neutrix * den.neutrix
    prod = extnum.ExternalNumber(num.rep * den.rep, noise)
    a2 = den.rep * den.rep
    noise = noise.scaled(1, -a2.terms[0][1])
    if prod.rep.is_zero:
        return extnum.from_neutrix(noise)
    inv = a2.inverse(noise.scaled(1, -prod.rep.terms[0][1]))
    return extnum.ExternalNumber(prod.rep * inv, noise)


def ref_difference(a, b):
    """The terms of b - a, built whole, that its noise N(a) + N(b) does not absorb."""
    return [(c, q) for c, q in (b.rep + -a.rep).terms if not ref_absorbs(a.neutrix + b.neutrix, q)]


def ref_lt(a, b):
    kept = ref_difference(a, b)
    return bool(kept) and kept[0][0] > 0


def ref_subset(a, b):
    diff = a.rep + -b.rep
    return a.neutrix <= b.neutrix and all(ref_absorbs(b.neutrix, q) for _, q in diff.terms)


def ref_disjoint(a, b):
    return bool(ref_difference(a, b))


ORDER_REFS = {
    "sub": lambda a, b: a + (-b),
    "lt": ref_lt,
    "gt": lambda a, b: ref_lt(b, a),
    "le": lambda a, b: ref_lt(a, b) or ref_subset(a, b),
    "ge": lambda a, b: ref_lt(b, a) or ref_subset(a, b),
    "subset": ref_subset,
    "disjoint": ref_disjoint,
}


def _value_or_refusal(fn, *args):
    try:
        return fn(*args)
    except FlexError as exc:  # the refusal texts differ: ref_div names the divisor's square
        return type(exc)


@functools.lru_cache(maxsize=1)
def reference_pairs():
    """10 000 seeded pairs, each in both orders: the benchmark's stratified
    stream and support.py's values."""
    pairs = list(itertools.islice(inputs.extnum_pairs(random.Random("reference/1")), 6000))
    rng = random.Random(9103)
    pairs += [(support.rand_extnum(rng), support.rand_extnum(rng)) for _ in range(4000)]
    return pairs + [(b, a) for a, b in pairs]


def test_division_matches_the_square_route():
    seen = set()
    for a, b in reference_pairs():
        got, want = _value_or_refusal(extnum.div, a, b), _value_or_refusal(ref_div, a, b)
        assert got == want, (a, b)
        seen.add(got if isinstance(got, type) else "value")
    assert seen == {"value", DivisionByNeutrix, UnrepresentableDivision}


def test_order_and_noise_match_built_references():
    seen = set()
    for a, b in reference_pairs():
        for name, ref in ORDER_REFS.items():
            got = getattr(extnum, name)(a, b)
            assert got == ref(a, b), (name, a, b)
            seen.add((name, got if isinstance(got, bool) else "value"))
        for n in (a.neutrix, b.neutrix, oslash(1), pound(-2)):
            assert extnum.scale_noise(n, a) == ref_scale_noise(n, a), (n, a)
    assert {(name, v) for name in ("lt", "gt", "le", "ge", "subset", "disjoint") for v in (True, False)} <= seen


@pytest.mark.parametrize("nx", TARGETS, ids=str)
def test_neutrix_int_and_fraction_exponents_agree(nx):
    for q in range(-4, 5):
        assert nx.absorbs(q) == nx.absorbs(Fraction(q))
        for c in (1, Fraction(-3, 2)):
            a, b = nx.scaled(c, q), nx.scaled(c, Fraction(q))
            assert a == b and hash(a) == hash(b) and type(a.q) is int and type(b.q) is int
            half = nx.scaled(c, Fraction(2 * q + 1, 2))
            assert type(half.q) is (Fraction if nx.is_mono else int)
    if nx.is_mono:
        raw = scale.Neutrix(nx.variant, nx.kind, Fraction(nx.q))
        assert raw == nx and hash(raw) == hash(nx) and type(raw.q) is int


def test_integer_powers_by_squaring_match_repeated_products():
    pairs = itertools.islice(inputs.extnum_pairs(random.Random("powers/5")), 1500)
    cases = 0
    for v in itertools.chain.from_iterable(pairs):
        for e in (2, 3, 5, 7):
            want = monomial(1)
            for _ in range(e):
                want = want * v
            assert seq._ext_pow(v, Fraction(e)) == want, (v, e)
            cases += 1
    assert cases == 12000



def floats_in(x):
    """Every float inside x: a value, series, neutrix, normal form or report."""
    if isinstance(x, float):
        return [x]
    if isinstance(x, (tuple, list)):
        return [f for item in x for f in floats_in(item)]
    if dataclasses.is_dataclass(x):
        return [f for fld in dataclasses.fields(x) for f in floats_in(getattr(x, fld.name))]
    return []


def _answers(fn, *args):
    try:
        return [fn(*args)]
    except FlexError:  # a refusal has no value to walk
        return []


def assert_no_float(*values):
    assert not floats_in(values), values


def test_no_float_in_series_normal_forms_or_keys():
    """No coefficient, exponent, power of n or geometric base is ever a float
    (int / int is one), on the benchmark's own inputs."""
    for a, b in itertools.islice(inputs.extnum_pairs(random.Random("floats/1")), 400):
        got = [r for op in (extnum.add, extnum.sub, extnum.mul, extnum.div) for r in _answers(op, a, b)]
        for x in (a, b, *got):
            assert_canonical(x.rep)
            assert is_exact(x.neutrix.q)
        assert_no_float(a, b, got)
    for cu, cv in itertools.islice(inputs.seq_questions(random.Random("floats/2")), 60):
        for u in (cu.term, cv.term):
            got = _answers(seq.normalize, u) + _answers(seq.n_limit, u)
            got += _answers(seq.limit_wrt_segment, u, seq.limited())
            assert_no_float(got)


@given(strat.externals(), strat.zeroless_externals(), strat.exponents)
def test_no_float_from_strategy_values(a, z, k):
    got = _answers(extnum.div, a, z) + [a * z, a - z]
    for x in got:
        assert_canonical(x.rep)
    base = seq.Geom(abs(k) + Fraction(1, 2))
    for u in (seq.Mul(seq.Const(a), seq.Pow(seq.N, k)),
              seq.Div(seq.Mul(seq.Const(a), base), seq.Add(seq.Const(z), seq.Pow(seq.N, -abs(k) - 1))),
              seq.Pow(seq.Mul(seq.Const(monomial(4, k)), base), Fraction(1, 2))):
        got += _answers(seq.normalize, u) + _answers(seq.n_limit, u)
    assert_no_float(got)
