import dataclasses
import gc
import itertools
import os
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, reject

import strategies as strat
import support
from flexnum import dsl, seq
from flexnum.errors import EvalDomain, Unnormalizable
from flexnum.extnum import MAX_EXPANSION_ROUNDS, ExternalNumber, FormalSeries, from_neutrix, monomial
from flexnum.scale import MICRO, OSLASH, POUND, ZERO, exact, oslash, pound
from flexnum.seq import (
    ALT,
    Add,
    Const,
    Div,
    Geom,
    Mul,
    N,
    NormalForm,
    Pow,
    eval_at,
    neutrix_seq,
    normalize,
    reindex,
)

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
sys.path.insert(0, os.path.abspath(PERFBENCH))

import inputs  # noqa: E402

one = monomial(1)
u_term = Add(Div(Const(one), N), Const(from_neutrix(OSLASH)))  # 1/n + o
v_term = Add(Div(Const(one), Pow(N, 2)), Const(from_neutrix(pound(1))))  # 1/n^2 + e*L


class TestEval:
    def test_substitution(self):
        assert eval_at(u_term, 2) == monomial(Fraction(1, 2)) + from_neutrix(OSLASH)

    def test_alt_sign(self):
        assert eval_at(ALT, 7) == monomial(-1)
        assert eval_at(ALT, 10) == monomial(1)

    def test_product_fold(self):
        # At n=1 the product folds to 1 + o through external arithmetic.
        assert eval_at(Mul(v_term, u_term), 1) == one + from_neutrix(OSLASH)

    def test_eval_domain_errors(self):
        with pytest.raises(EvalDomain):
            eval_at(Div(Const(one), Const(from_neutrix(OSLASH))), 3)
        with pytest.raises(EvalDomain):
            eval_at(Pow(N, Fraction(1, 2)), 2)  # sqrt(2) has no exact form
        assert eval_at(Pow(N, Fraction(1, 2)), 4) == monomial(2)

    def test_geom(self):
        assert eval_at(Geom(Fraction(1, 2)), 3) == monomial(Fraction(1, 8))

    def test_quotient_reports_its_first_failing_operand(self):
        num = Pow(Const(from_neutrix(OSLASH)), Fraction(-1))  # 1/o: not zeroless
        den = Pow(N, Fraction(1, 2))  # sqrt(2) at n=2
        # Operands evaluate left to right: the numerator's error wins.
        with pytest.raises(EvalDomain, match="non-zeroless"):
            eval_at(Div(num, den), 2)
        with pytest.raises(EvalDomain, match="non-zeroless"):
            eval_at(Div(num, den), 4)
        with pytest.raises(EvalDomain, match="irrational"):
            eval_at(Div(Const(one), den), 2)
        with pytest.raises(EvalDomain, match="division by o at n=3"):
            eval_at(Div(N, Const(from_neutrix(OSLASH))), 3)


def _deep_sum(levels):
    deep = N
    for _ in range(levels):
        deep = Add(deep, N)
    return deep


def test_deep_terms_fold_past_the_recursion_limit():
    expected = NormalForm(point=(((Fraction(0), Fraction(1), Fraction(1), False), Fraction(6002)),))
    assert normalize(reindex(_deep_sum(3000), 2)) == expected


@pytest.mark.parametrize("build", [lambda t: t, lambda t: Mul(Const(one), t), lambda t: Div(t, Const(one))],
                         ids=["sum", "product", "quotient"])
def test_deep_terms_evaluate_past_the_recursion_limit(build):
    deep = N
    for _ in range(3000):
        deep = build(Add(deep, N))
    assert eval_at(deep, 2) == monomial(6002)


def test_order_questions_on_equal_deep_terms():
    u, v = _deep_sum(3000), _deep_sum(3000)
    assert u is not v
    assert seq.eventually_le(u, v)
    assert seq.eventually_subset(u, v)
    # Unequal deep terms are compared without recursion too, then normalized.
    assert not seq.eventually_subset(u, Add(v, N))
    assert seq.eventually_le(u, Add(v, N))


class TestNormalize:
    def test_product_normal_form(self):
        nf = normalize(Mul(u_term, v_term))
        expected = NormalForm(
            point=(((Fraction(0), Fraction(-3), Fraction(1), False), Fraction(1)),),
            noise=(
                ((Fraction(-2), Fraction(1)), oslash(0)),
                ((Fraction(-1), Fraction(1)), pound(1)),
                ((Fraction(0), Fraction(1)), oslash(1)),
            ),
        )
        assert nf == expected

    def test_constant(self):
        x = monomial(3, -1) + from_neutrix(OSLASH)
        assert normalize(Const(x)).point == (((Fraction(-1), Fraction(0), Fraction(1), False), Fraction(3)),)

    def test_cancellation(self):
        assert normalize(Div(Mul(ALT, N), N)) == normalize(ALT)

    def test_alternating_denominator_conjugation(self):
        # 1/(2 + (-1)^n) is exactly 2-periodic: 4/3 - (2/3)(-1)^n.
        t = Div(Const(one), Add(Const(monomial(2)), ALT))
        nf = normalize(t)
        assert nf.exact
        for n in range(1, 9):
            assert support.form_at(nf, n) == eval_at(t, n)

    def test_unnormalizable_denominator(self):
        with pytest.raises(Unnormalizable):
            normalize(Div(Const(one), Add(Const(one), ALT)))  # hits zero at odd n
        with pytest.raises(Unnormalizable):
            normalize(Div(Const(one), Const(from_neutrix(POUND))))

    def test_division_tail_bound(self):
        nf = normalize(Div(Const(one), Add(N, Const(one))))
        assert not nf.exact
        assert all(b == 1 and r < 0 for (_, _, r, b) in nf.tails)

    def test_division_marks_eventual_identities(self):
        # The expansion terms of (w^5 + w^2*L)/(n+3) fall inside w^2*L/n only
        # for n beyond w^3, so the form must not claim pointwise exactness.
        num = Const(monomial(1, -5) + from_neutrix(pound(-2)))
        nf = normalize(Div(num, Add(N, Const(monomial(3)))))
        assert nf.trimmed and not nf.exact
        with pytest.raises(ValueError):
            support.form_at(nf, 5)

    def test_quotient_of_tails_closes_with_one_bound_per_tail(self):
        u = dsl.parse_seq("((1/n)/(1+1/n) - (1/n - 1/n^2))/(1 + 1/n)")
        num = normalize(u.num)
        assert (num.point, num.noise, str(num)) == ((), (), "O(2*n^-3)")
        nf = normalize(u)
        assert str(nf) == "O(2*n^-4) + O(2*n^-3) + O(4*n^-5)"
        assert nf == ref_nf_div(num, normalize(u.den), MAX_EXPANSION_ROUNDS)
        assert str(seq.n_limit(u).limit) == "0"

    def test_fractional_power_of_sum_rejected(self):
        with pytest.raises(Unnormalizable):
            normalize(Pow(Add(N, Const(one)), Fraction(1, 2)))

    def test_micro_constant(self):
        nf = normalize(Const(from_neutrix(MICRO)))
        assert nf.noise == (((Fraction(0), Fraction(1)), MICRO),)


class TestAgreement:
    """Exact normal forms agree with direct evaluation pointwise."""

    def test_corpus_eval_agreement(self):
        rng = random.Random(99)
        checked = 0
        for _ in range(150):
            t = support.rand_term(rng, convergent=True)
            try:
                nf = normalize(t)
            except Unnormalizable:
                continue
            if not nf.exact:
                continue
            for n in (1, 2, 3, 7, 20):
                try:
                    direct = eval_at(t, n)
                except EvalDomain:
                    break
                assert support.form_at(nf, n) == direct, (t, n)
                checked += 1
        assert checked > 200

    def test_reindex_matches_pointwise(self):
        rng = random.Random(5)
        for _ in range(40):
            t = support.rand_term(rng, convergent=True)
            t2 = reindex(t, 2, 3)
            for n in (1, 4, 9):
                try:
                    lhs = eval_at(t2, n)
                    rhs = eval_at(t, 2 * n + 3)
                except EvalDomain:
                    continue
                assert lhs == rhs


@pytest.mark.parametrize("build, want", [
    (lambda: N * 2, Mul(N, Const(monomial(2)))),
    (lambda: N / 2, Div(N, Const(monomial(2)))),
    (lambda: N ** 2, Pow(N, Fraction(2))),
    (lambda: 2 + N, Add(Const(monomial(2)), N)),
    (lambda: 2 - N, Add(Const(monomial(2)), Mul(Const(monomial(-1)), N))),
    (lambda: 2 * N, Mul(Const(monomial(2)), N)),
    (lambda: 2 / N, Div(Const(monomial(2)), N)),
], ids=["mul", "div", "pow", "radd", "rsub", "rmul", "rdiv"])
def test_term_operators_build_the_node_they_name(build, want):
    got = build()
    assert got == want and type(got) is type(want)


def test_neutrix_seq_matches_const_product():
    t1 = neutrix_seq(OSLASH, Div(Const(one), N))
    t2 = Mul(Const(from_neutrix(OSLASH)), Div(Const(one), N))
    assert normalize(t1) == normalize(t2)


def test_normal_forms_do_not_depend_on_operand_order():
    rng = random.Random(17)
    refused = 0
    for _ in range(300):
        u = support.rand_term(rng, convergent=rng.random() < 0.5)
        v = support.rand_term(rng, convergent=rng.random() < 0.5)
        if rng.random() < 0.4:
            # A division by a sum: tails, trimmed forms and refusals.
            vanishing = Div(Const(monomial(support.rand_coeff(rng), rng.randint(0, 2))), N)
            u = Div(u, Add(Const(monomial(rng.randint(1, 4))), vanishing))
        for op in (Add, Mul):
            forms = []
            for a, b in ((u, v), (v, u)):
                try:
                    forms.append(normalize(op(a, b)))
                except Unnormalizable:
                    forms.append(Unnormalizable)
            assert forms[0] == forms[1], (op, u, v)
            refused += forms[0] is Unnormalizable
    assert refused > 0


def test_each_question_normalizes_its_terms_once(monkeypatch):
    calls = []
    real = seq.normalize
    monkeypatch.setattr(seq, "normalize", lambda t: calls.append(t) or real(t))
    seq.is_cauchy(u_term, OSLASH)
    assert len(calls) == 1
    calls.clear()
    # v - u = o is inside its own noise, so containment decides u <= v.
    assert seq.eventually_le(Div(Const(one), N), u_term)
    assert len(calls) == 2
    calls.clear()
    # -1/n <= (-1)^n/n splits parity on the two forms it holds.
    assert seq.eventually_le(Div(Const(monomial(-1)), N), Div(ALT, N))
    assert len(calls) == 2


def _answers(t):
    """str of the normal form, the limit report and the three Cauchy verdicts,
    or the refusal's type and message."""
    try:
        nf = normalize(t)
    except Unnormalizable as exc:
        return (Unnormalizable, str(exc))
    return (
        str(nf),
        seq.n_limit(t).to_dict(),
        [seq.is_cauchy(t, nx) for nx in (OSLASH, POUND, pound(1))],
    )


def test_memo_hits_answer_like_misses():
    rng = random.Random(23)
    refused = 0
    for _ in range(120):
        t = support.rand_term(rng, convergent=rng.random() < 0.5)
        if rng.random() < 0.4:
            t = Div(t, Add(Const(monomial(rng.randint(1, 4))), Div(Const(monomial(support.rand_coeff(rng), 1)), N)))
        t = dataclasses.replace(t)  # a fresh root: it keeps no form yet
        miss = _answers(t)
        assert _answers(t) == miss, t
        # Without the memo: the fold and the limit of the fresh form.
        try:
            nf = seq.fold(t, seq._NORMALIZE)
        except Unnormalizable as exc:
            assert miss == (Unnormalizable, str(exc))
            refused += 1
            continue
        assert miss[:2] == (str(nf), seq._limit(nf).to_dict())
    assert refused > 0


def test_memo_raises_a_fresh_refusal_on_every_hit():
    t = Div(Const(one), Add(Const(one), ALT))  # hits zero at odd n
    caught = []
    for _ in range(2):
        with pytest.raises(Unnormalizable) as info:
            normalize(t)
        caught.append(info.value)
    assert caught[0] is not caught[1]
    assert type(caught[0]) is type(caught[1])
    assert str(caught[0]) == str(caught[1])


def test_memo_keeps_one_form_per_term_and_frees_it_with_the_term():
    # With the cycle collector off, only reference counts free them: a report
    # that held its own form would keep both alive.
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = Add(u_term, ALT)
        assert normalize(t) is normalize(t)
        assert normalize(Add(u_term, ALT)) is not normalize(t)
        assert seq.n_limit(t) is seq.n_limit(t)
        assert "n^-1 vanishes" in seq.n_limit(t).witness
        form, report = weakref.ref(normalize(t)), weakref.ref(seq.n_limit(t))
        del t
        assert form() is None and report() is None
    finally:
        if enabled:
            gc.enable()


def _check_merges(a, b):
    """The merged sum, negation and parity maps equal _form of the
    concatenated, negated or parity-mapped parts."""
    pairs = [
        (seq._nf_add(a, b), seq._form(a.point + b.point, a.noise + b.noise, a.tails + b.tails, a.trimmed or b.trimmed)),
        (seq._nf_neg(a), seq._form(((k, -c) for k, c in a.point), a.noise, a.tails, a.trimmed)),
    ]
    for s in (1, -1):
        mapped = (((q, r, bb, False), c * s if alt else c) for (q, r, bb, alt), c in a.point)
        pairs.append((seq._on_parity(a, s), seq._form(mapped, a.noise, a.tails, a.trimmed)))
    for got, want in pairs:
        assert got == want and str(got) == str(want), (str(a), str(b))


@given(strat.seq_terms(), strat.seq_terms())
def test_merged_arithmetic_equals_the_rebuilt_form(u, v):
    try:
        a, b = normalize(u), normalize(v)
    except Unnormalizable:
        reject()
    _check_merges(a, b)
    _check_merges(a, seq._nf_neg(a))


@given(strat.externals(allow_full=True))
def test_constant_forms_are_built_canonical(x):
    want = seq._form((((q, 0, 1, False), c) for c, q in x.rep.terms), [((0, 1), x.neutrix)])
    assert seq._nf_const(Const(x)) == want


@pytest.mark.parametrize("leaf, key", [
    (N, (0, 1, 1, False)), (ALT, (0, 0, 1, True)), (Geom(1), (0, 0, 1, False)),
    (Geom(2), (0, 0, 2, False)), (Geom(Fraction(3, 2)), (0, 0, Fraction(3, 2), False)),
], ids=str)
def test_leaf_forms_are_built_canonical(leaf, key):
    got, want = seq.fold(leaf, seq._NORMALIZE), seq._form([(key, Fraction(1))])
    assert got == want and str(got) == str(want)
    assert [type(x) for x in got.point[0][0]] == [type(x) for x in key]


def test_merged_arithmetic_on_benchmark_terms():
    forms = []
    for cu, cv in itertools.islice(inputs.seq_questions(random.Random(13)), 150):
        for t in (cu.term, cv.term):
            try:
                forms.append(normalize(t))
            except Unnormalizable:
                pass
    for a, b in zip(forms, forms[1:] + forms[:1]):
        _check_merges(a, b)
        _check_merges(a, seq._nf_neg(a))


def _parity(text, s):
    return seq._on_parity(normalize(dsl.parse_seq(text)), s)


@pytest.mark.parametrize("left, right, holds", [
    # A tail inside the other operand's noise is dropped and trims the sum.
    ("1/(1 + 1/n)", "o/n", lambda nf: nf.trimmed and not nf.tails),
    ("(w^5 + w^2*L)/(n + 3)", "n", lambda nf: nf.trimmed),
    ("1/n + e*(-1)^n + 2 + e*L/n", "-1/n - e*(-1)^n - 2", lambda nf: not nf.point and nf.noise),
    # 2 and e*n lie in the other operand's L and o*n.
    ("1/n + 2 + e*n", "L + o*n", lambda nf: [k for k, _ in nf.point] == [(0, -1, 1, False)]),
])
def test_merged_sums_on_chosen_forms(left, right, holds):
    a, b = normalize(dsl.parse_seq(left)), normalize(dsl.parse_seq(right))
    _check_merges(a, b)
    _check_merges(b, a)
    assert holds(seq._nf_add(a, b)) and holds(seq._nf_add(b, a))


def test_alternating_twins_merge_on_each_parity():
    twins = "3/n + (-1)^n/n + (-1)^n*e - e + e*L/n^2"
    _check_merges(normalize(dsl.parse_seq(twins)), normalize(dsl.parse_seq("o/n^2")))
    assert str(_parity(twins, 1)) == "4*n^-1 + e*L*n^-2"
    assert str(_parity(twins, -1)) == "2*n^-1 + -2*e + e*L*n^-2"


def ref_nf_div(num, den, cap):
    """num/den by the trial expansion: every round is expanded, up to ``cap``
    rounds, and the division is refused only when that many do not close."""
    if not den.point and not den.noise:
        raise Unnormalizable("division by the zero sequence")
    if den.tails:
        raise Unnormalizable("division by a remainder-bearing denominator")
    if any(k[3] for k, _ in den.point):
        conj = seq._form(((k, (-c if k[3] else c)) for k, c in den.point), den.noise)
        return ref_nf_div(seq._nf_mul(num, conj), seq._nf_mul(den, conj), cap)
    dom = seq._dominant_point(den)
    if dom is None:
        raise Unnormalizable("denominator has no dominant precise monomial")
    (q0, r0, b0, s0), c0 = dom
    if any(k != dom[0] and not seq._size(q0, r0, b0) > seq._size(*k[:3]) for k, _ in den.point):
        raise Unnormalizable("denominator is not eventually zeroless")
    if seq._point_in_noise(q0, r0, b0, den.noise):
        raise Unnormalizable("denominator noise is not dominated: not eventually zeroless")

    def over_m0(point, noise):
        return (
            (((q - q0, r - r0, exact(Fraction(b, b0)), s != s0), c / c0) for (q, r, b, s), c in point),
            (((r - r0, exact(Fraction(b, b0))), nx.scaled(1 / c0, -q0)) for (r, b), nx in noise),
        )

    wf = seq._form(*over_m0((kv for kv in den.point if kv[0] != dom[0]), den.noise))
    basef = seq._form(
        *over_m0(num.point, num.noise),
        ((C / abs(c0), q - q0, r - r0, exact(Fraction(b, b0))) for (C, q, r, b) in num.tails),
        num.trimmed or den.trimmed,
    )
    if not wf.point and not wf.noise:
        return basef
    result = power = basef
    w_neg = seq._nf_neg(wf)
    dropped = False
    for _ in range(cap):
        power = seq._nf_mul(power, w_neg)
        point = [(k, c) for k, c in power.point if not seq._point_in_noise(*k[:3], result.noise)]
        noise = [(k, nx) for k, nx in power.noise if not seq._noise_in_noise(k, nx, result.noise)]
        tails = [t for t in power.tails if not seq._point_in_noise(*t[1:], result.noise)]
        dropped = dropped or len(point) + len(noise) + len(tails) < len(power.point) + len(power.noise) + len(power.tails)
        if not (point or noise or tails):
            return seq._form(result.point, result.noise, result.tails, True) if dropped else result
        power = seq._form(point, noise, tails)
        result = seq._nf_add(result, power)
        if not power.noise and all(seq._growth(k[1], k[2]) < 0 for k, _ in power.point):
            wC, wq, wr, wb = seq._dominant_magnitude(wf)
            bounds = [(abs(c), q, r, b) for (q, r, b, _s), c in power.point] or power.tails
            closing = ((2 * C * wC, q + wq, r + wr, b * wb) for C, q, r, b in bounds)
            return seq._form(result.point, result.noise, (*result.tails, *closing), result.trimmed or dropped)
    raise Unnormalizable("series division does not close against the result's noise")


def _division(rng, shapes=3):
    """A quotient of one of the first ``shapes`` of four shapes: that of
    test_no_float_from_strategy_values; two random grammar terms; a constant
    over 1 + c*e^step + a noise + c'/n^r with steps down to 1/40, whose
    expansions close on either side of the cap; or growing points over a
    denominator whose w has only vanishing monomials."""
    shape = rng.randrange(shapes)
    if shape == 0:
        k = support.rand_exponent(rng)
        base = Geom(abs(k) + Fraction(1, 2))
        return Div(Mul(Const(support.rand_extnum(rng)), base),
                   Add(Const(support.rand_extnum(rng, zeroless=True)), Pow(N, -abs(k) - 1)))
    if shape == 1:
        return Div(support.rand_term(rng), support.rand_term(rng))
    if shape == 3:
        num = neutrix_seq(rng.choice([ZERO, MICRO, oslash(rng.randint(-2, 2)), pound(rng.randint(-2, 2))]),
                          Geom(rng.choice([1, 2])))
        for _ in range(rng.randint(1, 3)):
            c = Const(monomial(support.rand_coeff(rng), rng.randint(-2, 2)))
            point = Mul(c, Mul(Geom(rng.choice([Fraction(3, 2), 2])), Pow(N, rng.randint(0, 2))))
            num = Add(num, Mul(ALT, point) if rng.randrange(2) else point)
        den = Const(monomial(support.rand_coeff(rng), rng.randint(-1, 1)))
        vanishing = [Pow(N, -1), Pow(N, -2), Geom(Fraction(1, 2)), Geom(Fraction(1, 3))]
        for _ in range(rng.randint(1, 3)):
            den = Add(den, Mul(Const(monomial(support.rand_coeff(rng), rng.randint(-2, 2))), rng.choice(vanishing)))
        nx = rng.choice([ZERO, MICRO, oslash(rng.randint(-2, 2)), pound(rng.randint(-2, 2))])
        return Div(num, Add(den, neutrix_seq(nx, rng.choice(vanishing))))
    step = Fraction(rng.randint(1, 6), rng.randint(1, 40))
    nx = rng.choice([ZERO, MICRO, oslash(rng.randint(1, 4)), pound(rng.randint(1, 4))])
    den = ExternalNumber(FormalSeries.from_terms([(rng.randint(1, 4), 0), (support.rand_coeff(rng), step)]), nx)
    noise = rng.choice([ZERO, oslash(Fraction(rng.randint(1, 8), 2)), pound(rng.randint(1, 3))])
    vanishing = Div(Const(monomial(support.rand_coeff(rng))), Pow(N, rng.randint(1, 2)))
    return Div(Const(support.rand_extnum(rng) + from_neutrix(noise)), Add(Const(den), vanishing))


def _outcome(fn, *args):
    """fn(*args), or the text of its refusal."""
    try:
        return fn(*args)
    except Unnormalizable as exc:
        return str(exc)


def _check_divisions(seed, shapes, cap):
    """normalize against ref_nf_div at ``cap`` on 500 quotients of ``_division``:
    the same forms and refusals, where a division that the trial never closes
    is refused by the count after round 1, not by expanding to the cap."""
    rng = random.Random(seed)
    seen = Counter()
    for _ in range(500):
        u = _division(rng, shapes)
        num, den = _outcome(normalize, u.num), _outcome(normalize, u.den)
        if isinstance(num, str) or isinstance(den, str):
            continue
        got, want = _outcome(normalize, u), _outcome(ref_nf_div, num, den, cap)
        if want == "series division does not close against the result's noise":
            want = f"series division does not close within {cap} rounds: "
            got = got[:len(want)] if isinstance(got, str) else got
        assert got == want, u
        seen["refused" if isinstance(got, str) else "form"] += 1
    return seen


def test_division_matches_the_trial_expansion():
    """Counting the rounds up front changes no answer of the expansion run to
    the same cap: the same forms, and a refusal wherever it refuses."""
    seen = _check_divisions(1, 3, MAX_EXPANSION_ROUNDS)
    assert seen["form"] > 300 and seen["refused"] > 50, seen


def test_division_matches_the_trial_expansion_at_a_low_cap(monkeypatch):
    """At a cap of 12 rounds a never-closing trial is cheap, so growing points
    over a w of vanishing monomials run against the reference as well."""
    monkeypatch.setattr(seq, "MAX_EXPANSION_ROUNDS", 12)
    seen = _check_divisions(2, 4, 12)
    assert seen["form"] > 200 and seen["refused"] > 50, seen


@pytest.mark.parametrize("text", [
    "1/(1 + e^(1/30) + 1/n)",
    "(3/2*w^3*(-1)^n)/(2 + 1/2*w^3 + 5*w^(3/2) + e^5 + M)",
    "1/(1 + e^(1/30) + e^(13/6)*L + 1/n)",
    "(2^n + n)/(3 + 1/n + (1/2)^n/n^2 + (1/3)^n)",
    "(w^3 + w*(1/2)^n/n + 2^n)/(6*e^2 + n^-2 + (1/2)^n/n)",
], ids=["no-noise", "microhalo", "65-rounds", "growing-over-vanishing", "growing-over-vanishing-e"])
def test_a_division_that_never_closes_is_refused_after_one_round(monkeypatch, text):
    u = dsl.parse_seq(text)
    num, den = normalize(u.num), normalize(u.den)
    calls = []
    real = seq._nf_mul
    monkeypatch.setattr(seq, "_nf_mul", lambda a, b: calls.append(1) or real(a, b))
    with pytest.raises(Unnormalizable):
        seq._nf_div(num, den)
    assert len(calls) <= 2
