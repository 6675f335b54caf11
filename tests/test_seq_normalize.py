import random
from fractions import Fraction

import pytest

import support
from flexnum import seq
from flexnum.errors import EvalDomain, Unnormalizable
from flexnum.extnum import from_neutrix, monomial
from flexnum.scale import MICRO, OSLASH, POUND, oslash, pound
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

    def test_quotient_reports_its_denominator_first(self):
        num = Pow(Const(from_neutrix(OSLASH)), Fraction(-1))  # 1/o: not zeroless
        den = Pow(N, Fraction(1, 2))  # sqrt(2) at n=2
        with pytest.raises(EvalDomain, match="irrational"):
            eval_at(Div(num, den), 2)
        with pytest.raises(EvalDomain, match="non-zeroless"):
            eval_at(Div(num, den), 4)


def test_deep_terms_fold_past_the_recursion_limit():
    deep = N
    for _ in range(3000):
        deep = Add(deep, N)
    expected = NormalForm(point=(((Fraction(0), Fraction(1), Fraction(1), False), Fraction(6002)),))
    assert normalize(reindex(deep, 2)) == expected


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
            assert nf.eval_at(n) == eval_at(t, n)

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
            nf.eval_at(5)

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
                assert nf.eval_at(n) == direct, (t, n)
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
