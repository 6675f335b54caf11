import itertools
import os
import random
import sys
from fractions import Fraction

import pytest

import support
from flexnum import dsl, seq
from flexnum.errors import HypothesisUnverified, Unnormalizable, ZerolessRequired
from flexnum.extnum import from_neutrix, le, monomial, sub
from flexnum.scale import MICRO, OSLASH, POUND, ZERO, oslash, pound
from flexnum.seq import (
    ALT,
    Add,
    Const,
    Div,
    Geom,
    Mul,
    N,
    Pow,
    eval_at,
    eventually_bounded,
    eventually_le,
    eventually_subset,
    limit_arith,
    minimal_convergence_neutrix,
    n_converges,
    n_limit,
    neutrix_seq,
    normalize,
    prediction_consistent,
    reindex,
    squeeze,
)

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
sys.path.insert(0, os.path.abspath(PERFBENCH))

import inputs  # noqa: E402

one = monomial(1)
u_term = Add(Div(Const(one), N), Const(from_neutrix(OSLASH)))  # 1/n + o
v_term = Add(Div(Const(one), Pow(N, 2)), Const(from_neutrix(pound(1))))  # 1/n^2 + e*L
w_term = Const(monomial(1, -2) + from_neutrix(pound(-1)))  # w^2 + w*L


class TestNLimit:
    def test_classic_infinitesimal_tail(self):
        r = n_limit(u_term)
        assert r.converges and r.limit == from_neutrix(OSLASH)
        assert r.minimal_neutrix == OSLASH and r.strong

    def test_alternating(self):
        r = n_limit(ALT)
        assert r.converges and r.limit == from_neutrix(POUND)
        assert r.minimal_neutrix == POUND and r.strong
        assert minimal_convergence_neutrix(ALT) == POUND

    def test_noise_over_n(self):
        r = n_limit(neutrix_seq(OSLASH, Div(Const(one), N)))
        assert r.converges and r.limit == monomial(0)
        assert r.minimal_neutrix == ZERO
        assert not r.strong

    def test_divergence(self):
        assert not n_limit(N).converges
        assert not n_limit(Geom(Fraction(3, 2))).converges
        assert not n_limit(Mul(ALT, N)).converges
        assert not n_limit(neutrix_seq(OSLASH, N)).converges

    def test_precise_limits(self):
        r = n_limit(Add(Const(monomial(5)), Div(Const(one), N)))
        assert r.converges and r.limit == monomial(5)
        assert r.minimal_neutrix == ZERO and not r.strong
        rc = n_limit(Const(monomial(5)))
        assert rc.strong  # constants sit inside their own limit

    def test_product_examples(self):
        r = n_limit(Mul(u_term, v_term))
        assert r.limit == from_neutrix(oslash(1)) and r.minimal_neutrix == oslash(1)
        r2 = n_limit(Mul(u_term, w_term))
        assert r2.limit == from_neutrix(oslash(-2))
        r3 = n_limit(Mul(w_term, w_term))
        assert r3.limit == monomial(1, -4) + from_neutrix(pound(-3))

    def test_geometric_with_scale(self):
        r = n_limit(Mul(Const(monomial(1, 2)), Geom(Fraction(1, 2))))
        assert r.converges and r.limit == monomial(0) and r.minimal_neutrix == ZERO


class TestNConverges:
    def test_alternating_levels(self):
        assert n_converges(ALT, monomial(0), POUND)
        assert not n_converges(ALT, monomial(0), OSLASH)
        assert n_converges(ALT, monomial(1), POUND)  # limits are unique mod L only

    def test_non_uniqueness_below_the_neutrix(self):
        delta = monomial(1, 3)
        assert n_converges(u_term, delta, OSLASH)
        assert n_converges(u_term, from_neutrix(OSLASH), OSLASH)

    def test_monotone_in_neutrix(self):
        rng = random.Random(21)
        chain = [ZERO, MICRO, pound(1), OSLASH, POUND]
        for t in support.convergent_corpus(30, 77):
            report = n_limit(t)
            for i, small in enumerate(chain):
                for big in chain[i:]:
                    if n_converges(t, report.limit, small):
                        assert n_converges(t, report.limit, big)

    def test_components(self):
        # Convergence of rep and noise parts separately matches the whole.
        t = Add(Div(Const(one), N), Const(monomial(2) + from_neutrix(pound(2))))
        r = n_limit(t)
        assert r.limit == monomial(2) + from_neutrix(pound(2))
        rep_part = Add(Div(Const(one), N), Const(monomial(2)))
        noise_part = Const(from_neutrix(pound(2)))
        assert n_limit(rep_part).limit == monomial(2)
        assert n_limit(noise_part).limit == from_neutrix(pound(2))


class TestInvariants:
    def test_subsequence_stability(self):
        # Every N-convergence claim survives an arithmetic reindexing.  The
        # minimal report can legitimately tighten (an even reindex turns
        # (-1)^n into a constant), so the claim, not the report, transfers.
        rng = random.Random(31)
        for t in support.convergent_corpus(25, 31):
            base = n_limit(t)
            for (k, j) in ((2, 0), (2, 1), (3, 2)):
                shifted = reindex(t, k, j)
                assert n_converges(shifted, base.limit, base.minimal_neutrix), (t, k, j)
                report = n_limit(shifted)
                assert report.minimal_neutrix <= base.minimal_neutrix

    def test_parity_free_reindex_keeps_report(self):
        rng = random.Random(41)
        for t in support.convergent_corpus(25, 41):
            nf = normalize(t)
            if any(key[3] for key, _ in nf.point) or any(b != 1 for (_, b), _ in nf.noise) or any(
                key[2] != 1 for key, _ in nf.point
            ):
                continue  # parity/geometric structure may tighten
            base = n_limit(t)
            shifted = n_limit(reindex(t, 3, 1))
            assert shifted.limit == base.limit
            assert shifted.minimal_neutrix == base.minimal_neutrix

    def test_limits_mod_n(self):
        for t in support.convergent_corpus(25, 32):
            r = n_limit(t)
            nx = r.minimal_neutrix
            alpha = r.limit
            beta = alpha + monomial(1, nx.q + 1) if nx.is_mono else alpha
            if n_converges(t, beta, nx):
                assert le(abs(sub(alpha, beta)), from_neutrix(nx))

    def test_limit_neutrix_inside_convergence_neutrix(self):
        for t in support.convergent_corpus(25, 33):
            r = n_limit(t)
            assert r.limit.neutrix <= r.minimal_neutrix

    def test_valid_limits_are_subsets_of_the_enlarged_limit(self):
        # gamma is an N-limit exactly when it sits inside limit + N.
        for t in support.convergent_corpus(25, 39):
            r = n_limit(t)
            nx = r.minimal_neutrix
            enlarged = r.limit + from_neutrix(nx)
            inside = r.limit + monomial(1, nx.q + 1) if nx.is_mono else r.limit
            assert n_converges(t, inside, nx)
            if nx.is_mono:
                outside = r.limit + monomial(1, nx.q - 2)
                assert not n_converges(t, outside, nx)
            assert n_converges(t, enlarged, nx)

    def test_neglect_invariance(self):
        for t in support.convergent_corpus(20, 34):
            r = n_limit(t)
            nx = r.minimal_neutrix
            if nx.is_zero:
                continue
            smaller = MICRO if nx.is_mono else ZERO
            t2 = Add(t, Const(from_neutrix(smaller)))
            assert n_converges(t2, r.limit, nx) == n_converges(t, r.limit, nx)

    def test_absolute_value_preserves_convergence(self):
        # |u| for u = c/n + noise via the even/odd reindex trick is out of
        # grammar; check on sign-definite corpus terms directly.
        for t in support.convergent_corpus(20, 35):
            r = n_limit(t)
            # The absolute value of the limit is the limit of a sign-flipped
            # tail; emulate |u| by negating when the limit is negative.
            flip = r.limit.is_zeroless and r.limit.rep.leading()[0] < 0
            t_abs = Mul(Const(monomial(-1)), t) if flip else t
            r_abs = n_limit(t_abs)
            assert r_abs.limit == abs(r.limit)

    def test_sign_persistence(self):
        t = Add(Const(monomial(2) + from_neutrix(OSLASH)), Div(Const(one), N))
        r = n_limit(t)
        nx = r.minimal_neutrix
        assert le(from_neutrix(nx), r.limit + from_neutrix(nx))

    def test_monotone_comparison(self):
        a = Div(Const(one), N)
        b = Add(Div(Const(one), N), Const(monomial(1)))
        assert eventually_le(a, b)
        assert le(n_limit(a).limit, n_limit(b).limit)

    def test_bounded_times_null(self):
        # u -> 0 with N = Zero, v bounded by a precise alpha: u*v -> 0 (alpha*N = Zero).
        u = Div(Const(one), N)
        v = Mul(ALT, Const(monomial(3)))
        prod = Mul(u, v)
        r = n_limit(prod)
        assert r.converges and r.limit == monomial(0) and r.minimal_neutrix == ZERO

    def test_strong_iff_nonzero_neutrix_on_corpus(self):
        for t in support.convergent_corpus(40, 36):
            r = n_limit(t)
            if not r.minimal_neutrix.is_zero:
                assert r.strong

    def test_strong_is_eventual_containment_in_the_limit(self):
        rng = random.Random(80)
        verdicts = []
        for _ in range(300):
            t = support.rand_term(rng, convergent=True)
            try:
                r = n_limit(t)
            except Unnormalizable:
                continue
            if r.converges:
                assert r.strong == eventually_subset(t, Const(r.limit)), t
                verdicts.append(r.strong)
        assert len(verdicts) >= 250 and len(set(verdicts)) == 2

    def test_minimal_neutrix_is_sharp_in_the_oracle(self, conc):
        # Sampled trajectories stay inside the concretized limit but escape
        # any interval one full e-power smaller: the reported neutrix is not
        # an overestimate.
        checked = 0
        for i, t in enumerate(support.convergent_corpus(40, 38, require_noise=True)):
            r = n_limit(t)
            verdict = support.sharpness_oracle(t, r.limit, r.minimal_neutrix, conc, stream=i)
            assert verdict != support.DISAGREE, (t, r.minimal_neutrix)
            checked += verdict == support.AGREE
        assert checked >= 30


class TestLimitArith:
    def test_product_prediction_examples(self):
        pred = limit_arith("mul", n_limit(u_term), n_limit(w_term))
        assert pred.minimal_neutrix == oslash(-2)
        assert prediction_consistent(pred, n_limit(Mul(u_term, w_term)))
        predww = limit_arith("mul", n_limit(w_term), n_limit(w_term))
        assert predww.limit == monomial(1, -4) + from_neutrix(pound(-3))
        assert prediction_consistent(predww, n_limit(Mul(w_term, w_term)))

    def test_recip(self):
        pred = limit_arith("recip", n_limit(Const(one + from_neutrix(OSLASH))))
        assert pred.limit == one + from_neutrix(OSLASH)
        with pytest.raises(ZerolessRequired):
            limit_arith("recip", n_limit(Const(from_neutrix(OSLASH))))

    def test_sum_difference(self):
        ra, rb = n_limit(u_term), n_limit(v_term)
        pred = limit_arith("add", ra, rb)
        assert prediction_consistent(pred, n_limit(Add(u_term, v_term)))
        pred2 = limit_arith("sub", ra, rb)
        combined = Add(u_term, Mul(Const(monomial(-1)), v_term))
        assert prediction_consistent(pred2, n_limit(combined))

    def test_oscillation_cancellation_is_consistent_not_equal(self):
        # (-1)^n - (-1)^n converges precisely to 0; the predicted L is an
        # upper bound the theorems allow, not the minimal neutrix.
        pred = limit_arith("sub", n_limit(ALT), n_limit(ALT))
        combined = Add(ALT, Mul(Const(monomial(-1)), ALT))
        actual = n_limit(combined)
        assert actual.minimal_neutrix == ZERO
        assert pred.minimal_neutrix == POUND
        assert prediction_consistent(pred, actual)


class TestSqueezeAndBounds:
    def test_classical_squeeze(self):
        assert squeeze(
            Div(Const(monomial(-1)), N), Div(ALT, N), Div(Const(one), N), monomial(0), ZERO, ZERO
        )

    def test_flexible_squeeze(self):
        o_t = Const(from_neutrix(OSLASH))
        v = Add(o_t, Div(Const(one), Mul(Const(monomial(2)), N)))
        w = Add(o_t, Div(Const(one), N))
        assert squeeze(o_t, v, w, from_neutrix(OSLASH), OSLASH, OSLASH)

    def test_mismatched_limits_rejected(self):
        with pytest.raises(HypothesisUnverified):
            squeeze(
                Div(Const(monomial(-1)), N),
                Div(ALT, N),
                Div(Const(one), N),
                monomial(1),
                ZERO,
                ZERO,
            )

    def test_unordered_rejected(self):
        with pytest.raises(HypothesisUnverified):
            squeeze(Div(Const(one), N), Div(Const(monomial(-1)), N), Div(Const(one), N), monomial(0), ZERO, ZERO)

    def test_eventually_bounded(self):
        bound = eventually_bounded(u_term)
        assert bound is not None
        for n in (10, 100, 1000):
            assert le(abs(eval_at(u_term, n)), bound)
        assert eventually_bounded(Pow(N, 2)) is None
        assert eventually_bounded(Mul(ALT, Geom(Fraction(1, 2)))) is not None

    def test_every_convergent_term_eventually_bounded(self):
        for t in support.convergent_corpus(30, 37):
            assert eventually_bounded(t) is not None


def _reindexed_route(u, v):
    """u <= v decided on the subsequences n -> 2n and n -> 2n+1, where
    (-1)^n is a constant: the route order questions took before they split
    parity on the normal form.  None when a subsequence leaves the fragment."""
    halves = [(reindex(u, 2, j), reindex(v, 2, j)) for j in (0, 1)]
    try:
        for a, b in halves:
            normalize(a), normalize(b)
    except Unnormalizable:
        return None
    return all(eventually_le(a, b) for a, b in halves)


class TestParity:
    @pytest.mark.parametrize("u, v, want", [
        ("-1/n", "(-1)^n/n", True),
        ("(-1)^n/n", "1/n", True),
        ("1/n", "(-1)^n/n", False),  # fails on the odd indices only
        ("(-1)^n", "1", True),
        ("(-1)^n", "1/2", False),
        ("2*(-1)^n + 1", "3", True),
        ("(-1)^n/n + 1/n^2", "1/n", False),  # fails on the even indices only
        ("(-1)^n + o", "1 + o", True),
        ("(-1)^n*(1/2)^n", "(1/3)^n", False),
        # On the even indices v - u = 1/(2n^2) - 1/n^2 + ...: the remainder
        # bound of the quotient is as large as the leading difference.
        ("(-1)^n/(1 + 1/n)", "(-1)^n*(1 - 1/n) + 1/(2*n^2)", False),
        # Both were refused when n -> 2n+1 was normalized: the remainders of
        # two quotients by 2n+1 do not cancel, and 2^(1/2) is irrational.
        ("1/n", "(-1)^n/n + 2/n", True),
        ("(-1)^n*n^(1/2)", "n^(1/2)", True),
    ])
    def test_each_parity_decides(self, u, v, want):
        assert eventually_le(dsl.parse_seq(u), dsl.parse_seq(v)) is want

    def test_no_remainder_bearing_subsequence(self):
        # v_n > 1 >= (-1)^n.  Normalizing n -> 2n+1 divides by the reindexed
        # 1 + 1/n, which carries a remainder bound, so that route refused.
        u = dsl.parse_seq("(-1)^n")
        for v in ("1 + 1/n/(1 + 1/n)", "1 + (1/2)^n/(1 + 1/n)"):
            assert _reindexed_route(u, dsl.parse_seq(v)) is None
            assert eventually_le(u, dsl.parse_seq(v))

    def test_parity_rule_covers_the_reindexed_route(self):
        rng = random.Random(5)
        drawn = [
            (support.rand_term(rng, rng.random() < 0.7), support.rand_term(rng, rng.random() < 0.7))
            for _ in range(150)
        ] + [(cu.term, cv.term) for cu, cv in itertools.islice(inputs.seq_questions(random.Random(9)), 150)]
        alternating = 0
        for u, v in drawn:
            for a, b in ((u, v), (v, u)):
                if _reindexed_route(a, b):
                    assert eventually_le(a, b), (a, b)
                    alternating += any(key[3] for key, _ in normalize(a).point + normalize(b).point)
        assert alternating > 30
