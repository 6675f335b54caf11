"""Acceptance suite: golden facts, theorem cross-checks and the numeric oracle.

Each criterion prints one PASS/FAIL line (written straight to the terminal so
it shows under pytest's capture).  Criterion 7 replays the boolean decisions
of criteria 1-6 against the concretizer; a module-scoped fixture runs those
six once and records them in a DecisionLog, so every criterion also passes
when run alone.
"""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

import support
from flexnum import apps, seq
from flexnum.concretize import Concretization
from flexnum.errors import Unnormalizable, UnrepresentableDivision, ZerolessRequired
from flexnum.extnum import ExternalNumber, FormalSeries, from_neutrix, ge, gt, le, lt, monomial, subset
from flexnum.recur import (
    Flag,
    OslashPow,
    affine_spec,
    classify_stability,
    sample_paths,
)
from flexnum.scale import MICRO, OSLASH, POUND, ZERO, oslash, pound
from flexnum.seq import (
    ALT,
    Add,
    Const,
    Div,
    Mul,
    N,
    Pow,
    limit_arith,
    n_converges,
    n_limit,
    neutrix_seq,
    normalize,
    prediction_consistent,
)
from test_recur import drain_spec

ORACLE_EPS0S = (1e-3, 1e-5)
REPORT_LINES = []

one = monomial(1)
u_term = Add(Div(Const(one), N), Const(from_neutrix(OSLASH)))  # 1/n + o
v_term = Add(Div(Const(one), Pow(N, 2)), Const(from_neutrix(pound(1))))  # 1/n^2 + e*L
w_term = Const(monomial(1, -2) + from_neutrix(pound(-1)))  # w^2 + w*L


def report(num: int, ok: bool, text: str) -> None:
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {text}"
    REPORT_LINES.append(line)
    # Visible live under -s; the conftest summary hook replays the lines in
    # captured runs.
    print(line, file=sys.__stdout__, flush=True)


def _golden_order_facts(log):
    o = from_neutrix(OSLASH)
    L = from_neutrix(POUND)
    eps = monomial(1, 1)
    one_eL = one + from_neutrix(pound(1))
    facts = [
        log.order("gt", one_eL, o, gt(one_eL, o)),
        log.order("ge", o, L, ge(o, L)),
        not log.order("le", L, o, le(L, o)),
        log.order("le", eps, o, le(eps, o)),
        log.order("ge", eps, o, ge(eps, o)),
        log.order("le", o, L, le(o, L)),
    ]
    return all(facts), "golden order facts hold exactly as stated", facts


def _product_example(log):
    uv = Mul(u_term, v_term)
    expected_nf = seq.NormalForm(
        point=(((Fraction(0), Fraction(-3), Fraction(1), False), Fraction(1)),),
        noise=(
            ((Fraction(-2), Fraction(1)), oslash(0)),
            ((Fraction(-1), Fraction(1)), pound(1)),
            ((Fraction(0), Fraction(1)), oslash(1)),
        ),
    )
    checks = []
    checks.append(normalize(uv) == expected_nf)
    r_uv = n_limit(uv)
    checks.append(r_uv.minimal_neutrix == oslash(1))
    checks.append(log.limit(uv, monomial(0), oslash(1), n_converges(uv, monomial(0), oslash(1))))

    uw = Mul(u_term, w_term)
    r_uw = n_limit(uw)
    checks.append(r_uw.minimal_neutrix == oslash(-2))
    checks.append(log.limit(uw, monomial(0), oslash(-2), n_converges(uw, monomial(0), oslash(-2))))

    ww = Mul(w_term, w_term)
    pred = limit_arith("mul", n_limit(w_term), n_limit(w_term))
    omega4 = monomial(1, -4)
    checks.append(pred.minimal_neutrix == pound(-3))
    checks.append(pred.limit == omega4 + from_neutrix(pound(-3)))
    checks.append(prediction_consistent(pred, n_limit(ww)))

    # Representative sensitivity: a = w^2 and b = w^2 + w both represent the
    # same external number, yet a*b - a^2 = w^3 escapes w*L, so the squared
    # sequence is w*L-divergent.
    a = monomial(1, -2)
    b = monomial(1, -2) + monomial(1, -1)
    checks.append(subset(b - a, from_neutrix(pound(-1))))
    witness = b * a - a * a
    checks.append(not subset(witness, from_neutrix(pound(-1))))
    checks.append(
        not log.limit(ww, omega4, pound(-1), n_converges(ww, omega4, pound(-1)))
    )
    text = "product example: normal form, e*o / w^2*o limits, w^3*L prediction, divergence witness"
    return all(checks), text, checks


def _alternating_suite(log):
    r = n_limit(ALT)
    checks = [
        log.limit(ALT, monomial(0), POUND, n_converges(ALT, monomial(0), POUND)),
        not log.limit(ALT, monomial(0), OSLASH, n_converges(ALT, monomial(0), OSLASH)),
        r.minimal_neutrix == POUND,
    ]
    return all(checks), "(-1)^n is L-convergent, o-divergent, minimal neutrix L", checks


CORPUS_NOISY = support.convergent_corpus(220, seed=4001, require_noise=True)
CORPUS_MIXED = support.convergent_corpus(160, seed=4002)


def _strong_convergence(log):
    failures = 0
    for t in CORPUS_NOISY:
        r = n_limit(t)
        if not r.converges or r.minimal_neutrix.is_zero:
            failures += 1
            continue
        ok = n_converges(t, r.limit, r.minimal_neutrix) and r.strong
        log.limit(t, r.limit, r.minimal_neutrix, ok)
        failures += not ok
    counter = neutrix_seq(OSLASH, Div(Const(one), N))
    rc = n_limit(counter)
    counter_ok = rc.converges and rc.limit == monomial(0) and not rc.strong
    log.limit(counter, monomial(0), ZERO, rc.converges)
    text = (
        f"strong convergence: {len(CORPUS_NOISY)} noisy-limit terms tail-contained, "
        "o/n converges but not strongly"
    )
    return failures == 0 and counter_ok, text, (failures, counter_ok)


CAUCHY_LEVELS = [ZERO, MICRO, pound(1), OSLASH, POUND]


def _cauchy_equivalence(log):
    terms = CORPUS_MIXED + CORPUS_NOISY[:40] + [N, Mul(ALT, N), neutrix_seq(OSLASH, N)]
    disagreements = 0
    checked = 0
    for t in terms:
        r = n_limit(t)
        for nx in CAUCHY_LEVELS:
            # is_cauchy computes the direct tail-difference route and then
            # asserts it equals the convergence route; an AssertionError here
            # is a criterion failure.
            try:
                got = seq.is_cauchy(t, nx)
            except AssertionError:
                disagreements += 1
                continue
            checked += 1
            expected = r.converges and r.minimal_neutrix <= nx
            disagreements += got != expected
            if r.converges:
                log.limit(t, r.limit, nx, got and n_converges(t, r.limit, nx))
    text = f"Cauchy equivalence: {checked} (term, N) decisions, {disagreements} disagreements"
    return disagreements == 0, text, disagreements


def _operation_theorems(log):
    rng = random.Random(4003)
    pool = CORPUS_MIXED + CORPUS_NOISY[:60]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(500)]
    failures = 0
    recip_checked = 0
    for i, (ta, tb) in enumerate(pairs):
        ra, rb = n_limit(ta), n_limit(tb)
        for op, combined in (
            ("add", Add(ta, tb)),
            ("sub", Add(ta, Mul(Const(monomial(-1)), tb))),
            ("mul", Mul(ta, tb)),
        ):
            pred = limit_arith(op, ra, rb)
            actual = n_limit(combined)
            good = prediction_consistent(pred, actual)
            failures += not good
            if i % 25 == 0 and pred.minimal_neutrix is not None and not pred.minimal_neutrix.is_full:
                log.limit(combined, pred.limit, pred.minimal_neutrix, good)
        if ra.limit.is_zeroless:
            try:
                pred = limit_arith("recip", ra)
                actual = n_limit(Div(Const(one), ta))
            except (ZerolessRequired, Unnormalizable, UnrepresentableDivision):
                continue
            recip_checked += 1
            failures += not prediction_consistent(pred, actual)
    text = (
        f"operation theorems: 500 pairs x (add, sub, mul) + {recip_checked} reciprocals, "
        f"{failures} failures"
    )
    return failures == 0, text, failures


# Criteria 1-6 in order.  Each records its boolean decisions in the log it is
# given and returns (ok, report text, failure detail).
DECISIONS = (
    _golden_order_facts,
    _product_example,
    _alternating_suite,
    _strong_convergence,
    _cauchy_equivalence,
    _operation_theorems,
)


@pytest.fixture(scope="module")
def decided():
    """Criteria 1-6, run once per module in order, and their decision log."""
    log = support.DecisionLog()
    return log, [decide(log) for decide in DECISIONS]


def _judge(decided, num: int) -> None:
    ok, text, detail = decided[1][num - 1]
    report(num, ok, text)
    assert ok, detail


def test_criterion_1_golden_order_facts(decided):
    _judge(decided, 1)


def test_criterion_2_product_example_reproduction(decided):
    _judge(decided, 2)


def test_criterion_3_alternating_suite(decided):
    _judge(decided, 3)


def test_criterion_4_strong_convergence_theorem(decided):
    _judge(decided, 4)


def test_criterion_5_cauchy_equivalence(decided):
    _judge(decided, 5)


def test_criterion_6_operation_theorems(decided):
    _judge(decided, 6)


def test_criterion_7_oracle_consistency(decided):
    log = decided[0]
    assert log.orders and log.limits, "criteria 1-6 populate the decision log"
    disagreements = []
    checked = skipped = 0
    for eps0 in ORACLE_EPS0S:
        conc = Concretization(eps0=eps0, seed=777)
        for i, (rel, a, b, expected) in enumerate(log.orders):
            verdict = support.order_oracle(rel, a, b, expected, conc, samples=64, stream=i)
            checked += verdict == support.AGREE
            skipped += verdict == support.SKIP
            if verdict == support.DISAGREE:
                disagreements.append((eps0, rel, str(a), str(b), expected))
        for i, (term, alpha, nx, expected) in enumerate(log.limits):
            verdict = support.limit_oracle(term, alpha, nx, expected, conc, samples=64, stream=i)
            checked += verdict == support.AGREE
            skipped += verdict == support.SKIP
            if verdict == support.DISAGREE:
                disagreements.append((eps0, "limit", str(term), str(alpha), str(nx), expected))
    ok = not disagreements
    report(
        7,
        ok,
        f"oracle consistency at eps0 in {ORACLE_EPS0S}: {checked} checked, "
        f"{skipped} buffer-skipped, {len(disagreements)} disagreements",
    )
    assert ok, disagreements[:5]


def test_criterion_8_borel_ritt():
    conc = Concretization(eps0=1e-3, seed=88)
    rng = random.Random(4008)
    failures = 0
    for case in range(100):
        k = rng.randint(2, 12)
        coeffs = [
            Fraction(rng.randint(-(10 ** 6), 10 ** 6), rng.randint(1, 20)) for _ in range(k + 1)
        ]
        shadow = apps.borel_ritt(coeffs, k)
        if not all(apps.shadow_check(shadow.value, coeffs, n, conc) for n in range(k)):
            failures += 1
            continue
        offset = conc.sample_neutrix(MICRO, conc.rng(stream=case))
        if not all(
            apps.shadow_check(shadow.value, coeffs, n, conc, numeric_offset=offset)
            for n in range(k)
        ):
            failures += 1
            continue
        n0 = rng.randrange(k)
        perturbed = ExternalNumber(
            shadow.value.rep + FormalSeries.monomial(1, n0 + 1), shadow.value.neutrix
        )
        levels = [apps.shadow_check(perturbed, coeffs, n, conc) for n in range(k)]
        if not (all(levels[:n0]) and not levels[n0]):
            failures += 1
    ok = failures == 0
    report(8, ok, f"shadow expansions: 100 random prefixes (K <= 12), {failures} failures")
    assert ok


def test_criterion_9_matching():
    failures = []
    for eps0 in (1e-3, 1e-4, 1e-5):
        problem = apps.SlowCurveProblem(
            f=lambda t, y: -y, eps0=eps0, y0=1.0, t_max=40 * eps0, dt=eps0 / 20
        )
        result = apps.match_simulate(problem, Concretization(eps0=min(eps0, 1e-2)))
        t_halo = eps0 * math.log(1.0 / result.halo_radius)
        t_tube = eps0 * math.log(1.0 / result.tube_radius)
        if result.t_enter_halo is None or abs(result.t_enter_halo - t_halo) / t_halo >= 0.05:
            failures.append((eps0, "halo", result.t_enter_halo, t_halo))
        if result.t_enter_eps_tube is None or abs(result.t_enter_eps_tube - t_tube) / t_tube >= 0.05:
            failures.append((eps0, "tube", result.t_enter_eps_tube, t_tube))
        if result.violations:
            failures.append((eps0, "containment", result.violations))
        tail = result.ts >= result.t_enter_eps_tube
        if not np.all(np.abs(result.ys[tail]) <= result.tube_radius):
            failures.append((eps0, "post-entry containment"))
    ok = not failures
    report(9, ok, "matching: halo/eps-tube entry within 5% of exp(-t/eps0), contained after entry")
    assert ok, failures


def test_criterion_10_recurrence_stability():
    conc = Concretization(eps0=1e-3, seed=1010)
    failures = []

    # Affine contraction: stepwise decay bound over 10^4 sampled paths.
    alpha = monomial(Fraction(1, 2)) + from_neutrix(OSLASH)
    spec = affine_spec(alpha, pound(1), one, horizon=60)
    paths = sample_paths(spec, conc, count=10_000, seed=7)
    values = paths.values
    qs = np.abs(paths.draws[0]).max(axis=0)
    cs = np.abs(paths.draws[1]).max(axis=0)
    geo = cs / (1.0 - qs)
    steps = np.arange(values.shape[0])[:, None]
    envelope = (np.abs(values[0]) + geo)[None, :] * qs[None, :] ** steps + geo[None, :]
    if not np.all(np.abs(values) <= envelope * (1 + 1e-12)):
        failures.append("affine decay bound violated")
    verdict = classify_stability(spec, monomial(0), pound(1), conc)
    if (
        verdict.stable,
        verdict.asymptotically_stable,
        verdict.strongly_asymptotically_stable,
    ) != (Flag.PROVEN, Flag.PROVEN, Flag.PROVEN):
        failures.append(f"affine verdict not fully proven: {verdict.to_dict()}")

    # Drain example (a = 2): o-stable in sampling, not o-asymptotically stable.
    drain = drain_spec(a=2, horizon=400)
    dv = classify_stability(drain, drain.u0, OSLASH, conc, samples=1000, seed=11)
    if dv.stable is Flag.FALSIFIED:
        failures.append("drain o-stability falsified unexpectedly")
    if dv.asymptotically_stable is not Flag.FALSIFIED:
        failures.append("drain o-asymptotic stability not falsified")

    # Products of per-step infinitesimals stay in the o-power family.
    rng = conc.rng(stream=5050)
    log_hi = math.log(conc.radius(OSLASH))
    total = 0
    for n in range(1, 51):
        logs = rng.uniform(math.log(1e-12), log_hi, size=(200, n)).sum(axis=1)
        total += logs.size
        if not all(OslashPow(n).contains_log(v, conc) for v in logs):
            failures.append(f"o-power membership failed at n={n}")
            break
    if total < 10_000:
        failures.append("o-power sample count short")

    ok = not failures
    report(10, ok, "recurrences: affine bound over 10^4 paths, drain flags, o-power membership")
    assert ok, failures
