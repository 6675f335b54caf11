"""Independent answer checks, one function per workload.

Each check returns a list of failure messages; an empty list means the
answer passed.  None of them repeats the route of the function it checks:
arithmetic is judged by sampling the numeric model, limits by evaluating the
term pointwise at large indices, stability by the closed decay envelope, and
refusals by what the generator planted in the input.  A documented
``FlexError`` refusal is an answer, not a failure, exactly where a check
expects it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List

import numpy as np

from flexnum import extnum, seq
from flexnum.concretize import Concretization
from flexnum.errors import (
    DivisionByNeutrix,
    FlexError,
    HypothesisUnverified,
    Unnormalizable,
    UnrepresentableDivision,
)
from flexnum.extnum import ExternalNumber
from flexnum.recur import Flag

# A fine model for arithmetic: with eps0 = 1e-14 and a 1/8 buffer, adjacent
# half-step levels of the neutrix chain differ by a factor above 3000 in
# radius, while the limited coefficients these inputs produce stay below
# MARGIN.  The microhalo sits below every power of e the inputs can reach.
ARITH_MODEL = Concretization(eps0=1e-14, delta=Fraction(1, 8), micro_exp=Fraction(21))
MARGIN = 256.0
_ULP = np.finfo(float).eps

_FLOAT_OPS = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}


def _refusal(answer) -> bool:
    return isinstance(answer, FlexError)


def _crash(name: str, answer) -> List[str]:
    """A raised exception that is not a documented refusal is always a failure."""
    if isinstance(answer, BaseException) and not isinstance(answer, FlexError):
        return [f"{name} raised {type(answer).__name__}: {answer}"]
    return []


# ---------------------------------------------------------------------------
# extnum-pairs
# ---------------------------------------------------------------------------


def _expected_div_refusal(a: ExternalNumber, b: ExternalNumber):
    """Which refusal, if any, a/b must give, read off the operands alone."""
    if not b.rep.terms:
        return DivisionByNeutrix
    exact_noise = all(n.is_zero or n.is_micro for n in (a.neutrix, b.neutrix))
    if exact_noise and a.rep.terms and len(b.rep.terms) > 1:
        # {0} or M cannot absorb the geometric tail of a multi-term inverse.
        return UnrepresentableDivision
    return None


def _sampled_containment(op: str, a, b, r, rng) -> List[str]:
    """x o y for sampled x in a, y in b must land in the concretized a o b.

    Only checked where the finite model is faithful: no full line, and no
    microhalo in a product or quotient (its fixed-power radius is not closed
    under multiplication by powers of w).
    """
    if a.neutrix.is_full or b.neutrix.is_full or r.neutrix.is_full:
        return []
    if op in ("mul", "div") and any(n.is_micro for n in (a.neutrix, b.neutrix, r.neutrix)):
        return []
    m = ARITH_MODEL
    xs = m.sample(a, rng, size=8)
    ys = m.sample(b, rng, size=8)
    with np.errstate(all="ignore"):
        zs = _FLOAT_OPS[op](xs, ys)
    c = m.center(r)
    size = np.maximum(np.abs(xs), np.abs(ys)) if op in ("add", "sub") else np.abs(zs)
    allowed = MARGIN * m.radius(r.neutrix) + 64 * _ULP * (size + abs(c))
    if not np.all(np.abs(zs - c) <= allowed):
        return [f"{op}({a}, {b}) = {r}: sampled value outside the model"]
    return []


def _resolvable(a: ExternalNumber, b: ExternalNumber) -> bool:
    """Whether doubles can tell the two intervals apart at all."""
    m = ARITH_MODEL
    ca, cb = m.center(a), m.center(b)
    return abs(cb - ca) > 1e3 * _ULP * max(abs(ca), abs(cb))


def check_extnum_pair(a: ExternalNumber, b: ExternalNumber, ans: Dict[str, object], rng) -> List[str]:
    bad: List[str] = []
    for name, value in ans.items():
        bad += _crash(name, value)
    if bad:
        return bad
    expected = _expected_div_refusal(a, b)
    got = ans["div"]
    if expected is None and _refusal(got):
        bad.append(f"div({a}, {b}) refused unexpectedly: {got}")
    elif expected is not None and not isinstance(got, expected):
        bad.append(f"div({a}, {b}) = {got}, expected {expected.__name__}")
    for rel in ("lt", "le", "gt", "ge", "subset"):
        if not isinstance(ans[rel], bool):
            bad.append(f"{rel} returned {ans[rel]!r}")
    if bad:
        return bad
    if ans["gt"] != extnum.lt(b, a):
        bad.append(f"gt({a}, {b}) != lt({b}, {a})")
    if ans["lt"] and not ans["le"]:
        bad.append(f"lt({a}, {b}) without le")
    if ans["subset"] and not (ans["le"] and ans["ge"]):
        bad.append(f"subset({a}, {b}) without le and ge")
    if ans["add"] != extnum.add(b, a):
        bad.append(f"add({a}, {b}) is not commutative")
    if ans["mul"] != extnum.mul(b, a):
        bad.append(f"mul({a}, {b}) is not commutative")
    for op in ("add", "sub", "mul", "div"):
        if not _refusal(ans[op]):
            bad += _sampled_containment(op, a, b, ans[op], rng)
    if ARITH_MODEL.separated(a, b) and _resolvable(a, b):
        # Apart by four noise radii: the model's intervals decide lt outright.
        if (_interval(a)[1] < _interval(b)[0]) != ans["lt"]:
            bad.append(f"lt({a}, {b}) = {ans['lt']} disagrees with the model intervals")
    return bad


def _interval(x: ExternalNumber):
    c, r = ARITH_MODEL.center(x), ARITH_MODEL.radius(x.neutrix)
    return c - r, c + r


# ---------------------------------------------------------------------------
# seq-questions
# ---------------------------------------------------------------------------

# Perfect squares of both parities, so n^(k/2) stays rational and (-1)^n
# takes both signs.
PROBE_INDICES = (32 ** 2, 33 ** 2, 64 ** 2, 65 ** 2)
# eps0 = 1e-4 keeps e^(1/2) terms visible next to the 1/n parts at these
# indices; the 1/8 buffer keeps half-step levels of the chain apart.
SEQ_MODEL = Concretization(eps0=1e-4, delta=Fraction(1, 8))
SEQ_MARGIN = 64.0


def _limit_probe(term: seq.Term, report: seq.LimitReport) -> List[str]:
    """u_n at large n, evaluated pointwise, must sit near the reported limit.

    The allowance is a limited multiple of the limit's neutrix and of the
    value's own neutrix, plus four times the spread between the probes, which
    bounds what the vanishing part of the term can still contribute.
    """
    m = SEQ_MODEL
    try:
        values = [seq.eval_at(term, n) for n in PROBE_INDICES]
    except FlexError:
        return []  # the term has no exact pointwise value here (irrational roots, ...)
    if any(v.neutrix.is_full for v in values) or report.limit.neutrix.is_full:
        return []
    centers = [m.center(v) for v in values]
    spread = max(centers) - min(centers)
    target = m.center(report.limit)
    dev = min(abs(c - target) for c in centers)
    radius = max(m.radius(v.neutrix) for v in values) + m.radius(report.limit.neutrix)
    allowed = SEQ_MARGIN * radius + 4.0 * spread + 1e-9 * (1.0 + abs(target))
    if not dev <= allowed:
        return [f"n_limit({term}) = {report.limit}, but u_n sits {dev:.3g} away (allowed {allowed:.3g})"]
    return []


def _prediction(op: str, ans, u, v) -> List[str]:
    pred = ans[op]
    combined = seq.Add(u, v) if op == "add" else seq.Mul(u, v)
    try:
        actual = seq.n_limit(combined)
    except Unnormalizable:
        return []
    if not seq.prediction_consistent(pred, actual):
        return [f"limit_arith {op} for {u} and {v} predicts {pred.limit}, n_limit gives {actual.limit}"]
    return []


def check_seq_question(cu, cv, ans: Dict[str, object]) -> List[str]:
    bad: List[str] = []
    for name, value in ans.items():
        bad += _crash(name, value)
    if bad:
        return bad
    u, v = cu.term, cv.term
    ru, rv = ans["n_limit_u"], ans["n_limit_v"]
    on_u = ("n_limit_u", "cauchy_o", "cauchy_L", "cauchy_eL", "segment")
    for name in on_u:
        got = ans[name]
        if _refusal(got) and not (isinstance(got, Unnormalizable) and cu.may_refuse):
            bad.append(f"{name} of {u} refused: {got!r}")
    if _refusal(rv) and not (isinstance(rv, Unnormalizable) and cv.may_refuse):
        bad.append(f"n_limit of {v} refused: {rv!r}")
    if _refusal(ru) and not all(isinstance(ans[n], Unnormalizable) for n in on_u):
        bad.append(f"{u} is refused by n_limit but answered elsewhere")
    for name in ("eventually_le", "eventually_subset"):
        if not isinstance(ans[name], bool):
            bad.append(f"{name} returned {ans[name]!r}")
    if bad or _refusal(ru) or _refusal(rv):
        return bad
    both = ru.converges and rv.converges
    for op in ("add", "mul"):
        got = ans[op]
        if both and _refusal(got):
            bad.append(f"limit_arith {op} refused convergent inputs: {got!r}")
        elif not both and not isinstance(got, HypothesisUnverified):
            bad.append(f"limit_arith {op} on a divergent input gave {got!r}")
        elif both:
            bad += _prediction(op, ans, u, v)
    if ru.converges:
        bad += _limit_probe(u, ru)
    return bad


# ---------------------------------------------------------------------------
# numeric-oracle
# ---------------------------------------------------------------------------


def _decay_envelope(case, paths, conc: Concretization) -> List[str]:
    """|t_n| <= (|t_0| + c/(1-q)) q^n + c/(1-q) for u_{n+1} = alpha*u + N.

    q bounds |alpha| on the model, c the radius of N; derived here from the
    recurrence itself, not from ``recur.affine_closed_form``.
    """
    q = abs(float(case.affine_alpha.rep.leading()[0])) + conc.radius(case.affine_alpha.neutrix)
    c = conc.radius(case.affine_noise)
    geo = c / (1.0 - q)
    values = np.stack([p.values for p in paths])  # (paths, steps)
    bound = (np.abs(values[:, :1]) + geo) * q ** np.arange(values.shape[1]) + geo
    if not np.all(np.abs(values) <= bound * (1 + 1e-9)):
        return ["an affine path leaves its decay envelope"]
    return []


def check_numeric(case, ans: Dict[str, object], conc: Concretization) -> List[str]:
    bad: List[str] = []
    for name, value in ans.items():
        bad += _crash(name, value)
        if _refusal(value):
            bad.append(f"{name} refused: {value}")
    if bad:
        return bad
    verdict = ans["classify_stability"]
    flags = (verdict.stable, verdict.asymptotically_stable, verdict.strongly_asymptotically_stable)
    if Flag.PROVEN in flags:
        bad.append("sampled stability analysis claimed a proof")
    if verdict.stable is Flag.FALSIFIED:
        bad.append("a contraction with e*L noise was reported unstable")
    bad += _decay_envelope(case, ans["sample_paths"], conc)
    shadow, levels = ans["borel_ritt"]
    want = {Fraction(k): c for k, c in enumerate(case.coeffs) if c}
    if dict((q, c) for c, q in shadow.value.rep.terms) != want or not shadow.value.neutrix.is_micro:
        bad.append(f"borel_ritt value {shadow.value} is not the partial sum plus M")
    if len(levels) != len(case.coeffs) - 1 or not all(levels):
        bad.append(f"shadow levels failed: {levels}")
    match = ans["match_simulate"]
    if match.t_enter_eps_tube is None or match.violations:
        bad.append(f"match of {case.field_text} did not settle in the tube: {match.violations}")
    else:
        after = match.ts >= match.t_enter_eps_tube
        if np.any(np.abs(match.ys[after]) > match.tube_radius):
            bad.append(f"match of {case.field_text} leaves the tube after entry")
    return bad


# ---------------------------------------------------------------------------
# cli-readme
# ---------------------------------------------------------------------------


def check_cli(command, result) -> List[str]:
    """Hand-written expected exit code and stdout for one README command."""
    code, out, err = result
    bad: List[str] = []
    if "Traceback" in err or "Traceback" in out:
        bad.append(f"{command.name}: traceback")
    if code != command.exit_code:
        bad.append(f"{command.name}: exit {code}, expected {command.exit_code}")
    problem = command.expect(out)
    if problem:
        bad.append(f"{command.name}: {problem}")
    return bad
