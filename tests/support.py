"""Shared corpus generators and the numeric cross-checking oracle.

The oracle is deliberately independent of the symbolic decision procedures:
order relations are evaluated by their quantifier definitions over sampled
finite subsets, and convergence claims by probing sampled trajectory values
at indices beyond the point where every vanishing part has dropped below the
target tolerance.  Assertions are gated by the concretization buffer; a
boundary case returns "skip" rather than a verdict.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from flexnum import scale, seq
from flexnum.concretize import Concretization
from flexnum.errors import EvalDomain
from flexnum.extnum import ExternalNumber, FormalSeries, from_neutrix, monomial
from flexnum.scale import Neutrix
from flexnum.seq import (
    ALT,
    Add,
    Const,
    Div,
    Geom,
    Mul,
    N,
    Pow,
    Term,
    normalize,
)

AGREE, SKIP, DISAGREE = "agree", "skip", "disagree"


# ---------------------------------------------------------------------------
# Form oracle
# ---------------------------------------------------------------------------


def form_at(nf: seq.NormalForm, n: int) -> ExternalNumber:
    """An exact normal form's value at a limited index n >= 1, summed from its
    monomials: the second evaluator that ``seq.eval_at`` is checked against.

    Noise monomials are scale-invariant under the rational factor n^r b^n,
    so each contributes its neutrix unchanged.
    """
    if not nf.exact:
        raise ValueError("this normal form only equals the term for large n")
    if n < 1:
        raise EvalDomain("normal forms are defined for n >= 1")
    series = []
    for (q, r, b, alt), c in nf.point:
        f = seq._rational_pow(Fraction(n), r)
        if f is None:
            raise EvalDomain(f"n^{r} irrational at n={n}")
        val = c * f * b ** n * ((-1) ** (n % 2) if alt else 1)
        series.append((val, q))
    noise = scale.ZERO
    for _, nx in nf.noise:
        noise = noise + nx
    return ExternalNumber(FormalSeries.from_terms(series), noise)


# ---------------------------------------------------------------------------
# Random corpus
# ---------------------------------------------------------------------------

_NEUTRIX_POOL = [scale.ZERO, scale.MICRO] + [
    kind(q) for q in range(-3, 4) for kind in (scale.oslash, scale.pound)
]


def rand_neutrix(rng: random.Random, allow_zero: bool = True) -> Neutrix:
    pool = _NEUTRIX_POOL if allow_zero else _NEUTRIX_POOL[1:]
    return rng.choice(pool)


def rand_coeff(rng: random.Random) -> Fraction:
    c = Fraction(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice((1, -1))
    return c


def rand_exponent(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.choice((1, 2)))


def rand_extnum(rng: random.Random, zeroless: Optional[bool] = None) -> ExternalNumber:
    terms = [(rand_coeff(rng), rand_exponent(rng)) for _ in range(rng.randint(0, 3))]
    value = ExternalNumber(FormalSeries.from_terms(terms), rand_neutrix(rng))
    if zeroless is True and not value.is_zeroless:
        return value + monomial(rand_coeff(rng), value.neutrix.q - 2 if value.neutrix.is_mono else -2)
    if zeroless is False and value.is_zeroless:
        return from_neutrix(value.neutrix + scale.oslash(0))
    return value


def _rand_vanishing_atom(rng: random.Random) -> Term:
    kind = rng.randrange(3)
    if kind == 0:
        r = rng.randint(1, 3)
        return Div(Const(monomial(rand_coeff(rng), rng.randint(0, 2))), Pow(N, Fraction(r)))
    if kind == 1:
        return Geom(Fraction(rng.randint(1, 3), rng.randint(4, 6)))
    return Mul(Geom(Fraction(1, 2)), Div(Const(monomial(rand_coeff(rng))), N))


def rand_term(rng: random.Random, convergent: bool = True, depth: int = 2) -> Term:
    """A random grammar term; with convergent=True only bounded atoms appear."""
    if depth <= 0:
        kind = rng.randrange(6)
        if kind == 0:
            return Const(rand_extnum(rng))
        if kind == 1:
            return _rand_vanishing_atom(rng)
        if kind == 2:
            return Mul(ALT, _rand_vanishing_atom(rng))
        if kind == 3:
            return Mul(Const(monomial(rand_coeff(rng), rand_exponent(rng))), ALT)
        if kind == 4:
            return seq.neutrix_seq(rand_neutrix(rng, allow_zero=False), _rand_vanishing_atom(rng))
        if not convergent:
            return rng.choice([Pow(N, Fraction(rng.randint(1, 2))), Geom(Fraction(3, 2))])
        return Const(rand_extnum(rng))
    op = rng.randrange(3)
    if op == 0:
        return Add(rand_term(rng, convergent, depth - 1), rand_term(rng, convergent, depth - 1))
    if op == 1:
        return Mul(rand_term(rng, convergent, depth - 1), rand_term(rng, convergent, depth - 1))
    return rand_term(rng, convergent, depth - 1)


def convergent_corpus(count: int, seed: int, require_noise: bool = False) -> List[Term]:
    """Terms whose global limit exists (and has a nonzero neutrix if asked)."""
    rng = random.Random(seed)
    out: List[Term] = []
    guard = 0
    while len(out) < count and guard < count * 200:
        guard += 1
        t = rand_term(rng, convergent=True)
        try:
            report = seq.n_limit(t)
        except Exception:
            continue
        if not report.converges:
            continue
        if require_noise and report.minimal_neutrix.is_zero:
            continue
        if report.minimal_neutrix is not None and report.minimal_neutrix.is_full:
            continue
        out.append(t)
    if len(out) < count:
        raise AssertionError(f"corpus generation starved: {len(out)}/{count}")
    return out


# ---------------------------------------------------------------------------
# Decision recording
# ---------------------------------------------------------------------------


@dataclass
class DecisionLog:
    """Boolean decisions taken by the acceptance criteria, for oracle replay."""

    orders: List[Tuple[str, ExternalNumber, ExternalNumber, bool]] = field(default_factory=list)
    neutrix_incl: List[Tuple[Neutrix, Neutrix, bool]] = field(default_factory=list)
    limits: List[Tuple[Term, ExternalNumber, Neutrix, bool]] = field(default_factory=list)

    def order(self, rel: str, a: ExternalNumber, b: ExternalNumber, got: bool) -> bool:
        self.orders.append((rel, a, b, got))
        return got

    def incl(self, a: Neutrix, b: Neutrix, got: bool) -> bool:
        self.neutrix_incl.append((a, b, got))
        return got

    def limit(self, term: Term, alpha: ExternalNumber, nx: Neutrix, got: bool) -> bool:
        self.limits.append((term, alpha, nx, got))
        return got


# ---------------------------------------------------------------------------
# Order oracle
# ---------------------------------------------------------------------------


def _interval(conc: Concretization, x: ExternalNumber) -> Tuple[float, float]:
    c = conc.center(x)
    r = conc.radius(x.neutrix)
    return c - r, c + r


def order_oracle(
    rel: str,
    a: ExternalNumber,
    b: ExternalNumber,
    expected: bool,
    conc: Concretization,
    samples: int = 64,
    stream: int = 0,
) -> str:
    """Quantifier-exhaustive evaluation of the relation over sampled subsets.

    The finite model is only faithful away from its buffer (one half-exponent
    per threshold, appreciable coefficients near 1): a decision whose witness
    falls inside the buffer is SKIPped rather than judged.  Positive claims
    riding on set containment can only be confirmed where the concretized
    intervals actually nest; a proven containment with a boundary coefficient
    (say 5*e^(1/2) inside o) is a model artifact, not a disagreement.
    """
    if a.neutrix.is_full or b.neutrix.is_full:
        return SKIP
    rng = conc.rng(stream=100_000 + stream)
    lo_a, hi_a = _interval(conc, a)
    lo_b, hi_b = _interval(conc, b)
    # The concretized sets are closed intervals, so the endpoints are members
    # and belong in any finite sample; without them every comparison of two
    # draws from the same interval is a coin flip at the tie.
    xs = np.concatenate([np.atleast_1d(conc.sample(a, rng, size=samples)), [lo_a, hi_a]])
    ys = np.concatenate([np.atleast_1d(conc.sample(b, rng, size=samples)), [lo_b, hi_b]])
    tiny = conc.eps0 ** 14

    quant = {
        "lt": bool(xs.max() < ys.min()),
        "gt": bool(xs.min() > ys.max()),
        "le": bool(xs.max() <= ys.max()),
        "ge": bool(xs.min() >= ys.min()),
        "subset": bool((xs >= lo_b - tiny).all() and (xs <= hi_b + tiny).all()),
    }[rel]
    contained = abs(conc.center(a) - conc.center(b)) + conc.radius(a.neutrix) <= conc.radius(
        b.neutrix
    ) + tiny

    if not expected:
        # A refuted relation can only look true at a model boundary.
        return AGREE if quant == expected else SKIP
    if rel in ("lt", "gt"):
        return (AGREE if quant else DISAGREE) if conc.separated(a, b) else SKIP
    if rel == "subset":
        return (AGREE if quant else DISAGREE) if contained else SKIP
    # le/ge hold through either the strict route or containment.
    from flexnum.extnum import lt as _lt

    strict = _lt(a, b) if rel == "le" else _lt(b, a)
    if strict:
        return (AGREE if quant else DISAGREE) if conc.separated(a, b) else SKIP
    return (AGREE if quant else DISAGREE) if contained else SKIP


def neutrix_incl_oracle(
    a: Neutrix, b: Neutrix, expected: bool, conc: Concretization, samples: int = 64, stream: int = 0
) -> str:
    if a.is_full or b.is_full:
        return SKIP
    rng = conc.rng(stream=200_000 + stream)
    xs = np.atleast_1d(conc.sample_neutrix(a, rng, size=samples))
    rb = conc.radius(b)
    got = bool((np.abs(xs) <= rb).all())
    if expected:
        return AGREE if got else DISAGREE
    # Refuting containment needs a sample genuinely past the other radius.
    if conc.radius(a) <= rb * 4.0:
        return SKIP
    return AGREE if not bool((np.abs(xs) <= rb * 1.0).all()) else DISAGREE


# ---------------------------------------------------------------------------
# Trajectory oracle for convergence claims
# ---------------------------------------------------------------------------


def _mag(c_abs: float, q, r, b, n: float, conc: Concretization) -> float:
    """|c| * eps0^q * n^r * b^n computed through logs (no inf*0 traps)."""
    if c_abs == 0.0 or n <= 0:
        return 0.0
    log_mag = (
        math.log(c_abs)
        + float(q) * math.log(conc.eps0)
        + float(r) * math.log(n)
        + n * math.log(float(b))
    )
    if log_mag < -745.0:
        return 0.0
    if log_mag > 709.0:
        return math.inf
    return math.exp(log_mag)


def _sample_trajectory(
    nf: seq.NormalForm, n: float, conc: Concretization, rng, samples: int
) -> np.ndarray:
    vals = np.zeros(samples)
    for (q, r, b, alt), c in nf.point:
        if alt:
            # Added by the caller via _alt_correction, once per parity.
            continue
        vals += math.copysign(_mag(abs(float(c)), q, r, b, n, conc), float(c))
    for (r, b), nx in nf.noise:
        radius = _mag(conc.radius(nx), 0, r, b, n, conc)
        if radius:
            vals += rng.uniform(-radius, radius, size=samples)
    for (C, q, r, b) in nf.tails:
        bound = _mag(float(C), q, r, b, n, conc)
        if bound:
            vals += rng.uniform(-bound, bound, size=samples)
    return vals


def _vanishing_scale(nf: seq.NormalForm, n: float, conc: Concretization) -> float:
    """Upper bound for every component that tends to 0 in the global regime."""
    total = 0.0
    for (q, r, b, alt), c in nf.point:
        if b < 1 or (b == 1 and r < 0):
            total += _mag(abs(float(c)), q, r, b, n, conc)
    for (r, b), nx in nf.noise:
        if (b < 1 or (b == 1 and r < 0)) and not nx.is_zero:
            total += _mag(conc.radius(nx), 0, r, b, n, conc)
    for (C, q, r, b) in nf.tails:
        total += _mag(float(C), q, r, b, n, conc)
    return total


def limit_oracle(
    term: Term,
    alpha: ExternalNumber,
    nx: Neutrix,
    expected: bool,
    conc: Concretization,
    samples: int = 64,
    stream: int = 0,
) -> str:
    """Sampled-trajectory check of an N-convergence claim.

    Convergence: beyond an index where all vanishing parts sit far below the
    tolerance radius, every sampled value lies in the concretized alpha + N
    interval (probed at several growing indices: enter and remain).
    Divergence: some probe shows a sampled value far outside.
    """
    if nx.is_full or alpha.neutrix.is_full:
        return SKIP
    try:
        nf = normalize(term)
    except Exception:
        return SKIP
    # Work on the deviation u_n - rep(alpha), cancelled exactly at the
    # symbolic level: float subtraction of two large centers would otherwise
    # swamp any tolerance in rounding noise.  The external distance
    # |u_n - alpha| always contains N(alpha), so the tolerance that
    # discriminates an N-convergence claim is the radius of N alone.
    points = {key: c for key, c in nf.point}
    for c, q in alpha.rep.terms:
        key = (q, Fraction(0), Fraction(1), False)
        points[key] = points.get(key, Fraction(0)) - c
    dev = seq.NormalForm(tuple(sorted(points.items())), nf.noise, nf.tails)
    tol = conc.radius(nx)
    rng = conc.rng(stream=300_000 + stream)

    # Find a probe index past which the vanishing parts are negligible; the
    # index blows up for deep scales and may saturate to inf, where every
    # vanishing magnitude evaluates to 0.
    n_star = 64.0
    while math.isfinite(n_star) and _vanishing_scale(dev, n_star, conc) > max(
        tol, conc.eps0 ** 12
    ) * 0.2:
        n_star *= 8.0
    probes = [n_star, n_star * 4, n_star * 64]

    if expected:
        slack = max(tol, conc.eps0 ** 12) * 0.25
        for n in probes:
            vals = _sample_trajectory(dev, n, conc, rng, samples)
            # Alternating point terms flip sign on odd indices: check both.
            for sign_alt in (1.0, -1.0):
                shifted = vals + _alt_correction(dev, n, conc, sign_alt)
                if not np.all(np.abs(shifted) <= tol + slack):
                    return DISAGREE
        return AGREE

    # Expected divergence from alpha + N: locate the escape magnitude and
    # gate on it exceeding the tolerance comfortably.
    escape = _escape_scale(dev, probes[0], conc, 0.0, tol)
    if escape <= 8.0 * max(tol, conc.eps0 ** 12):
        return SKIP
    for n in probes:
        vals = _sample_trajectory(dev, n, conc, rng, samples)
        for sign_alt in (1.0, -1.0):
            shifted = vals + _alt_correction(dev, n, conc, sign_alt)
            if np.any(np.abs(shifted) > tol + 0.5 * escape):
                return AGREE
    return DISAGREE


def sharpness_oracle(
    term: Term,
    alpha: ExternalNumber,
    minimal: Neutrix,
    conc: Concretization,
    samples: int = 64,
    stream: int = 0,
) -> str:
    """Sampled trajectories must escape any interval one full e-power smaller
    than the minimal convergence neutrix."""
    if minimal.is_zero or minimal.is_full or minimal.is_micro:
        return SKIP
    try:
        nf = normalize(term)
    except Exception:
        return SKIP
    points = {key: c for key, c in nf.point}
    for c, q in alpha.rep.terms:
        key = (q, Fraction(0), Fraction(1), False)
        points[key] = points.get(key, Fraction(0)) - c
    dev = seq.NormalForm(tuple(sorted(points.items())), nf.noise, nf.tails)
    shrunken = conc.radius(minimal) * conc.eps0
    rng = conc.rng(stream=400_000 + stream)
    n_star = 64.0
    while math.isfinite(n_star) and _vanishing_scale(dev, n_star, conc) > conc.radius(minimal) * 0.1:
        n_star *= 8.0
    for n in (n_star, n_star * 16):
        vals = _sample_trajectory(dev, n, conc, rng, samples)
        for sign_alt in (1.0, -1.0):
            if np.any(np.abs(vals + _alt_correction(dev, n, conc, sign_alt)) > shrunken):
                return AGREE
    return DISAGREE


def _alt_correction(nf: seq.NormalForm, n: float, conc: Concretization, sign: float) -> float:
    """Contribution of alternating point terms at the chosen parity."""
    total = 0.0
    for (q, r, b, alt), c in nf.point:
        if alt:
            total += sign * math.copysign(_mag(abs(float(c)), q, r, b, n, conc), float(c))
    return total


def _escape_scale(
    nf: seq.NormalForm, n: float, conc: Concretization, center: float, tol: float
) -> float:
    """Magnitude of the trajectory's deviation from the claimed limit at n."""
    lo = hi = -center
    for (q, r, b, alt), c in nf.point:
        mag = math.copysign(_mag(abs(float(c)), q, r, b, n, conc), float(c))
        if alt:
            lo, hi = lo - abs(mag), hi + abs(mag)
        else:
            lo, hi = lo + mag, hi + mag
    for (r, b), nx in nf.noise:
        radius = _mag(conc.radius(nx), 0, r, b, n, conc)
        lo, hi = lo - radius, hi + radius
    for (C, q, r, b) in nf.tails:
        bound = _mag(float(C), q, r, b, n, conc)
        lo, hi = lo - bound, hi + bound
    return max(abs(lo), abs(hi))
