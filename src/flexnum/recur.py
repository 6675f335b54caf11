"""Flexible recurrence relations and near-stability classification.

A flexible recurrence u_{n+1} = f(n, u_n, a_1, ..., a_k) has an internal
(precise) right-hand side with external-number parameters.  Its solution is
the envelope of internal representative paths: at every step each parameter
is drawn *fresh* from its set (an internal choice function per occurrence),
which is what makes powers of the infinitesimal neutrix come out as the
family L*exp(-n*oo) rather than a fixed monomial.

Stability verdicts are honest about semi-decidability: only the affine
analysis yields Proven; sampling can merely falsify, and otherwise reports
Unknown with coverage statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import scale
from .concretize import Concretization
from .errors import ContractionRequired, NumericOverflow
from .extnum import ExternalNumber, from_neutrix, monomial, sub
from .extnum import div as ext_div
from .extnum import lt as ext_lt
from .scale import Neutrix
from .seq import AltSign, Add, Const, Div, Geom, Index, Mul, Pow, Term, Var, fold

_OVERFLOW = 1e300
# A sampled difference escapes when it leaves this multiple of the noise radius.
_ESCAPE_FACTOR = 4.0


@dataclass(frozen=True)
class RecurrenceSpec:
    """u_{n+1} = f(n, u_n, parameters); parameters are the Const leaves of f.

    ``n0`` is the first index; ``u0`` the external initial value at n0.
    """

    f: Term
    u0: ExternalNumber
    horizon: int
    n0: int = 0

    def parameters(self) -> List[ExternalNumber]:
        return _compile(self.f)[1]


@dataclass(frozen=True)
class RepresentativePath:
    """One internal path: values t_{n0..n0+H} and the parameter draws used."""

    start: int
    values: np.ndarray
    draws: Tuple[np.ndarray, ...]  # one (H,) array per parameter occurrence


def _compile(f: Term) -> Tuple[Callable, List[ExternalNumber]]:
    """Compile f into fn(n, u, draws) -> value, plus its Const leaves in fold order.

    ``draws[i]`` is the value drawn for the i-th leaf returned; evaluation
    broadcasts over numpy arrays so many paths advance in one call.
    """
    params: List[ExternalNumber] = []

    def const(c):
        i = len(params)
        params.append(c.value)
        return lambda n, u, draws: draws[i]

    def var(v):
        if v.name != "u":
            raise TypeError(f"unknown variable {v!r} in a recurrence")
        return lambda n, u, draws: u

    def geom(g):
        b = float(g.base)
        return lambda n, u, draws: b ** n

    def power(p, a):
        k = float(p.exponent)
        return lambda n, u, draws: a(n, u, draws) ** k

    fn = fold(f, {
        Const: const,
        Var: var,
        Index: lambda _: lambda n, u, draws: n,
        AltSign: lambda _: lambda n, u, draws: float((-1) ** (n % 2)),
        Geom: geom,
        Add: lambda _, a, b: lambda n, u, draws: a(n, u, draws) + b(n, u, draws),
        Mul: lambda _, a, b: lambda n, u, draws: a(n, u, draws) * b(n, u, draws),
        Div: lambda _, a, b: lambda n, u, draws: a(n, u, draws) / b(n, u, draws),
        Pow: power,
    })
    return fn, params


def _whole(node, *_):
    return [node]


_SUMMANDS = {cls: _whole for cls in (Const, Var, Index, AltSign, Geom, Mul, Div, Pow)}
_SUMMANDS[Add] = lambda _, a, b: a + b


def _summands(f: Term) -> List[Term]:
    """The top-level summands of f, left to right; [f] when f is not a sum."""
    return fold(f, _SUMMANDS)


def sample_paths(
    spec: RecurrenceSpec,
    conc: Concretization,
    count: int,
    seed: int,
    compensated: bool = False,
) -> List[RepresentativePath]:
    """Sample ``count`` representative paths, reproducibly for a given seed.

    Each path draws u0 and then, at every step, one representative per
    parameter occurrence.  ``compensated`` switches the step to a Neumaier
    sum over the top-level additive terms of f, which keeps n^-2a corrections
    meaningful over long horizons.
    """
    if count < 1:
        raise ValueError("need at least one path")
    rng = np.random.default_rng([conc.seed, seed])
    h = spec.horizon
    values = np.empty((h + 1, count), dtype=float)
    values[0] = conc.sample(spec.u0, rng, size=count)

    if compensated:
        compiled = [_compile(t) for t in _summands(spec.f)]
        # Each summand reads its own slice of the draws, in leaf order.
        params: List[ExternalNumber] = []
        spans = []
        for _, leaves in compiled:
            spans.append((len(params), len(params) + len(leaves)))
            params += leaves

        def step(n, u, draws):
            total = np.zeros_like(u)
            err = np.zeros_like(u)
            for (fn, _), (lo, hi) in zip(compiled, spans):
                x = fn(n, u, draws[lo:hi])
                # Neumaier: accumulate the rounding of each addition.
                t = total + x
                big = np.where(np.abs(total) >= np.abs(x), total, x)
                small = np.where(np.abs(total) >= np.abs(x), x, total)
                err += (big - t) + small
                total = t
            return total + err

    else:
        step, params = _compile(spec.f)

    draw_log = [np.empty((h, count), dtype=float) for _ in params]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(h):
            n = spec.n0 + i
            # Fresh draws per step and per occurrence; precise parameters
            # sample to their exact value without consuming randomness.
            draws = [conc.sample(p, rng, size=count) for p in params]
            for j, d in enumerate(draws):
                draw_log[j][i] = d
            nxt = step(n, values[i], draws)
            if not np.all(np.isfinite(nxt)) or np.any(np.abs(nxt) > _OVERFLOW):
                raise NumericOverflow(f"path left double range at step n={n}")
            values[i + 1] = nxt

    return [
        RepresentativePath(
            spec.n0,
            values[:, j].copy(),
            tuple(d[:, j].copy() for d in draw_log),
        )
        for j in range(count)
    ]


# ---------------------------------------------------------------------------
# The oslash power family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OslashPow:
    """Symbolic descriptor of the n-th power of the infinitesimal neutrix.

    Not a monomial of the scale: the set is L*exp(-n*oo), recognized by the
    membership test |x|^(1/n) infinitesimal.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("powers start at 1")

    def contains(self, x: float, conc: Concretization) -> bool:
        if x == 0.0:
            return True
        return self.contains_log(math.log(abs(x)), conc)

    def contains_log(self, log_abs_x: float, conc: Concretization) -> bool:
        """Membership via logs, safe against float underflow of the product."""
        return log_abs_x / self.n <= math.log(conc.radius(scale.OSLASH))

    def __mul__(self, other: "OslashPow") -> "OslashPow":
        return OslashPow(self.n + other.n)

    def __str__(self):
        return f"o^{self.n}"


def oslash_power(n: int) -> OslashPow:
    return OslashPow(n)


# ---------------------------------------------------------------------------
# Affine analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineCertificate:
    """Decay certificate for u_{n+1} = alpha*u_n + N with |alpha| < 1.

    Per-path witnesses q in |alpha| and c in N give the stepwise bound
    |t_n| <= (|t_0| + c/(1-q)) q^n + c/(1-q); the limit neutrix of the
    differences is N/(1-|alpha|), which equals N because 1-|alpha| is
    appreciable.
    """

    alpha: ExternalNumber
    noise: Neutrix
    q: float
    c: float
    limit_neutrix: Neutrix

    def envelope(self, n, t0_abs: float):
        geo = self.c / (1.0 - self.q) if self.c else 0.0
        return (t0_abs + geo) * self.q ** np.asarray(n, dtype=float) + geo


def affine_closed_form(
    alpha: ExternalNumber,
    noise: Neutrix,
    u0: ExternalNumber,
    conc: Concretization,
) -> AffineCertificate:
    """Certificate for the contraction case; ContractionRequired otherwise."""
    if noise.is_full:
        raise ValueError("full-line noise is out of scope")
    one = monomial(1)
    if not ext_lt(abs(alpha), one):
        raise ContractionRequired(f"|{alpha}| < 1 fails")
    gap = sub(one, abs(alpha))
    if not gap.is_zeroless:
        raise ContractionRequired(f"1 - |{alpha}| is not zeroless")
    limit_neutrix = ext_div(from_neutrix(noise), gap).neutrix
    if limit_neutrix != noise:
        raise AssertionError("appreciable contraction must preserve the noise level")
    q = conc.center(abs(alpha)) + conc.radius(alpha.neutrix)
    if not (0.0 <= q < 1.0):
        raise ContractionRequired(f"concretized contraction factor {q} is not below 1")
    c = conc.radius(noise)
    return AffineCertificate(alpha, noise, q, c, limit_neutrix)


def affine_spec(alpha: ExternalNumber, noise: Neutrix, u0: ExternalNumber,
                horizon: int, n0: int = 0) -> RecurrenceSpec:
    """The recurrence u_{n+1} = alpha*u_n + noise as a term."""
    f: Term = Mul(Const(alpha), Var("u"))
    if not noise.is_zero:
        f = Add(f, Const(from_neutrix(noise)))
    return RecurrenceSpec(f, u0, horizon, n0)


def _match_affine(f: Term) -> Optional[Tuple[ExternalNumber, Neutrix]]:
    """Recognize alpha*u + N (in any order); None for anything else."""
    alpha = None
    noise = scale.ZERO
    for p in _summands(f):
        if p == Var("u"):
            if alpha is not None:
                return None
            alpha = monomial(1)
        elif isinstance(p, Mul):
            a, b = p.left, p.right
            if isinstance(a, Const) and b == Var("u"):
                cand = a.value
            elif isinstance(b, Const) and a == Var("u"):
                cand = b.value
            else:
                return None
            if alpha is not None:
                return None
            alpha = cand
        elif isinstance(p, Const):
            if not p.value.rep.is_zero:
                return None
            noise = noise + p.value.neutrix
        else:
            return None
    if alpha is None:
        return None
    return alpha, noise


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


class Flag(Enum):
    PROVEN = "proven"
    FALSIFIED = "falsified"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class StabilityVerdict:
    stable: Flag
    asymptotically_stable: Flag
    strongly_asymptotically_stable: Flag
    evidence: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "stable": self.stable.value,
            "asymptotically_stable": self.asymptotically_stable.value,
            "strongly_asymptotically_stable": self.strongly_asymptotically_stable.value,
            "evidence": {k: _json_value(v) for k, v in self.evidence.items()},
        }

    @property
    def falsified_any(self) -> bool:
        return Flag.FALSIFIED in (
            self.stable,
            self.asymptotically_stable,
            self.strongly_asymptotically_stable,
        )


def _json_value(v):
    """An evidence value as JSON: numbers stay numbers, sequences become lists."""
    if isinstance(v, (ExternalNumber, Neutrix)):
        return str(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (tuple, list)):
        return [_json_value(x) for x in v]
    return v


def reference_path(spec: RecurrenceSpec, conc: Concretization) -> np.ndarray:
    """The deterministic center path: every draw replaced by its center value."""
    fn, params = _compile(spec.f)
    centers = [np.array([conc.center(p)]) for p in params]
    vals = np.empty(spec.horizon + 1)
    vals[0] = conc.center(spec.u0)
    u = np.array([vals[0]])
    for i in range(spec.horizon):
        u = fn(spec.n0 + i, u, centers)
        if not np.all(np.isfinite(u)):
            raise NumericOverflow("reference path overflowed")
        vals[i + 1] = u[0]
    return vals


def classify_stability(
    spec: RecurrenceSpec,
    reference: ExternalNumber,
    noise: Neutrix,
    conc: Concretization,
    samples: int = 200,
    seed: int = 1,
) -> StabilityVerdict:
    """Stability of the reference solution modulo the neutrix ``noise``.

    Affine right-hand sides are decided analytically; everything else is
    attacked by sampled falsification (perturb, run, watch the difference),
    which can never return Proven.
    """
    match = _match_affine(spec.f)
    if match is not None and reference.rep.is_zero and reference.neutrix.is_zero:
        alpha, fnoise = match
        return _classify_affine(alpha, fnoise, noise, spec, conc)
    return _classify_sampled(spec, reference, noise, conc, samples, seed)


def _classify_affine(
    alpha: ExternalNumber,
    fnoise: Neutrix,
    noise: Neutrix,
    spec: RecurrenceSpec,
    conc: Concretization,
) -> StabilityVerdict:
    one = monomial(1)
    evidence: Dict[str, object] = {"route": "affine analysis", "alpha": alpha, "f_noise": fnoise}
    if ext_lt(abs(alpha), one):
        cert = affine_closed_form(alpha, fnoise, spec.u0, conc)
        evidence.update(q=cert.q, c=cert.c, limit_neutrix=cert.limit_neutrix)
        # Differences obey d_{n+1} = a_n d_n + (b_n - b'_n) with b - b' in the
        # f-noise; the decay bound keeps them inside a limited multiple of
        # max(d_0-scale, f-noise), a group absorbs limited factors, and their
        # limit neutrix is fnoise/(1-|alpha|) = fnoise.
        if fnoise <= noise:
            st = asym = Flag.PROVEN
        else:
            st = asym = Flag.FALSIFIED
            evidence["escape"] = f"step noise {fnoise} already exceeds {noise}"
        if noise.is_zero:
            # Strong convergence to {0} means the difference is eventually
            # exactly zero, which only the zero map achieves.
            zero_map = not alpha.is_zeroless and alpha.neutrix.is_zero and fnoise.is_zero
            strong = Flag.PROVEN if zero_map else Flag.FALSIFIED
            if strong is Flag.FALSIFIED:
                evidence["strong"] = "a nonzero difference never reaches exactly 0"
        else:
            strong = asym
        return StabilityVerdict(st, asym, strong, evidence)
    if alpha.is_zeroless and ext_lt(one, abs(alpha)):
        # Expansion: construct the escaping difference explicitly.
        q = conc.center(abs(alpha)) - conc.radius(alpha.neutrix)
        r = conc.radius(noise) if not noise.is_zero else conc.eps0
        d0 = r if not noise.is_zero else conc.eps0
        path = [d0]
        while abs(path[-1]) <= 10.0 * r + 1.0 and len(path) < 10_000:
            path.append(path[-1] * q)
        evidence.update(
            route="affine analysis (expansion)",
            q=q,
            escaping_path=np.asarray(path),
        )
        return StabilityVerdict(Flag.FALSIFIED, Flag.FALSIFIED, Flag.FALSIFIED, evidence)
    evidence["route"] = "affine analysis inconclusive (|alpha| touches 1)"
    return StabilityVerdict(Flag.UNKNOWN, Flag.UNKNOWN, Flag.UNKNOWN, evidence)


def _classify_sampled(
    spec: RecurrenceSpec,
    reference: ExternalNumber,
    noise: Neutrix,
    conc: Concretization,
    samples: int,
    seed: int,
) -> StabilityVerdict:
    ref = reference_path(
        RecurrenceSpec(spec.f, reference, spec.horizon, spec.n0), conc
    )
    r_noise = conc.radius(noise) if not noise.is_zero else 0.0
    evidence: Dict[str, object] = {
        "route": "sampled falsification",
        "samples": samples,
        "horizon": spec.horizon,
    }
    rng = np.random.default_rng([conc.seed, seed, 7])
    fn, params = _compile(spec.f)

    def run_difference(d0: np.ndarray) -> np.ndarray:
        u = ref[0] + d0
        out = np.empty((spec.horizon + 1, d0.size))
        out[0] = u - ref[0]
        for i in range(spec.horizon):
            draws = [conc.sample(p, rng, size=d0.size) for p in params]
            u = fn(spec.n0 + i, u, draws)
            if not np.all(np.isfinite(u)):
                raise NumericOverflow("perturbed path overflowed")
            out[i + 1] = u - ref[i + 1]
        return out

    # Stability: perturbations inside the noise interval must stay inside an
    # appreciable multiple of it.
    within = conc.sample_neutrix(noise, rng, size=samples) if not noise.is_zero else np.zeros(samples)
    diffs = run_difference(within)
    escape = np.abs(diffs).max(axis=0) > max(r_noise, 1e-300) * _ESCAPE_FACTOR
    if noise.is_zero:
        escape = np.abs(diffs).max(axis=0) > 0.0
    stable = Flag.FALSIFIED if bool(escape.any()) else Flag.UNKNOWN
    if stable is Flag.FALSIFIED:
        j = int(np.argmax(escape))
        evidence["stability_counterexample_d0"] = float(within[j])

    # Asymptotic stability: for every admissible tolerance scale above the
    # noise, some sampled perturbation below it must settle into the noise
    # interval; if at every scale the difference fails to enter and remain,
    # the property is falsified.
    lo = max(r_noise * 4.0, conc.eps0 ** 12)
    grid = np.geomspace(lo, 0.5, num=8)
    tail = max(1, spec.horizon // 4)
    all_scales_fail = True
    per_scale = []
    for s in grid:
        d0 = np.full(16, s * 0.5)
        d = run_difference(d0)
        tail_ok = (np.abs(d[-tail:]) <= max(r_noise, 1e-300)).all(axis=0)
        enters = tail_ok.any()
        per_scale.append((float(s), bool(enters)))
        if enters:
            all_scales_fail = False
    evidence["tolerance_scales"] = per_scale
    asym = Flag.FALSIFIED if all_scales_fail else Flag.UNKNOWN
    strong = asym if not noise.is_zero else (
        Flag.FALSIFIED if all_scales_fail else Flag.UNKNOWN
    )
    return StabilityVerdict(stable, asym, strong, evidence)
