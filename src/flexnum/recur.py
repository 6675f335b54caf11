"""Flexible recurrence relations and near-stability classification.

A flexible recurrence u_{n+1} = f(n, u_n, a_1, ..., a_k) has an internal
(precise) right-hand side with external-number parameters.  Its solution is
the envelope of internal representative paths: at every step each parameter
is drawn *fresh* from its set (an internal choice function per occurrence),
which is what makes powers of the infinitesimal neutrix come out as the
family L*exp(-n*oo) rather than a fixed monomial.

Every path (sampled, reference or perturbed) advances through one step
loop, :func:`_run`, with one overflow rule: a step is refused unless every
value has magnitude at most 1e300, and the refusal says whether the step
left the reals (nan) or double range.  A run draws all its steps as one
block; the stability check batches its ten runs as columns of one run: the
reference path first, then the stability run and eight tolerance-scale runs.

Stability verdicts are honest about semi-decidability: only the affine
analysis yields Proven; sampling can merely falsify, and otherwise reports
Unknown with coverage statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import scale
from .concretize import Concretization
from .errors import ContractionRequired, FlexError, NumericOverflow
from .extnum import ExternalNumber, from_neutrix, monomial, sub
from .extnum import div as ext_div
from .extnum import lt as ext_lt
from .scale import Neutrix
from .seq import AltSign, Add, Const, Div, Geom, Index, Mul, Pow, Term, Var, compile_float, fold

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
        params: List[ExternalNumber] = []
        _compile(self.f, params)
        return params


@dataclass(frozen=True)
class RepresentativePath:
    """One internal path: values t_{n0..n0+H} and the parameter draws used."""

    start: int
    values: np.ndarray
    draws: Tuple[np.ndarray, ...]  # one (H,) array per parameter occurrence


def _compile(f: Term, params: List[ExternalNumber]) -> Callable:
    """Compile f into fn(n, u, draws) -> value, appending its Const leaves to
    ``params`` in fold order.

    ``draws[i]`` is the value drawn for ``params[i]``; evaluation broadcasts
    over numpy arrays so many paths advance in one call.
    """

    def const(c):
        i = len(params)
        params.append(c.value)
        return lambda n, u, draws=None: draws[i]

    return compile_float(f, const, {"u": 1})


def _whole(node, *_):
    return [node]


_SUMMANDS = {cls: _whole for cls in (Const, Var, Index, AltSign, Geom, Mul, Div, Pow)}
_SUMMANDS[Add] = lambda _, a, b: a + b


def _summands(f: Term) -> List[Term]:
    """The top-level summands of f, left to right; [f] when f is not a sum."""
    return fold(f, _SUMMANDS)


def _run(step: Callable, values: np.ndarray, n0: int, centers: List[float], noisy: List[int],
         blocks: Callable, groups: Sequence[Tuple[str, slice]]) -> None:
    """Fill rows 1.. of ``values`` from row 0: row i+1 is step(n, row i, draws)
    with n = n0 + i; precise parameters draw their centers, and parameter
    ``noisy[k]`` draws row k of ``blocks(i)``.

    A step is refused unless every value has magnitude at most ``_OVERFLOW``,
    a test that inf and nan fail too; a step holding a nan left the reals
    rather than double range, and says so.  ``groups`` are named runs batched
    as columns, in the order they would go in turn: only the first stops the
    loop, and the first group with a bad step is refused, at its first bad
    step.  A float ``OverflowError`` in a step (``b ** n`` of a geometric
    leaf) is the same in every column, and is refused as the first group's.
    """
    draws = [np.full(values.shape[1], c, dtype=float) for c in centers]
    first = values[:, groups[0][1]]
    with np.errstate(all="ignore"):
        for i in range(len(values) - 1):
            for j, row in zip(noisy, blocks(i)):
                draws[j] = row
            try:
                values[i + 1] = step(n0 + i, values[i], draws)
            except OverflowError:
                raise NumericOverflow(f"{groups[0][0]} left double range at step n={n0 + i}") from None
            if not (np.abs(first[i + 1]) <= _OVERFLOW).all():
                break  # the first group is named here; the rows past it stay unset
        ok = np.abs(values[1:]) <= _OVERFLOW
    for what, cols in groups:
        bad = ~ok[:, cols].all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            why = "is not a number" if np.isnan(values[i + 1, cols]).any() else "left double range"
            raise NumericOverflow(f"{what} {why} at step n={n0 + i}")


@dataclass(frozen=True, eq=False)
class PathSet:
    """Paths as columns: ``values`` (H+1, count) and one (H, count) draw array
    per parameter occurrence.  Indexing and iteration give path views."""

    start: int
    values: np.ndarray
    draws: Tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return self.values.shape[1]

    def __getitem__(self, j: int) -> RepresentativePath:
        return RepresentativePath(self.start, self.values[:, j], tuple(d[:, j] for d in self.draws))


def sample_paths(
    spec: RecurrenceSpec,
    conc: Concretization,
    count: int,
    seed: int,
    compensated: bool = False,
) -> PathSet:
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

    params: List[ExternalNumber] = []
    if compensated:
        # The summands share one parameter list, so each reads its own draws.
        summands = [_compile(t, params) for t in _summands(spec.f)]

        def step(n, u, draws):
            # Neumaier: err accumulates the rounding of each addition.  The
            # first summand is exact: its error is 0, or nan if it is inf or nan.
            x = summands[0](n, u, draws)
            total, err = x + 0.0, x - x
            for fn in summands[1:]:
                x = fn(n, u, draws)
                t = total + x
                err += np.where(np.abs(total) >= np.abs(x), (total - t) + x, (x - t) + total)
                total = t
            return total + err

    else:
        step = _compile(spec.f, params)

    # Fresh draws per step and per occurrence, all steps in one block.
    centers, noisy, draw = conc.drawer(params)
    block = draw(rng, h, count)
    _run(step, values, spec.n0, centers, noisy, block.__getitem__, [("path", slice(None))])
    draws = [block[:, noisy.index(j)] if j in noisy else np.broadcast_to(c, (h, count))
             for j, c in enumerate(centers)]
    return PathSet(spec.n0, values, tuple(draws))


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


def affine_closed_form(alpha: ExternalNumber, noise: Neutrix, conc: Concretization) -> AffineCertificate:
    """Certificate for the contraction case; ContractionRequired otherwise."""
    if noise.is_full:
        raise ValueError("full-line noise is out of scope")
    one = monomial(1)
    if not ext_lt(abs(alpha), one):
        raise ContractionRequired(f"|{alpha}| < 1 fails")
    # |alpha| < 1 makes 1 - |alpha| zeroless.
    gap = sub(one, abs(alpha))
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
    params: List[ExternalNumber] = []
    fn = _compile(spec.f, params)
    values = np.empty((spec.horizon + 1, 1))
    values[0] = conc.center(spec.u0)
    _run(fn, values, spec.n0, [conc.center(p) for p in params], [], lambda i: (),
         [("reference path", slice(None))])
    return values[:, 0]


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
        cert = affine_closed_form(alpha, fnoise, conc)
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
        path = [r]
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
    evidence: Dict[str, object] = {
        "route": "sampled falsification",
        "samples": samples,
        "horizon": spec.horizon,
    }
    rng = np.random.default_rng([conc.seed, seed, 7])
    params: List[ExternalNumber] = []
    fn = _compile(spec.f, params)
    h = spec.horizon
    # Column 0 is the reference path, every parameter at its center; then the
    # stability run's columns and 16 per tolerance scale, drawn in turn.  The
    # scales' eight (h, k, 16) blocks are one stream, held as (h, k, 128).
    diffs = np.empty((h + 1, 1 + samples + 128))
    diffs[0, 0] = conc.center(reference)
    try:
        r_noise = conc.radius(noise)
        centers, noisy, draw = conc.drawer(params)
        k = len(noisy)
        within = conc.sample_neutrix(noise, rng, size=samples)
        stab = draw(rng, h, samples)
        scales = draw(rng, 8 * h, 16).reshape(8, h, k, 16).transpose(1, 2, 0, 3).reshape(h, k, 128)
    except FlexError:
        # The reference path's own refusal comes first, as when it ran alone.
        reference_path(RecurrenceSpec(spec.f, reference, h, spec.n0), conc)
        raise
    at_center = np.array(centers, dtype=float)[noisy, None]
    grid = np.geomspace(max(r_noise * 4.0, conc.eps0 ** 12), 0.5, num=8)
    diffs[0, 1:] = diffs[0, 0] + np.concatenate([within] + [np.full(16, s * 0.5) for s in grid])
    groups = [("reference path", slice(0, 1)), ("perturbed path", slice(1, 1 + samples))]
    groups += [("perturbed path", slice(1 + samples + 16 * g, 17 + samples + 16 * g)) for g in range(8)]
    _run(fn, diffs, spec.n0, centers, noisy, lambda i: np.concatenate((at_center, stab[i], scales[i]), axis=1),
         groups)
    ref, diffs = diffs[:, :1], diffs[:, 1:]
    diffs -= ref

    # Stability: perturbations inside the noise interval must stay inside an
    # appreciable multiple of it.
    bound = 0.0 if noise.is_zero else max(r_noise, 1e-300) * _ESCAPE_FACTOR
    escape = np.abs(diffs[:, :samples]).max(axis=0) > bound
    stable = Flag.FALSIFIED if escape.any() else Flag.UNKNOWN
    if escape.any():
        evidence["stability_counterexample_d0"] = float(within[int(np.argmax(escape))])

    # Asymptotic stability: for every admissible tolerance scale above the
    # noise, some sampled perturbation below it must settle into the noise
    # interval; if at every scale the difference fails to enter and remain,
    # the property is falsified.
    tail = max(1, h // 4)
    tail_ok = (np.abs(diffs[-tail:, samples:]) <= max(r_noise, 1e-300)).all(axis=0)
    enters = tail_ok.reshape(8, 16).any(axis=1)
    evidence["tolerance_scales"] = [(float(s), bool(e)) for s, e in zip(grid, enters)]
    asym = Flag.UNKNOWN if enters.any() else Flag.FALSIFIED
    return StabilityVerdict(stable, asym, asym, evidence)
