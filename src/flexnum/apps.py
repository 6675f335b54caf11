"""Shadow expansions and slow-curve matching.

Two quantitative applications of the convergence calculus:

- A constructive shadow-expansion builder: given a standard coefficient
  prefix (a_0..a_K), the partial sums s_n = sum a_k e^k form a Cauchy family
  modulo the microhalo on the limited indices, and b = s_K + M realizes the
  expansion: ((b - s_n) / e^(n+1)) sits inside a_{n+1} + o at every level.
  Divergent coefficient sequences are the point; only the prefix matters.

- Matching for the singularly perturbed equation eps * dy/dt = f(t, y) with
  an attractive slow curve y = 0: a solution that approaches the curve
  enters its halo and then the eps-tube, and stays (strong convergence),
  checked here on a fixed-step RK4 trajectory against concretized radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from . import scale
from .concretize import Concretization
from .errors import IndexBeyondPrefix, NotAttractive, StepUnstable
from .extnum import ExternalNumber, FormalSeries, from_neutrix, monomial, subset
from .scale import Neutrix
from .seq import Segment, limited

Coeffs = Sequence[Union[int, Fraction]]

# Draws from b's noise in the numeric half of shadow_check.
_SHADOW_SAMPLES = 16


@dataclass(frozen=True)
class ShadowExpansion:
    """A standard coefficient prefix and its exact partial sums."""

    coeffs: Tuple[Fraction, ...]

    @staticmethod
    def of(coeffs: Coeffs) -> "ShadowExpansion":
        return ShadowExpansion(tuple(Fraction(c) for c in coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def partial_sum(self, n: int) -> FormalSeries:
        if n > self.order:
            raise IndexBeyondPrefix(f"prefix stores orders 0..{self.order}")
        return FormalSeries.from_terms((c, k) for k, c in enumerate(self.coeffs[: n + 1]))


@dataclass(frozen=True)
class CauchyCertificate:
    """Witness that the partial sums are Cauchy modulo the microhalo.

    ``pair_bounds`` records, for each m < n, the neutrix L*e^(m+1) that
    contains s_n - s_m; the segment is the limited indices.
    """

    segment: Segment
    noise: Neutrix
    pair_bounds: Tuple[Tuple[int, int, Neutrix], ...]


@dataclass(frozen=True)
class ShadowNumber:
    value: ExternalNumber
    expansion: ShadowExpansion
    certificate: CauchyCertificate


def borel_ritt(coeffs: Coeffs, order: Optional[int] = None) -> ShadowNumber:
    """Construct a number whose e-shadow expansion starts with ``coeffs``.

    Records the pairwise bound |s_n - s_m| inside L*e^(min(m,n)+1) for the
    whole prefix and returns b = s_K + M (the truncation blurred by the
    microhalo, which is invisible to every level of the expansion).
    """
    exp = ShadowExpansion.of(coeffs)
    k = exp.order if order is None else order
    if k < 1 or k > exp.order:
        raise IndexBeyondPrefix(f"order must lie in 1..{exp.order}")
    # s_n - s_m is the sum of a_j e^j over m < j <= n, and L*e^(m+1) absorbs
    # e^j for every j >= m + 1: every pair holds, whatever the coefficients.
    bounds = tuple((m, n, scale.pound(m + 1)) for m in range(k + 1) for n in range(m + 1, k + 1))
    value = ExternalNumber(exp.partial_sum(k), scale.MICRO)
    cert = CauchyCertificate(limited(), scale.MICRO, bounds)
    return ShadowNumber(value, exp, cert)


def shadow_check(
    b: ExternalNumber,
    coeffs: Coeffs,
    n: int,
    conc: Concretization,
    numeric_offset: float = 0.0,
) -> bool:
    """Level-n shadow test: (b - s_n) / e^(n+1) must sit inside a_{n+1} + o.

    Runs both the exact symbolic containment and a sampled numeric version at
    conc.eps0 (``numeric_offset`` perturbs the samples, e.g. by a microhalo
    element); both must agree for True.
    """
    exp = ShadowExpansion.of(coeffs)
    if n + 1 > exp.order:
        raise IndexBeyondPrefix(f"level {n} needs coefficient a_{n + 1}")
    s_n = exp.partial_sum(n)
    target = monomial(exp.coeffs[n + 1]) + from_neutrix(scale.OSLASH)

    shifted = ExternalNumber(
        (b.rep - s_n).scaled(1, -(n + 1)), b.neutrix.scaled(1, -(n + 1))
    )
    symbolic = subset(shifted, target)

    # Numeric cross-check, assembled as (sample(b) - s_n)/e^(n+1) but with the
    # series difference cancelled exactly so float subtraction of the large
    # leading sums cannot swamp the quotient.  Like every oracle assertion it
    # only binds away from the model's buffer: a symbolically infinitesimal
    # remainder with a huge coefficient (say 10^6 * e) can land outside the
    # finite o-interval, and such boundary levels are left to the exact test.
    center = shifted.rep.eval(conc.eps0) - float(exp.coeffs[n + 1])
    threshold = conc.radius(scale.OSLASH)
    noise_scale = (conc.radius(b.neutrix) + abs(numeric_offset)) / conc.eps0 ** (n + 1)
    boundary = abs(center) > threshold / 4.0 or noise_scale > threshold / 4.0
    if symbolic and boundary:
        # The model's microhalo sits at a fixed power of eps0 and stops being
        # invisible once n + 1 approaches micro_exp; likewise a huge next
        # coefficient outgrows the o-interval.  Exactness rules these levels.
        return True
    rng = conc.rng(stream=9000 + n)
    noise = conc.sample_neutrix(b.neutrix, rng, size=_SHADOW_SAMPLES) + numeric_offset
    quotients = center + noise / conc.eps0 ** (n + 1)
    numeric = bool(np.all(np.abs(quotients) <= threshold))
    return symbolic and numeric


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlowCurveProblem:
    """eps0 * dy/dt = f(t, y) near the attractive slow curve y = 0.

    ``attract_width`` is the half-width of the band where the sign conditions
    (f < 0 above the curve, f > 0 below) are sampled and required.  The
    sign and singular-point probes call f on arrays of their points; where f
    does not give a float array for them, they call it at floats point by
    point, and a call that raises gives nan.  The RK4 steps call f at floats.
    """

    f: Callable[[float, float], float]
    eps0: float
    y0: float
    t_max: float
    dt: float
    attract_width: float = 1.0


@dataclass(frozen=True)
class MatchResult:
    ts: np.ndarray
    ys: np.ndarray
    t_enter_halo: Optional[float]
    t_enter_eps_tube: Optional[float]
    halo_radius: float
    tube_radius: float
    t_singular: Optional[float]
    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (
            self.t_enter_halo is not None
            and self.t_enter_eps_tube is not None
            and not self.violations
        )

    def region(self, i: int) -> str:
        y = abs(self.ys[i])
        if y <= self.tube_radius:
            return "eps_tube"
        if y <= self.halo_radius:
            return "halo"
        return "fast"

    def rows(self):
        for i, (t, y) in enumerate(zip(self.ts, self.ys)):
            yield t, y, self.region(i)


def _field_array(f: Callable, t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """f(t, y) at arrays of one shape, as a float64 array of that shape.

    One array call of f gives it where f gives such an array.  Otherwise f is
    called at floats point by point, and a call that raises gives nan, as an
    array call gives at a pole.
    """
    with np.errstate(all="ignore"):
        try:
            out = f(t, y)
            if isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == t.shape:
                return out
        except Exception:  # f is not array-capable
            pass
        return np.array([_field_float(f, float(a), float(b)) for a, b in zip(t.flat, y.flat)]).reshape(t.shape)


def _field_float(f: Callable, t: float, y: float) -> float:
    try:
        return float(f(t, y))
    except Exception:
        return math.nan


def _check_attractive(p: SlowCurveProblem, halo_radius: float) -> None:
    """Sample the sign pattern of f on the attraction band; NotAttractive on failure."""
    ts = np.linspace(0.0, p.t_max, 13)
    ys = np.geomspace(max(halo_radius * 2, 1e-12), p.attract_width, 9)
    tt, yy = np.meshgrid(ts, ys, indexing="ij")
    # A pole of f gives inf or nan here, which fails the test; the run itself
    # calls f at floats and reports the pole.
    bad = ~((_field_array(p.f, tt, yy) < 0) & (_field_array(p.f, tt, -yy) > 0))
    if bad.any():
        t, y = tt[bad][0], yy[bad][0]  # the first in row-major order
        raise NotAttractive(
            f"sign condition fails at (t={t:.4g}, |y|={y:.4g}): "
            "trajectories do not approach the slow curve"
        )


def _singular_step(f: Callable, ts: np.ndarray, fd: float, slope_sign: float) -> int:
    """The first index of ``ts`` where the sign of f(t, fd) - f(t, 0) is not
    ``slope_sign``, or len(ts): where the slow curve stops being attractive.

    One array call of f per probe height gives every sign, with a float call
    per point where f is not array-capable (see :func:`_field_array`).  A pole
    gives inf or nan there where a float call of f raises, so a point that is
    not finite is evaluated again by float calls, which raise at a pole.
    """
    with np.errstate(all="ignore"):
        diff = _field_array(f, ts, np.full_like(ts, fd)) - _field_array(f, ts, np.zeros_like(ts))
    for i in np.flatnonzero((np.copysign(1.0, diff) != slope_sign) | ~np.isfinite(diff)):
        t = float(ts[i])
        if math.isfinite(diff[i]) or math.copysign(1.0, f(t, fd) - f(t, 0.0)) != slope_sign:
            return int(i)
    return len(ts)


def match_simulate(p: SlowCurveProblem, conc: Optional[Concretization] = None) -> MatchResult:
    """Integrate the fast equation and locate halo / eps-tube entry times.

    The halo radius is the concretized infinitesimal threshold, the tube
    radius is eps0 times the limited threshold.  After tube entry (and before
    any detected singular point of the slow curve) the trajectory must stay
    inside the tube, else a violation is recorded.

    The step loop is RK4 alone.  The attraction check and the singular-point
    probe each call f once per probe height, on an array of all their
    points, and fall back to a float call per point where f is not
    array-capable; there a call that raises gives nan.
    """
    if conc is None:
        conc = Concretization(eps0=min(p.eps0, 1e-2))
    for name, x in (("eps0", p.eps0), ("dt", p.dt), ("t_max", p.t_max), ("attract_width", p.attract_width)):
        if not x > 0:
            raise ValueError(f"{name} must be positive, got {x}")
    for name, x in (("eps0", p.eps0), ("y0", p.y0), ("t_max", p.t_max), ("attract_width", p.attract_width)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
    if p.dt > p.eps0 / 10.0:
        raise StepUnstable(f"dt={p.dt} too coarse; need dt <= eps0/10 = {p.eps0 / 10:.3g}")
    halo_radius = p.eps0 ** float(conc.delta)
    # The eps-tube is eps0 times the limited threshold: eps0 * eps0^(-delta).
    tube_radius = p.eps0 ** (1.0 - float(conc.delta))
    _check_attractive(p, halo_radius)
    if abs(p.y0) <= halo_radius:
        raise NotAttractive("initial point already inside the halo; nothing to match")

    f, eps0, dt = p.f, p.eps0, p.dt
    half, sixth = dt / 2, dt / 6.0
    steps = int(math.ceil(p.t_max / dt))
    ts = np.arange(steps + 1) * dt
    ys = np.empty(steps + 1)
    ys[0] = y = p.y0
    fd = 1e-4  # finite-difference probe for the attractivity of the curve
    slope_sign = math.copysign(1.0, f(0.0, fd) - f(0.0, 0.0))
    for i in range(1, steps + 1):
        t = (i - 1) * dt
        k1 = f(t, y) / eps0
        k2 = f(t + half, y + dt * k1 / 2) / eps0
        k3 = f(t + half, y + dt * k2 / 2) / eps0
        k4 = f(t + dt, y + dt * k3) / eps0
        y = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        ys[i] = y

    sing = 1 + _singular_step(f, ts[1:], fd, slope_sign)
    t_sing = float(ts[sing]) if sing <= steps else None
    inside = np.abs(ys[1:])
    halo = np.flatnonzero(inside <= halo_radius)
    tube = np.flatnonzero(inside <= tube_radius)
    t_halo = float(ts[1 + halo[0]]) if halo.size else None
    t_tube = None
    violations: Tuple[str, ...] = ()
    if tube.size:
        k = 1 + int(tube[0])
        t_tube = float(ts[k])
        # After entry and before the singular point, every step outside the tube.
        left = k + 1 + np.flatnonzero(np.abs(ys[k + 1:sing]) > tube_radius)
        violations = tuple(f"left the eps-tube at t={float(ts[j]):.6g} after entering at {t_tube:.6g}"
                           for j in left)
    return MatchResult(ts, ys, t_halo, t_tube, halo_radius, tube_radius, t_sing, violations)
