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
from typing import Callable, List, Optional, Sequence, Tuple, Union

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
    (f < 0 above the curve, f > 0 below) are sampled and required.
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


def _check_attractive(p: SlowCurveProblem, halo_radius: float) -> None:
    """Sample the sign pattern of f on the attraction band; NotAttractive on failure."""
    ts = np.linspace(0.0, p.t_max, 13)
    ys = np.geomspace(max(halo_radius * 2, 1e-12), p.attract_width, 9)
    # At numpy scalars a pole of f gives inf or nan instead of raising; the
    # run itself calls f at floats and reports the pole.
    with np.errstate(all="ignore"):
        for t in ts:
            for y in ys:
                # Written so that a nan sample fails the test.
                if not (p.f(t, y) < 0 and p.f(t, -y) > 0):
                    raise NotAttractive(
                        f"sign condition fails at (t={t:.4g}, |y|={y:.4g}): "
                        "trajectories do not approach the slow curve"
                    )


def match_simulate(p: SlowCurveProblem, conc: Optional[Concretization] = None) -> MatchResult:
    """Integrate the fast equation and locate halo / eps-tube entry times.

    The halo radius is the concretized infinitesimal threshold, the tube
    radius is eps0 times the limited threshold.  After tube entry (and before
    any detected singular point of the slow curve) the trajectory must stay
    inside the tube, else a violation is recorded.
    """
    if conc is None:
        conc = Concretization(eps0=min(p.eps0, 1e-2))
    if p.dt > p.eps0 / 10.0:
        raise StepUnstable(f"dt={p.dt} too coarse; need dt <= eps0/10 = {p.eps0 / 10:.3g}")
    halo_radius = p.eps0 ** float(conc.delta)
    # The eps-tube is eps0 times the limited threshold: eps0 * eps0^(-delta).
    tube_radius = p.eps0 ** (1.0 - float(conc.delta))
    _check_attractive(p, halo_radius)
    if abs(p.y0) <= halo_radius:
        raise NotAttractive("initial point already inside the halo; nothing to match")

    steps = int(math.ceil(p.t_max / p.dt))
    ts = np.empty(steps + 1)
    ys = np.empty(steps + 1)
    ts[0], ys[0] = 0.0, p.y0
    t, y = 0.0, p.y0
    t_halo = None
    t_tube = None
    t_sing = None
    violations: List[str] = []
    fd = 1e-4  # finite-difference probe for the attractivity of the curve

    def rhs(tq, yq):
        return p.f(tq, yq) / p.eps0

    slope_sign = math.copysign(1.0, p.f(0.0, fd) - p.f(0.0, 0.0))
    for i in range(1, steps + 1):
        k1 = rhs(t, y)
        k2 = rhs(t + p.dt / 2, y + p.dt * k1 / 2)
        k3 = rhs(t + p.dt / 2, y + p.dt * k2 / 2)
        k4 = rhs(t + p.dt, y + p.dt * k3)
        y = y + (p.dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = i * p.dt
        ts[i], ys[i] = t, y
        if t_sing is None:
            s = math.copysign(1.0, p.f(t, fd) - p.f(t, 0.0))
            if s != slope_sign:
                t_sing = t
        if t_halo is None and abs(y) <= halo_radius:
            t_halo = t
        if t_tube is None and abs(y) <= tube_radius:
            t_tube = t
        elif t_tube is not None and t_sing is None and abs(y) > tube_radius:
            violations.append(
                f"left the eps-tube at t={t:.6g} after entering at {t_tube:.6g}"
            )
    return MatchResult(
        ts, ys, t_halo, t_tube, halo_radius, tube_radius, t_sing, tuple(violations)
    )
