"""Finite numeric model of the symbolic scale.

A concretization fixes a small positive value eps0 for the scale generator
and assigns every neutrix an interval radius:

    0        -> 0
    e^q * o  -> eps0 ** (q + delta)
    e^q * L  -> eps0 ** (q - delta)
    M        -> eps0 ** micro_exp
    R        -> not concretizable

The half-exponent buffer delta keeps ``o`` strictly inside ``L`` at every
level with a quantitative gap.  A faithful finite model of the infinite
containment chain is impossible, so oracle assertions that depend on strict
separation must be gated on :func:`separated`; containment checks are
inclusive and need no gap.

:meth:`Concretization.drawer` fixes the intervals of a parameter list once and
draws all steps of a run as one block; :meth:`Concretization.sample` and
:meth:`Concretization.sample_neutrix` draw through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import scale
from .errors import FullNotConcretizable, NumericOverflow
from .extnum import ExternalNumber, from_neutrix, sub
from .scale import Neutrix

#: The two magnitudes exercised in CI so no test keys on a single eps0.
DEFAULT_EPS0S = (1e-3, 1e-5)

# How many times the combined noise radius a difference must exceed to count
# as separated.
_SEPARATION_MARGIN = 4.0


@dataclass(frozen=True)
class Concretization:
    eps0: float = 1e-3
    delta: Fraction = Fraction(1, 2)
    micro_exp: Fraction = Fraction(8)
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.eps0 <= 1e-2):
            raise ValueError("eps0 must lie in (0, 1e-2]")
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    def rng(self, stream: int = 0) -> np.random.Generator:
        """A generator owned by one test/worker; streams do not collide."""
        return np.random.default_rng([self.seed, stream])

    # -- intervals ----------------------------------------------------------

    def radius(self, n: Neutrix) -> float:
        if n.is_full:
            raise FullNotConcretizable("R has no interval model")
        if n.is_zero:
            return 0.0
        if n.is_micro:
            return self.eps0 ** float(self.micro_exp)
        shift = -self.delta if n.kind is scale.Kind.POUND else self.delta
        try:
            return self.eps0 ** float(n.q + shift)
        except OverflowError:
            raise NumericOverflow(self._too_wide(n, "radius")) from None

    def _too_wide(self, n: Neutrix, what: str) -> str:
        return f"neutrix {n} has no interval at eps0={self.eps0}: its {what} overflows a double"

    def center(self, a: ExternalNumber) -> float:
        return a.rep.eval(self.eps0)

    def contains(self, x: float, a: ExternalNumber) -> bool:
        if a.neutrix.is_full:
            return True
        c = self.center(a)
        # One rounding of c + noise can shift the stored sample by an ulp of
        # the center, which may exceed a microhalo radius; allow for it.
        slack = 8.0 * np.finfo(float).eps * max(abs(c), abs(x))
        return bool(abs(x - c) <= self.radius(a.neutrix) + slack)

    def drawer(self, params: list[ExternalNumber]):
        """``(centers, noisy, draw)`` of ``params``, each interval fixed once;
        a full-line parameter is refused.  Only the ``noisy`` ones, of nonzero
        radius, consume randomness: ``draw(rng, steps, size)`` gives (steps,
        len(noisy), size) draws, bit for bit one ``c + rng.uniform(-r, r,
        size)`` per step and noisy parameter in turn.  A span 2r past double
        range is refused, naming its neutrix, when a step is drawn."""
        centers = [self.center(a) for a in params]
        radii = [self.radius(a.neutrix) for a in params]
        noisy = [j for j, r in enumerate(radii) if r]
        # Python floats: an unbounded span is inf here, refused when drawn.
        cols = np.array([(radii[j] - -radii[j], -radii[j], centers[j]) for j in noisy], dtype=float)
        span, low, center = cols.reshape(-1, 3).T[..., None]

        def draw(rng: np.random.Generator, steps: int, size: int) -> np.ndarray:
            if steps and not np.isfinite(span).all():
                wide = noisy[int(np.argmin(np.isfinite(span[:, 0])))]
                raise NumericOverflow(self._too_wide(params[wide].neutrix, "width"))
            # uniform computes low + (high - low) * U from the same U.
            block = rng.random(size=(steps, len(noisy), size))
            block *= span
            block += low
            block += center
            return block

        return centers, noisy, draw

    def sample(self, a: ExternalNumber, rng: np.random.Generator, size: int):
        """Uniform draws from the concretized interval; always satisfies contains."""
        centers, noisy, draw = self.drawer([a])
        return draw(rng, 1, size)[0, 0] if noisy else np.full(size, centers[0], dtype=float)

    def sample_neutrix(self, n: Neutrix, rng: np.random.Generator, size=None):
        """Draws from the interval of n, through :meth:`sample`; one float
        when ``size`` is None."""
        if size is None:
            return float(self.sample(from_neutrix(n), rng, 1)[0])
        return self.sample(from_neutrix(n), rng, size)

    # -- oracle gating ------------------------------------------------------

    def separated(self, a: ExternalNumber, b: ExternalNumber) -> bool:
        """Whether a and b are far enough apart for strict order sampling.

        True when the difference is zeroless and its representative dwarfs the
        combined noise radius by ``_SEPARATION_MARGIN``.  Decisions failing
        this gate are boundary cases of the finite model and are excluded from
        strict oracle assertions.
        """
        d = sub(b, a)
        if not d.is_zeroless:
            return False
        try:
            r = self.radius(d.neutrix)
        except FullNotConcretizable:
            return False
        return abs(d.rep.eval(self.eps0)) > _SEPARATION_MARGIN * max(r, 0.0)
