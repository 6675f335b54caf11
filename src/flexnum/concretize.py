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

Environment overrides: FLEX_EPS0, FLEX_DELTA, FLEX_MICRO_EXP, FLEX_SEED.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import scale
from .errors import FullNotConcretizable
from .extnum import ExternalNumber, sub
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

    @classmethod
    def from_env(cls, **overrides) -> "Concretization":
        def pick(key, cast, default):
            raw = os.environ.get(key)
            return cast(raw) if raw is not None else default

        values = dict(
            eps0=pick("FLEX_EPS0", float, cls.eps0),
            delta=pick("FLEX_DELTA", Fraction, cls.delta),
            micro_exp=pick("FLEX_MICRO_EXP", Fraction, cls.micro_exp),
            seed=pick("FLEX_SEED", int, cls.seed),
        )
        values.update(overrides)
        return cls(**values)

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
        return self.eps0 ** float(n.q + shift)

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

    def sample(self, a: ExternalNumber, rng: np.random.Generator, size=None):
        """Uniform draw(s) from the concretized interval; always satisfies contains."""
        r = self.radius(a.neutrix)
        c = self.center(a)
        if size is None:
            return c + rng.uniform(-r, r) if r else c
        base = np.full(size, c, dtype=float)
        return base + rng.uniform(-r, r, size=size) if r else base

    def sample_neutrix(self, n: Neutrix, rng: np.random.Generator, size=None):
        r = self.radius(n)
        if size is None:
            return rng.uniform(-r, r) if r else 0.0
        return rng.uniform(-r, r, size=size) if r else np.zeros(size)

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
