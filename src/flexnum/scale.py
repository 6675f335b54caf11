"""Neutrices on a one-infinitesimal asymptotic scale.

A neutrix is a convex additive subgroup of the reals used as an
order-of-magnitude error set.  This module represents the monomial family
generated by a fixed positive infinitesimal ``e`` (with ``w = e^-1``):

====================  =========================================
``0``                 the trivial group {0}
``e^q * o``           numbers infinitesimal relative to e^q
``e^q * L``           numbers limited relative to e^q
``M``                 the microhalo, below every power of e
``R``                 the whole real line
====================  =========================================

Exponents q are exact rationals and a *larger* exponent means a *smaller*
set.  :func:`exact` gives every exponent, power of n and geometric base of
the symbolic layers its one representation: an ``int`` when integral, a
``Fraction`` otherwise.  An int hashes and compares like the Fraction of the
same value at a small part of the cost, and sums and products of ints stay
ints.  The family is totally ordered by inclusion:

    0 < M < e^q*o < e^q*L < e^p*o < e^p*L < R        (q > p)

Because a group is stable under multiplication by any nonzero limited,
non-infinitesimal real, an appreciable factor is absorbed: ``3*o == o``.
All values are immutable and hashable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

Rational = Union[int, Fraction]


def exact(x) -> Rational:
    """x as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Kind(enum.IntEnum):
    """Idempotent generator of a monomial neutrix: o (infinitesimals) or L (limiteds)."""

    OSLASH = 0
    POUND = 1


class _Variant(enum.IntEnum):
    # Order of the enum values tracks the inclusion chain for non-monomials.
    ZERO = 0
    MICRO = 1
    MONO = 2
    FULL = 3


@dataclass(frozen=True)
class Neutrix:
    """One element of the represented neutrix family.

    Use the module constants ``ZERO``, ``MICRO``, ``FULL``, ``OSLASH``,
    ``POUND`` and the constructors :func:`oslash` / :func:`pound`; the raw
    constructor is not meant to be called with inconsistent fields.  The
    exponent ``q`` is stored as :func:`exact` gives it, and the inclusion
    order key is computed once, here.
    """

    variant: _Variant
    kind: Optional[Kind] = None
    q: Rational = 0
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant is _Variant.MONO:
            if self.kind is None:
                raise ValueError("monomial neutrix needs a kind")
            q = exact(self.q)
            object.__setattr__(self, "q", q)
            object.__setattr__(self, "_key", (self.variant, -q, self.kind))
        else:
            if self.kind is not None or self.q != 0:
                raise ValueError("kind/exponent only apply to monomial neutrices")
            object.__setattr__(self, "_key", (self.variant, 0, 0))

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.variant is _Variant.ZERO

    @property
    def is_micro(self) -> bool:
        return self.variant is _Variant.MICRO

    @property
    def is_mono(self) -> bool:
        return self.variant is _Variant.MONO

    @property
    def is_full(self) -> bool:
        return self.variant is _Variant.FULL

    def absorbs(self, q: Rational) -> bool:
        """Whether a precise monomial c*e^q (c a nonzero rational) lies in this set.

        The rational coefficient is irrelevant: the group absorbs appreciable
        factors.
        """
        if self.variant is _Variant.FULL:
            return True
        if self.variant is _Variant.MONO:
            if self.kind is Kind.POUND:
                return q >= self.q
            return q > self.q
        # Zero contains no nonzero number; Micro contains no finite power of e.
        return False

    def rounds(self, q: Rational, step: Rational) -> Optional[int]:
        """The least k >= 0 with ``self.absorbs(q + k*step)``, for step > 0;
        None when no power of e is absorbed ({0} and M)."""
        if self.variant is not _Variant.MONO:
            return 0 if self.variant is _Variant.FULL else None
        bound = Fraction(self.q - q) / step
        return max(0, math.ceil(bound) if self.kind is Kind.POUND else math.floor(bound) + 1)

    # -- inclusion order ----------------------------------------------------

    def __lt__(self, other: "Neutrix") -> bool:
        return self._key < other._key

    def __le__(self, other: "Neutrix") -> bool:
        return self._key <= other._key

    def __gt__(self, other: "Neutrix") -> bool:
        return self._key > other._key

    def __ge__(self, other: "Neutrix") -> bool:
        return self._key >= other._key

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "Neutrix") -> "Neutrix":
        """Sum of neutrices: the union, i.e. the larger of the two."""
        return self if other._key <= self._key else other

    def __mul__(self, other: "Neutrix") -> "Neutrix":
        if self.is_zero or other.is_zero:
            return ZERO
        if self.is_full or other.is_full:
            return FULL
        if self.is_micro or other.is_micro:
            # e^q * (L e^oo) = L e^oo for every finite q.
            return MICRO
        kind = Kind.POUND if (self.kind is Kind.POUND and other.kind is Kind.POUND) else Kind.OSLASH
        return Neutrix(_Variant.MONO, kind, self.q + other.q)

    def scaled(self, c: Rational, q: Rational = 0) -> "Neutrix":
        """Multiply by the precise monomial c*e^q (c != 0).

        The rational factor c is absorbed; only the exponent shifts, and only
        for monomial neutrices (Zero, Micro and Full are fixed points).
        """
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        if self.variant is _Variant.MONO:
            return Neutrix(_Variant.MONO, self.kind, self.q + q)
        return self

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.is_micro:
            return "M"
        if self.is_full:
            return "R"
        letter = "L" if self.kind is Kind.POUND else "o"
        if self.q == 0:
            return letter
        return f"{power_text(self.q)}*{letter}"

    def __repr__(self) -> str:
        return f"Neutrix({self})"


ZERO = Neutrix(_Variant.ZERO)
MICRO = Neutrix(_Variant.MICRO)
FULL = Neutrix(_Variant.FULL)


def oslash(q: Rational = 0) -> Neutrix:
    """The neutrix e^q * o."""
    return Neutrix(_Variant.MONO, Kind.OSLASH, q)


def pound(q: Rational = 0) -> Neutrix:
    """The neutrix e^q * L."""
    return Neutrix(_Variant.MONO, Kind.POUND, q)


OSLASH = oslash(0)
POUND = pound(0)


def power_text(q: Rational) -> str:
    """Canonical text of the monomial e^q; negative powers render through w."""
    q = Fraction(q)
    if q == 0:
        return "1"
    letter, mag = ("e", q) if q > 0 else ("w", -q)
    if mag == 1:
        return letter
    if mag.denominator == 1:
        return f"{letter}^{mag.numerator}"
    return f"{letter}^({mag.numerator}/{mag.denominator})"
