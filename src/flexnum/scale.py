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

So every neutrix is one point of that chain, and a run meets few of them.
:func:`oslash`, :func:`pound`, :meth:`Neutrix.scaled` and
:meth:`Neutrix.__mul__` give one shared instance per (kind, exponent), kept
in a module dict that is never pruned: a point costs about 0.4 KB once, and
the points a run meets are the exponents its own terms carry.  50 000
``extnum-pairs`` and 5 000 ``seq-questions`` benchmark queries of one seed
leave 117 entries.  :meth:`Neutrix.absorbs` is one integer compare of the
cross-multiplied exponents.
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


# The members as module globals: a read through the enum class costs about
# 150 ns, a global read a few.
_ZERO_V, _MICRO_V, _MONO_V, _FULL_V = _Variant
_OSLASH_K, _POUND_K = Kind


@dataclass(frozen=True)
class Neutrix:
    """One element of the represented neutrix family.

    Use the module constants ``ZERO``, ``MICRO``, ``FULL``, ``OSLASH``,
    ``POUND`` and the constructors :func:`oslash` / :func:`pound`, which give
    one shared instance per point of the chain; the raw constructor builds an
    equal, separate value and is not meant to be called with inconsistent
    fields.  The exponent ``q`` is stored as :func:`exact` gives it, and the
    inclusion order key and the integer cut of :meth:`absorbs` are computed
    once, here.
    """

    variant: _Variant
    kind: Optional[Kind] = None
    q: Rational = 0
    _key: tuple = field(init=False, repr=False, compare=False)
    # (num, den, gap): absorbs(c/d), d > 0, holds exactly when c*den - num*d >= gap.
    _cut: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant is _MONO_V:
            if self.kind is None:
                raise ValueError("monomial neutrix needs a kind")
            q = exact(self.q)
            object.__setattr__(self, "q", q)
            object.__setattr__(self, "_key", (self.variant, -q, self.kind))
            # e^q*L absorbs the exponents p >= q, e^q*o those p > q: for p = c/d
            # the integer c*den - num*d is >= 0, or >= 1.
            object.__setattr__(self, "_cut", (q.numerator, q.denominator, 0 if self.kind is _POUND_K else 1))
        else:
            if self.kind is not None or self.q != 0:
                raise ValueError("kind/exponent only apply to monomial neutrices")
            object.__setattr__(self, "_key", (self.variant, 0, 0))
            # R absorbs every exponent (0 >= 0), {0} and M none (0 >= 1 fails).
            object.__setattr__(self, "_cut", (0, 0, 0 if self.variant is _FULL_V else 1))

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.variant is _ZERO_V

    @property
    def is_micro(self) -> bool:
        return self.variant is _MICRO_V

    @property
    def is_mono(self) -> bool:
        return self.variant is _MONO_V

    @property
    def is_full(self) -> bool:
        return self.variant is _FULL_V

    def absorbs(self, q: Rational) -> bool:
        """Whether a precise monomial c*e^q (c a nonzero rational) lies in this set.

        The rational coefficient is irrelevant: the group absorbs appreciable
        factors.  One integer compare of the cross-multiplied exponents.
        """
        num, den, gap = self._cut
        return q.numerator * den - num * q.denominator >= gap

    def rounds(self, q: Rational, step: Rational) -> Optional[int]:
        """The least k >= 0 with ``self.absorbs(q + k*step)``, for step > 0;
        None when no power of e is absorbed ({0} and M)."""
        if self.variant is not _MONO_V:
            return 0 if self.variant is _FULL_V else None
        bound = Fraction(self.q - q) / step
        return max(0, math.ceil(bound) if self.kind is _POUND_K else math.floor(bound) + 1)

    # -- inclusion order ----------------------------------------------------
    # a > b and a >= b are Python's reflected b < a and b <= a.

    def __lt__(self, other: "Neutrix") -> bool:
        return self._key < other._key

    def __le__(self, other: "Neutrix") -> bool:
        return self._key <= other._key

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "Neutrix") -> "Neutrix":
        """Sum of neutrices: the union, i.e. the larger of the two."""
        if self is other:
            return self
        return self if other._key <= self._key else other

    def __mul__(self, other: "Neutrix") -> "Neutrix":
        v, u = self.variant, other.variant
        if v is _ZERO_V or u is _ZERO_V:
            return ZERO
        if v is _FULL_V or u is _FULL_V:
            return FULL
        if v is _MICRO_V or u is _MICRO_V:
            # e^q * (L e^oo) = L e^oo for every finite q.
            return MICRO
        kind = _POUND_K if self.kind is _POUND_K and other.kind is _POUND_K else _OSLASH_K
        return _point(kind, self.q + other.q)

    def scaled(self, c: Rational, q: Rational = 0) -> "Neutrix":
        """Multiply by the precise monomial c*e^q (c != 0).

        The rational factor c is absorbed; only the exponent shifts, and only
        for monomial neutrices (Zero, Micro and Full are fixed points).
        """
        if not c:
            raise ValueError("scale factor must be nonzero")
        if self.variant is _MONO_V:
            return _point(self.kind, self.q + q)
        return self

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.is_micro:
            return "M"
        if self.is_full:
            return "R"
        letter = "L" if self.kind is _POUND_K else "o"
        if self.q == 0:
            return letter
        return f"{power_text(self.q)}*{letter}"

    def __repr__(self) -> str:
        return f"Neutrix({self})"


ZERO = Neutrix(_ZERO_V)
MICRO = Neutrix(_MICRO_V)
FULL = Neutrix(_FULL_V)

# The shared e^q*o and e^q*L, keyed by (kind, numerator, denominator) of q:
# an int key hashes at a third of the cost of a Fraction key.
_POINTS: dict = {}


def _point(kind: Kind, q: Rational) -> Neutrix:
    """The one shared monomial neutrix of this kind and exponent."""
    try:
        return _POINTS[kind, q.numerator, q.denominator]
    except (KeyError, AttributeError):
        n = Neutrix(_MONO_V, kind, q)
        return _POINTS.setdefault((kind, n.q.numerator, n.q.denominator), n)


def oslash(q: Rational = 0) -> Neutrix:
    """The neutrix e^q * o."""
    return _point(_OSLASH_K, q)


def pound(q: Rational = 0) -> Neutrix:
    """The neutrix e^q * L."""
    return _point(_POUND_K, q)


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
