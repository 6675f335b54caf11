"""External numbers: a formal series representative plus a neutrix.

An external number is the algebraic sum a + A of a real representative a and
a neutrix A.  Here the representative is a finite formal series in the scale
generator ``e`` with exact rational coefficients, so every order decision is
exact.  Values are kept in a canonical form where no series term is absorbed
by the neutrix; equality of canonical forms is set equality (``5 + o`` and
``5 + e + o`` construct the same value).

The four order relations come in two quantifier patterns and are *not* the
familiar total order:

    ge(a, b):  every x in a has some y in b with x >= y
    gt(a, b):  every x in a exceeds every y in b
    (le, lt symmetric)

In particular ``ge(x, y)`` is not equivalent to ``le(y, x)`` (one has
``ge(o, L)`` yet not ``le(L, o)``) and le/ge are not antisymmetric: both hold
simultaneously whenever one operand contains the other.  Downstream code must
not assume otherwise, which is why these are named functions rather than
comparison dunders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Tuple

from . import scale
from .errors import DivisionByNeutrix, NumericOverflow, ResultTooLarge, UnrepresentableDivision
from .scale import Neutrix, Rational, exact, power_text

Term = Tuple[Fraction, Rational]  # (coefficient, exponent), coefficient != 0

MAX_EXPANSION_ROUNDS = 64  # the cap of FormalSeries.inverse and of seq's series division


@dataclass(frozen=True)
class FormalSeries:
    """Finite sum of monomials c*e^q; the empty series is 0.

    Canonical form, which every constructor keeps and the arithmetic relies
    on: exponents strictly ascending (no duplicates), no zero coefficients,
    every coefficient a ``Fraction`` and every exponent as
    :func:`scale.exact` gives it (an ``int`` when integral).  Build from arbitrary
    ``(c, q)`` items through :meth:`from_terms`; the raw constructor takes
    terms already in canonical form.
    """

    terms: Tuple[Term, ...] = ()

    @staticmethod
    def from_terms(items: Iterable[Tuple[Rational, Rational]]) -> "FormalSeries":
        acc: dict = {}
        for c, q in items:
            c = _fraction(c)
            if c == 0:
                continue
            q = exact(q)
            acc[q] = acc[q] + c if q in acc else c
        return _from_exponent_map(acc)

    @staticmethod
    def monomial(c: Rational, q: Rational = 0) -> "FormalSeries":
        return FormalSeries.from_terms([(c, q)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading(self) -> Term:
        """The lowest-exponent (largest magnitude) term; series must be nonzero."""
        return self.terms[0]

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        a, b = self.terms, other.terms
        if not b:
            return self
        if not a:
            return other
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            (ca, qa), (cb, qb) = a[i], b[j]
            if qa < qb:
                out.append(a[i])
                i += 1
            elif qb < qa:
                out.append(b[j])
                j += 1
            else:
                c = ca + cb
                if c:
                    out.append((c, qa))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return FormalSeries(tuple(out))

    def __neg__(self) -> "FormalSeries":
        return FormalSeries(tuple((-c, q) for c, q in self.terms))

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        return self + (-other)

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        acc: dict = {}
        for c1, q1 in self.terms:
            for c2, q2 in other.terms:
                q = q1 + q2
                acc[q] = acc[q] + c1 * c2 if q in acc else c1 * c2
        return _from_exponent_map(acc)

    def scaled(self, c: Rational, q: Rational = 0) -> "FormalSeries":
        c = _fraction(c)
        return FormalSeries(tuple((c * c0, exact(q + q0)) for c0, q0 in self.terms)) if c else FormalSeries()

    def inverse(self, target: Neutrix) -> "FormalSeries":
        """Truncated series inverse: terms absorbed by ``target`` are dropped.

        Exact for a single monomial.  Otherwise 1/self = e^-q0/c0 * sum (-t)^m,
        whose m-th power lands at e^(m*delta - q0), delta the lowest exponent
        of t, a term no other product cancels: the expansion takes
        ``target.rounds(-q0, delta)`` rounds, counted before it expands.
        UnrepresentableDivision is raised above ``MAX_EXPANSION_ROUNDS`` rounds,
        or when ``target`` absorbs no power of e ({0} or the microhalo): then
        the quotient has no finite representation.
        """
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero series")
        c0, q0 = self.leading()
        lead_inv = FormalSeries.monomial(1 / c0, -q0)
        if len(self.terms) == 1:
            return lead_inv
        # t has only positive exponents: self = lead * (1 + t).
        t = FormalSeries(self.terms[1:]).scaled(1 / c0, -q0)
        rounds = target.rounds(-q0, t.terms[0][1])
        if rounds is None:
            raise UnrepresentableDivision(
                f"1/({self}) has no finite series form against neutrix {target}"
            )
        if rounds > MAX_EXPANSION_ROUNDS:
            raise UnrepresentableDivision(
                f"series inverse of {self} against neutrix {target} needs {rounds} rounds, "
                f"more than {MAX_EXPANSION_ROUNDS}"
            )
        out = FormalSeries.monomial(1, 0)
        power = out
        for k in range(rounds - 1):
            # The target absorbs every exponent above one it absorbs and t
            # only raises exponents, so a term dropped from a power never
            # feeds a kept term of a later power.
            power = power * t
            power = FormalSeries(tuple(tm for tm in power.terms if not target.absorbs(tm[1] - q0)))
            out = out + (-power if k % 2 == 0 else power)
        return lead_inv * out

    def eval(self, eps0: float) -> float:
        try:
            value = float(sum(float(c) * eps0 ** float(q) for c, q in self.terms))
        except OverflowError:
            value = math.inf
        # A product or sum past double range is inf, or nan where two cancel.
        if not math.isfinite(value):
            raise NumericOverflow(f"{self} has no value at eps0={eps0}: it overflows a double")
        return value

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, (c, q) in enumerate(self.terms):
            parts.append(_monomial_text(c, q, leading=(i == 0)))
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"FormalSeries({self})"


def _fraction(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _from_exponent_map(acc: dict) -> FormalSeries:
    """The canonical series of an {exponent: coefficient Fraction} map."""
    return FormalSeries(tuple(sorted(((c, exact(q)) for q, c in acc.items() if c), key=itemgetter(1))))


def _rat_text(c: Fraction) -> str:
    try:
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    except ValueError as exc:  # past the interpreter's int-to-text digit limit
        digits = int(max(abs(c.numerator), c.denominator).bit_length() * 0.30103) + 1  # bits * log10(2)
        raise ResultTooLarge(f"a rational of about {digits} digits is too large to print") from exc


def _monomial_text(c: Fraction, q: Rational, leading: bool) -> str:
    sign = "-" if c < 0 else ("" if leading else "+")
    mag = abs(c)
    if q == 0:
        body = _rat_text(mag)
    elif mag == 1:
        body = power_text(q)
    else:
        body = f"{_rat_text(mag)}*{power_text(q)}"
    if leading:
        return sign + body
    return f"{sign} {body}"


ZERO_SERIES = FormalSeries()


@dataclass(frozen=True)
class ExternalNumber:
    """Canonical pair (representative series, neutrix)."""

    rep: FormalSeries = ZERO_SERIES
    neutrix: Neutrix = scale.ZERO

    def __post_init__(self):
        # Exponents ascend and a neutrix that absorbs e^q absorbs every
        # smaller power, so the absorbed terms are a tail.
        terms = self.rep.terms
        for i, (_, q) in enumerate(terms):
            if self.neutrix.absorbs(q):
                object.__setattr__(self, "rep", FormalSeries(terms[:i]))
                break

    # -- basic structure ----------------------------------------------------

    @property
    def is_zeroless(self) -> bool:
        """True when 0 is not an element, i.e. the canonical rep is nonempty."""
        return not self.rep.is_zero

    def __str__(self) -> str:
        if self.rep.is_zero:
            return str(self.neutrix)
        if self.neutrix.is_zero:
            return str(self.rep)
        return f"{self.rep} + {self.neutrix}"

    def __repr__(self) -> str:
        return f"ExternalNumber({self})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ExternalNumber") -> "ExternalNumber":
        return ExternalNumber(self.rep + other.rep, self.neutrix + other.neutrix)

    def __neg__(self) -> "ExternalNumber":
        return ExternalNumber(-self.rep, self.neutrix)

    def __sub__(self, other: "ExternalNumber") -> "ExternalNumber":
        return ExternalNumber(self.rep - other.rep, self.neutrix + other.neutrix)

    def __mul__(self, other: "ExternalNumber") -> "ExternalNumber":
        noise = (
            scale_noise(other.neutrix, self)
            + scale_noise(self.neutrix, other)
            + self.neutrix * other.neutrix
        )
        return ExternalNumber(self.rep * other.rep, noise)

    def __truediv__(self, other: "ExternalNumber") -> "ExternalNumber":
        return div(self, other)

    def __abs__(self) -> "ExternalNumber":
        if self.rep.is_zero:
            return self
        c0, _ = self.rep.leading()
        return ExternalNumber(-self.rep, self.neutrix) if c0 < 0 else self


def from_neutrix(n: Neutrix) -> ExternalNumber:
    return ExternalNumber(ZERO_SERIES, n)


def monomial(c: Rational, q: Rational = 0, neutrix: Neutrix = scale.ZERO) -> ExternalNumber:
    return ExternalNumber(FormalSeries.monomial(c, q), neutrix)


ZERO = ExternalNumber()


def scale_noise(n: Neutrix, alpha: ExternalNumber) -> Neutrix:
    """The neutrix alpha * N: N scaled by alpha's leading term, plus N(alpha)*N.

    Exponents ascend and N scaled by c*e^q is largest at the least q, so the
    leading term's scaling contains every other term's.
    """
    out = alpha.neutrix * n
    if alpha.rep.terms:
        c, q = alpha.rep.terms[0]
        out = out + n.scaled(c, q)
    return out


def add(a: ExternalNumber, b: ExternalNumber) -> ExternalNumber:
    return a + b


def sub(a: ExternalNumber, b: ExternalNumber) -> ExternalNumber:
    return a - b


def mul(a: ExternalNumber, b: ExternalNumber) -> ExternalNumber:
    return a * b


def div(num: ExternalNumber, den: ExternalNumber) -> ExternalNumber:
    """Quotient (b + B)/(a + A) as b times the divisor's truncated inverse 1/a.

    The noise is (a*B + b*A + A*B)/a^2.  The inverse is truncated at the
    order where the rest of b/a is absorbed by that noise.
    """
    if not den.is_zeroless:
        raise DivisionByNeutrix(f"divisor {den} contains zero")
    q_a = den.rep.leading()[1]
    prod_noise = scale_noise(den.neutrix, num) + scale_noise(num.neutrix, den) + num.neutrix * den.neutrix
    noise = prod_noise.scaled(1, -2 * q_a)
    if not num.rep.is_zero:
        q_b = num.rep.leading()[1]
        # The quotient leads at q_b - q_a unless the noise absorbs it there.
        if not noise.absorbs(q_b - q_a):
            return ExternalNumber(num.rep * den.rep.inverse(noise.scaled(1, -q_b)), noise)
    return from_neutrix(noise)


def _lead_difference(x: FormalSeries, y: FormalSeries):
    """The first term (c, q) of x - y, by one merge scan; None when x == y."""
    a, b = x.terms, y.terms
    i = j = 0
    while i < len(a) and j < len(b):
        (ca, qa), (cb, qb) = a[i], b[j]
        if qa < qb:
            return a[i]
        if qb < qa:
            return -cb, qb
        if ca != cb:
            return ca - cb, qa
        i += 1
        j += 1
    if i < len(a):
        return a[i]
    if j < len(b):
        c, q = b[j]
        return -c, q
    return None


def subset(a: ExternalNumber, b: ExternalNumber) -> bool:
    """Set containment a ⊆ b on canonical forms: b's noise absorbs a - b."""
    if not a.neutrix <= b.neutrix:
        return False
    lead = _lead_difference(a.rep, b.rep)
    return lead is None or b.neutrix.absorbs(lead[1])


def disjoint(a: ExternalNumber, b: ExternalNumber) -> bool:
    """Two external numbers are either disjoint or nested; disjoint iff b - a is zeroless."""
    lead = _lead_difference(b.rep, a.rep)
    return lead is not None and not (a.neutrix + b.neutrix).absorbs(lead[1])


def lt(a: ExternalNumber, b: ExternalNumber) -> bool:
    """Every element of a is below every element of b: b - a is zeroless and positive."""
    lead = _lead_difference(b.rep, a.rep)
    return lead is not None and lead[0].numerator > 0 and not (a.neutrix + b.neutrix).absorbs(lead[1])


def gt(a: ExternalNumber, b: ExternalNumber) -> bool:
    """Every element of a is above every element of b."""
    return lt(b, a)


def le(a: ExternalNumber, b: ExternalNumber) -> bool:
    """a < b or a ⊆ b.  Not antisymmetric with ge."""
    return lt(a, b) or subset(a, b)


def ge(a: ExternalNumber, b: ExternalNumber) -> bool:
    """a > b or a ⊆ b.  Note ge(a, b) is weaker than le(b, a)."""
    return gt(a, b) or subset(a, b)
