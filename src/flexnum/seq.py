"""Flexible sequences as closed-form terms and their convergence calculus.

A flexible sequence assigns an external number to every index n.  The term
grammar below covers rational functions of n mixed with geometric factors,
the alternating sign and external-number coefficients:

    Const(x) | N (the index) | ALT ((-1)^n) | Add | Mul | Div
    | Pow(term, rational) | Geom(b)  (b^n, b a positive rational)

Every walk over a term is a rule table handed to :func:`fold`.  A ``Var``
leaf names a variable outside the grammar (the previous value of a
recurrence, the arguments of a field); only compiled folds give it a value.

Convergence of arbitrary external sequences is undecidable; on this fragment
every term normalizes to a finite sum of

    point monomials   c * e^q * n^r * b^n * (-1)^n     (exact)
    noise monomials   N * n^r * b^n                    (N a neutrix, exact)
    tail bounds       O(C * e^q * n^r * b^n)           (from division only)

and all limit questions are decided on that normal form.  ``_form`` is its
one constructor: it sums like monomials, drops absorbed ones and sorts, so
the form does not depend on operand order.  Each question normalizes its
term once; the Cauchy test and the order relations reuse the form they hold.

The asymptotic semantics of "n -> oo" is two-level: globally n eventually
dominates every power w^k of the scale, while on the segment of limited
indices the scale dominates n.  Segment-relative limits
(:func:`limit_wrt_segment`) expose the second regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from . import scale
from .errors import (
    DivisionByNeutrix,
    EvalDomain,
    HypothesisUnverified,
    Unnormalizable,
    ZerolessRequired,
)
from .extnum import ExternalNumber, FormalSeries, _rat_text, from_neutrix, monomial, scale_noise, subset
from .extnum import div as ext_div
from .scale import Neutrix, Rational

_MAX_DIV_ROUNDS = 48


# ---------------------------------------------------------------------------
# Term grammar
# ---------------------------------------------------------------------------


class Term:
    """Base class for sequence terms; combines with +, *, /, ** for convenience."""

    def __add__(self, other):
        return Add(self, as_term(other))

    def __radd__(self, other):
        return Add(as_term(other), self)

    def __mul__(self, other):
        return Mul(self, as_term(other))

    def __rmul__(self, other):
        return Mul(as_term(other), self)

    def __truediv__(self, other):
        return Div(self, as_term(other))

    def __rtruediv__(self, other):
        return Div(as_term(other), self)

    def __pow__(self, k):
        return Pow(self, Fraction(k))

    def __neg__(self):
        return Mul(Const(monomial(-1)), self)

    def __sub__(self, other):
        return Add(self, -as_term(other))

    def __rsub__(self, other):
        return Add(as_term(other), -self)


@dataclass(frozen=True)
class Const(Term):
    value: ExternalNumber


@dataclass(frozen=True)
class Index(Term):
    """The index variable n."""


@dataclass(frozen=True)
class AltSign(Term):
    """(-1)^n."""


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Div(Term):
    num: Term
    den: Term


@dataclass(frozen=True)
class Pow(Term):
    base: Term
    exponent: Fraction

    def __post_init__(self):
        object.__setattr__(self, "exponent", Fraction(self.exponent))


@dataclass(frozen=True)
class Geom(Term):
    """base^n for a positive rational base."""

    base: Fraction

    def __post_init__(self):
        b = Fraction(self.base)
        if b <= 0:
            raise ValueError("geometric base must be positive; use ALT for signs")
        object.__setattr__(self, "base", b)


@dataclass(frozen=True, repr=False)
class Var(Term):
    """A named variable: ``u`` in a recurrence, ``t`` and ``y`` in a field."""

    name: str

    def __repr__(self):
        return self.name


N = Index()
ALT = AltSign()


def fold(u: Term, rules: Mapping[type, Callable]):
    """Fold a term bottom up: each node becomes ``rules[type(node)](node, *kids)``
    with its children already folded, left to right.

    The only code that knows which fields of a node are its children.  The
    walk keeps its own stack, so deep terms do not meet the recursion limit.
    A node without a rule raises TypeError when the walk reaches it.
    """
    # Pre-order visiting the right child first; reversed, it is the
    # left-to-right post-order in which the rules run.
    order = []
    stack = [u]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is Add or cls is Mul:
            kids: tuple = (node.left, node.right)
        elif cls is Div:
            kids = (node.num, node.den)
        elif cls is Pow:
            kids = (node.base,)
        else:
            kids = ()
        order.append((node, len(kids)))
        stack.extend(kids)
    done: list = []
    for node, arity in reversed(order):
        rule = rules.get(type(node))
        if rule is None:
            raise TypeError(f"unknown term {node!r}")
        if arity == 2:
            right = done.pop()
            done.append(rule(node, done.pop(), right))
        elif arity == 1:
            done.append(rule(node, done.pop()))
        else:
            done.append(rule(node))
    return done[0]


def as_term(x) -> Term:
    if isinstance(x, Term):
        return x
    if isinstance(x, ExternalNumber):
        return Const(x)
    if isinstance(x, Neutrix):
        return Const(from_neutrix(x))
    if isinstance(x, (int, Fraction)):
        return Const(monomial(x))
    raise TypeError(f"cannot interpret {x!r} as a sequence term")


def neutrix_seq(noise: Neutrix, scale_term: Term) -> Term:
    """The sequence n -> noise * scale_term(n); sugar for Mul(Const(noise), term)."""
    return Mul(Const(from_neutrix(noise)), as_term(scale_term))


def reindex(u: Term, k: int, j: int = 0) -> Term:
    """Substitute n -> k*n + j (k >= 1): an arithmetic subsequence."""
    if k < 1 or j < 0:
        raise ValueError("need k >= 1 and j >= 0")

    def index(_):
        out: Term = N if k == 1 else Mul(Const(monomial(k)), N)
        return Add(out, Const(monomial(j))) if j else out

    def alt(_):
        unit = Const(monomial((-1) ** (j % 2)))
        return unit if k % 2 == 0 else Mul(unit, ALT)

    def geom(g):
        shifted: Term = Geom(g.base ** k)
        return Mul(Const(monomial(g.base ** j)), shifted) if j else shifted

    return fold(u, {
        Const: lambda c: c,
        Index: index,
        AltSign: alt,
        Geom: geom,
        Add: lambda _, a, b: Add(a, b),
        Mul: lambda _, a, b: Mul(a, b),
        Div: lambda _, a, b: Div(a, b),
        Pow: lambda p, a: Pow(a, p.exponent),
    })


# ---------------------------------------------------------------------------
# Pointwise evaluation
# ---------------------------------------------------------------------------


def _ext_pow(v: ExternalNumber, k: Fraction) -> ExternalNumber:
    if k.denominator == 1:
        e = k.numerator
        if e >= 0:
            out = monomial(1)
            for _ in range(e):
                out = out * v
            return out
        inv = _ext_pow(v, Fraction(-e))
        if not inv.is_zeroless:
            raise EvalDomain(f"negative power of non-zeroless value {v}")
        return ext_div(monomial(1), inv)
    # Fractional power: only for a precise positive monomial with a rational root.
    if not v.neutrix.is_zero or len(v.rep.terms) != 1:
        raise EvalDomain(f"fractional power of non-monomial value {v}")
    c, q = v.rep.leading()
    if c <= 0:
        raise EvalDomain("fractional power of a non-positive value")
    root = _rational_pow(c, k)
    if root is None:
        raise EvalDomain(f"{c}^{k} is irrational")
    return monomial(root, q * k)


def _rational_pow(c: Fraction, k: Fraction) -> Optional[Fraction]:
    """c**k as an exact rational, or None when irrational."""

    def iroot(m: int, r: int) -> Optional[int]:
        if m == 0:
            return 0
        lo, hi = 1, m
        while lo <= hi:
            mid = (lo + hi) // 2
            p = mid ** r
            if p == m:
                return mid
            if p < m:
                lo = mid + 1
            else:
                hi = mid - 1
        return None

    num, den = c.numerator, c.denominator
    rn = iroot(num, k.denominator)
    rd = iroot(den, k.denominator)
    if rn is None or rd is None:
        return None
    root = Fraction(rn, rd)
    e = k.numerator
    return root ** e if e >= 0 else Fraction(1) / (root ** (-e))


def _eval_div(num: Callable, den: Callable) -> Callable:
    def at(n: int) -> ExternalNumber:
        d = den(n)
        try:
            return ext_div(num(n), d)
        except DivisionByNeutrix as exc:
            raise EvalDomain(f"division by {d} at n={n}") from exc

    return at


# Compiles a term into n -> u_n.  A quotient evaluates its denominator first,
# so a failing denominator is the error reported.
_EVAL = {
    Const: lambda c: lambda n: c.value,
    Index: lambda _: lambda n: monomial(n),
    AltSign: lambda _: lambda n: monomial((-1) ** (n % 2)),
    Geom: lambda g: lambda n: monomial(g.base ** n),
    Add: lambda _, a, b: lambda n: a(n) + b(n),
    Mul: lambda _, a, b: lambda n: a(n) * b(n),
    Div: lambda _, a, b: _eval_div(a, b),
    Pow: lambda p, a: lambda n: _ext_pow(a(n), p.exponent),
}


def eval_at(u: Term, n: int) -> ExternalNumber:
    """The external number u_n, folded exactly through external arithmetic."""
    if n < 0:
        raise EvalDomain("indices are natural numbers")
    return fold(u, _EVAL)(n)


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------

# Point key: exponent of e, power of n, geometric base, alternating flag.
PKey = Tuple[Fraction, Fraction, Fraction, bool]
# Noise key: power of n, geometric base (the e-scale lives inside the neutrix).
NKey = Tuple[Fraction, Fraction]
# Tail bound: |remainder| <= C * e^q * n^r * b^n eventually.
TKey = Tuple[Fraction, Fraction, Fraction, Fraction]

_ONE = Fraction(1)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class NormalForm:
    """Sum of point monomials, noise monomials and optional tail bounds.

    An exact form equals the source term at every index where that term is
    defined.  Division can shed components that only *eventually* sit inside
    a kept noise monomial; such forms carry ``trimmed=True`` (or explicit
    tail envelopes) and equal the source only for all n beyond some n1.
    """

    point: Tuple[Tuple[PKey, Fraction], ...] = ()
    noise: Tuple[Tuple[NKey, Neutrix], ...] = ()
    tails: Tuple[TKey, ...] = ()
    trimmed: bool = False

    @property
    def exact(self) -> bool:
        return not self.tails and not self.trimmed

    def eval_at(self, n: int) -> ExternalNumber:
        """Pointwise value at a fixed limited index (exact forms only).

        Noise monomials are scale-invariant under the rational factor n^r b^n,
        so each contributes its neutrix unchanged.
        """
        if not self.exact:
            raise ValueError("this normal form only equals the term for large n")
        if n < 1:
            raise EvalDomain("normal forms are defined for n >= 1")
        series = []
        for (q, r, b, alt), c in self.point:
            f = _rational_pow(Fraction(n), r)
            if f is None:
                raise EvalDomain(f"n^{r} irrational at n={n}")
            val = c * f * b ** n * ((-1) ** (n % 2) if alt else 1)
            series.append((val, q))
        noise = scale.ZERO
        for _, nx in self.noise:
            noise = noise + nx
        return ExternalNumber(FormalSeries.from_terms(series), noise)

    def __str__(self) -> str:
        bits = []
        for (q, r, b, alt), c in self.point:
            bits.append(_point_text(c, q, r, b, alt))
        for (r, b), nx in self.noise:
            bits.append(_noise_text(nx, r, b))
        for (C, q, r, b) in self.tails:
            bits.append("O(" + _point_text(C, q, r, b, False) + ")")
        text = " + ".join(bits) if bits else "0"
        return text + "  [for large n]" if self.trimmed else text


def _factor_text(r: Fraction, b: Fraction, alt: bool) -> list:
    out = []
    if r != 0:
        if r == 1:
            out.append("n")
        elif r.denominator == 1:
            out.append(f"n^{r.numerator}")
        else:
            out.append(f"n^({r.numerator}/{r.denominator})")
    if b != 1:
        base = _rat_text(b) if b.denominator == 1 else f"({_rat_text(b)})"
        out.append(f"{base}^n")
    if alt:
        out.append("(-1)^n")
    return out


def _point_text(c: Fraction, q: Fraction, r: Fraction, b: Fraction, alt: bool) -> str:
    bits = []
    mono = monomial(c, q)
    head = str(mono.rep)
    factors = _factor_text(r, b, alt)
    if factors and head == "1":
        head = ""
    elif factors and head == "-1":
        head = "-"
    joined = "*".join(factors)
    if head and joined:
        return f"{head}*{joined}"
    return head + joined if (head or joined) else "1"


def _noise_text(nx: Neutrix, r: Fraction, b: Fraction) -> str:
    factors = _factor_text(r, b, False)
    return "*".join([str(nx)] + factors) if factors else str(nx)


def _growth(r: Fraction, b: Fraction) -> int:
    """Eventual behaviour of n^r * b^n: -1 vanishes, 0 stays constant, 1 grows."""
    if b != 1:
        return 1 if b > 1 else -1
    return (r > 0) - (r < 0)


def _size(q: Fraction, r: Fraction, b: Fraction) -> Tuple[Fraction, Fraction, Fraction]:
    """Sort key of the eventual magnitude of e^q * n^r * b^n (global regime):
    geometric base first, then the power of n, then the e-exponent."""
    return (b, r, -q)


def _form(
    point: Iterable[Tuple[PKey, Fraction]] = (),
    noise: Iterable[Tuple[NKey, Neutrix]] = (),
    tails: Iterable[TKey] = (),
    trimmed: bool = False,
) -> NormalForm:
    """The one constructor of a normal form: canonical, whatever the input order.

    Like keys are summed and zero coefficients dropped.  A point monomial
    sharing its (r, b) envelope with a noise monomial that absorbs its
    e-scale is swallowed at *every* index (the scalar n^r*b^n multiplies both
    sides equally), so dropping it is exact.  A tail must vanish; one already
    inside some kept noise monomial (for all large n) is dropped, and the set
    identity then only holds beyond some n1.  Tails are read one at a time,
    after the point and noise monomials, so a lazy producer of tails reports
    its own errors in the order it meets them.
    """
    nsum: Dict[NKey, Neutrix] = {}
    for key, nx in noise:
        if not nx.is_zero:
            prev = nsum.get(key)
            nsum[key] = nx if prev is None else prev + nx
    psum: Dict[PKey, Fraction] = {}
    for key, c in point:
        prev = psum.get(key)
        psum[key] = c if prev is None else prev + c
    noise_items = tuple(sorted(nsum.items()))
    kept = [
        (key, c)
        for key, c in psum.items()
        if c and not any(nk == key[1:3] and nx.absorbs(key[0]) for nk, nx in noise_items)
    ]
    kept_tails = []
    for C, q, r, b in tails:
        if _growth(r, b) >= 0:
            raise Unnormalizable("division remainder does not vanish")
        if any(_point_in_noise(q, r, b, key, nx) for key, nx in noise_items):
            trimmed = True
        else:
            kept_tails.append((abs(C), q, r, b))
    return NormalForm(tuple(sorted(kept)), noise_items, tuple(sorted(kept_tails)), trimmed)


_ONE_NF = _form([((_ZERO, _ZERO, _ONE, False), _ONE)])


def _nf_add(a: NormalForm, b: NormalForm) -> NormalForm:
    return _form(a.point + b.point, a.noise + b.noise, a.tails + b.tails, a.trimmed or b.trimmed)


def _nf_neg(a: NormalForm) -> NormalForm:
    return _form(((k, -c) for k, c in a.point), a.noise, a.tails, a.trimmed)


def _nf_mul(a: NormalForm, b: NormalForm) -> NormalForm:
    point = [
        ((q1 + q2, r1 + r2, b1 * b2, s1 != s2), c1 * c2)
        for (q1, r1, b1, s1), c1 in a.point
        for (q2, r2, b2, s2), c2 in b.point
    ]
    noise = [
        ((r1 + r2, b1 * b2), nx.scaled(c, q))
        for x, y in ((a, b), (b, a))
        for (q, r1, b1, _s), c in x.point
        for (r2, b2), nx in y.noise
    ] + [
        ((r1 + r2, b1 * b2), nx1 * nx2)
        for (r1, b1), nx1 in a.noise
        for (r2, b2), nx2 in b.noise
    ]
    # Tail envelopes distribute over the other factor's magnitudes; the
    # generator is lazy so the first offending tail is the error reported.
    tails = (
        (C * mC, q + mq, r + mr, bb * mb)
        for x, y in ((a, b), (b, a))
        for (C, q, r, bb) in x.tails
        for (mC, mq, mr, mb) in _magnitudes(y)
    )
    return _form(point, noise, tails, a.trimmed or b.trimmed)


def _magnitudes(nf: NormalForm) -> Iterable[Tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Envelope magnitudes (C, q, r, b) bounding each component of nf."""
    for (q, r, b, _alt), c in nf.point:
        yield (abs(c), q, r, b)
    for (r, b), nx in nf.noise:
        # A neutrix monomial is bounded by an appreciable multiple of its scale.
        if nx.is_full:
            raise Unnormalizable("cannot bound the full line inside a product tail")
        if nx.is_mono:
            yield (_ONE, nx.q - (1 if nx.kind is scale.Kind.POUND else 0), r, b)
        elif nx.is_micro:
            yield (_ONE, Fraction(10 ** 6), r, b)
    for (C, q, r, b) in nf.tails:
        yield (C, q, r, b)


def _dominant_point(nf: NormalForm) -> Optional[Tuple[PKey, Fraction]]:
    """The largest point monomial under :func:`_size`.

    Callers still have to confirm that it strictly dominates the remaining
    monomials.
    """
    if not nf.point:
        return None
    return max(nf.point, key=lambda kv: _size(*kv[0][:3]))


def _point_in_noise(q: Fraction, r: Fraction, b: Fraction, key: NKey, nx: Neutrix) -> bool:
    """Whether c*e^q*n^r*b^n eventually lies inside nx*n^rN*b^nN (global regime)."""
    rN, bN = key
    if nx.is_full:
        return True
    if nx.is_zero:
        return False
    if (b, r) != (bN, rN):
        return (b, r) < (bN, rN)
    return nx.absorbs(q)


def _noise_in_noise(key1: NKey, n1: Neutrix, key2: NKey, n2: Neutrix) -> bool:
    """Whether n1*n^r1*b1^n is eventually a subset of n2*n^r2*b2^n."""
    r1, b1 = key1
    r2, b2 = key2
    if n2.is_full:
        return True
    if n1.is_zero:
        return True
    if n2.is_zero or n1.is_full:
        # A nontrivial group never shrinks into {0}: scalar factors are absorbed.
        return False
    if (b1, r1) != (b2, r2):
        return (b1, r1) < (b2, r2)
    return n1 <= n2


def _nf_div(num: NormalForm, den: NormalForm) -> NormalForm:
    if not den.point and not den.noise:
        raise Unnormalizable("division by the zero sequence")
    if den.tails:
        raise Unnormalizable("division by a remainder-bearing denominator")
    # Kill alternation in the denominator by one conjugation step:
    # (x + y)(x - y) = x^2 - y^2 has no alternating monomials.
    if any(k[3] for k, _ in den.point):
        conj = _form(((k, (-c if k[3] else c)) for k, c in den.point), den.noise)
        return _nf_div(_nf_mul(num, conj), _nf_mul(den, conj))

    dom = _dominant_point(den)
    if dom is None:
        raise Unnormalizable("denominator has no dominant precise monomial")
    key0, c0 = dom
    q0, r0, b0, s0 = key0
    size0 = _size(q0, r0, b0)
    for key, c in den.point:
        if key != key0 and not size0 > _size(*key[:3]):
            raise Unnormalizable("denominator is not eventually zeroless")
    for key, nx in den.noise:
        if nx.is_full or not _point_in_noise_strict(key0[:3], key, nx):
            raise Unnormalizable("denominator noise is not dominated: not eventually zeroless")

    inv_c0 = _ONE / c0

    def over_m0(point, noise):
        """Point and noise monomials divided by m0 = c0*e^q0*n^r0*b0^n."""
        return (
            (((q - q0, r - r0, b / b0, s != s0), c * inv_c0) for (q, r, b, s), c in point),
            (((r - r0, b / b0), nx.scaled(inv_c0, -q0)) for (r, b), nx in noise),
        )

    # w = den/m0 - 1: every monomial strictly below 1.
    wf = _form(*over_m0((kv for kv in den.point if kv[0] != key0), den.noise))
    # num / m0, exact.
    basef = _form(
        *over_m0(num.point, num.noise),
        ((C * abs(inv_c0), q - q0, r - r0, b / b0) for (C, q, r, b) in num.tails),
        num.trimmed or den.trimmed,
    )

    if not wf.point and not wf.noise:
        return basef

    def mark_trimmed(nf: NormalForm) -> NormalForm:
        # Dropping expansion terms that are only eventually inside the noise
        # leaves a form valid for large n, not pointwise.
        return nf if nf.trimmed else _form(nf.point, nf.noise, nf.tails, True)

    # Geometric expansion of 1/(1+w); noise powers collapse into the running
    # noise keys, point powers are kept until they sit inside the result's
    # noise for all large n, vanish into a recorded tail, or the expansion is
    # declared outside the fragment.
    result = basef
    power = basef
    w_neg = _nf_neg(wf)
    dropped = False

    def inside(q, r, b):  # in the noise of the result so far
        return any(_point_in_noise(q, r, b, key, nx) for key, nx in result.noise)

    for _ in range(_MAX_DIV_ROUNDS):
        power = _nf_mul(power, w_neg)
        point = [(k, c) for k, c in power.point if not inside(*k[:3])]
        noise = [
            (k, nx) for k, nx in power.noise
            if not any(_noise_in_noise(k, nx, k2, nx2) for k2, nx2 in result.noise)
        ]
        tails = [t for t in power.tails if not inside(*t[1:])]
        if len(point) + len(noise) + len(tails) < len(power.point) + len(power.noise) + len(power.tails):
            dropped = True
        if not (point or noise or tails):
            return mark_trimmed(result) if dropped else result
        power = _form(point, noise, tails)
        result = _nf_add(result, power)
        # Once every surviving point monomial vanishes in n, one more factor of
        # w only shrinks it further: close with a tail bound.
        if power.point and not power.noise and all(_growth(k[1], k[2]) < 0 for k, _ in power.point):
            wC, wq, wr, wb = _dominant_magnitude(wf)
            closing = ((2 * abs(c) * wC, q + wq, r + wr, b * wb) for (q, r, b, _s), c in power.point)
            return _form(result.point, result.noise, (*result.tails, *closing), result.trimmed or dropped)
    raise Unnormalizable("series division does not close against the result's noise")


def _point_in_noise_strict(m0, key: NKey, nx: Neutrix) -> bool:
    """Dominant monomial m0 strictly dominates the noise monomial (zeroless test)."""
    q0, r0, b0 = m0
    r, b = key
    if nx.is_zero or nx.is_full:
        return nx.is_zero
    if (b, r) != (b0, r0):
        return (b, r) < (b0, r0)
    # Same envelope in n: the noise must not contain the monomial (a pound
    # neutrix at the monomial's exact scale does).
    return not nx.absorbs(q0)


def _dominant_magnitude(nf: NormalForm) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    mags = list(_magnitudes(nf))
    best = max(mags, key=lambda m: _size(*m[1:]))
    total = sum((m[0] for m in mags), _ZERO)
    return (total, best[1], best[2], best[3])


def _nf_pow(a: NormalForm, k: Fraction) -> NormalForm:
    if k.denominator == 1:
        e = k.numerator
        if e >= 0:
            out = _ONE_NF
            for _ in range(e):
                out = _nf_mul(out, a)
            return out
        return _nf_div(_ONE_NF, _nf_pow(a, Fraction(-e)))
    if a.noise or a.tails or len(a.point) != 1:
        raise Unnormalizable(f"fractional power of a non-monomial sequence")
    (q, r, b, s), c = a.point[0]
    if s:
        raise Unnormalizable("fractional power of an alternating term")
    croot = _rational_pow(c, k)
    broot = _rational_pow(b, k)
    if croot is None or broot is None:
        raise Unnormalizable("fractional power leaves the rational scale")
    return _form([((q * k, r * k, broot, False), croot)])


def _nf_const(c: Const) -> NormalForm:
    return _form(
        (((q, _ZERO, _ONE, False), coeff) for coeff, q in c.value.rep.terms),
        [((_ZERO, _ONE), c.value.neutrix)],
    )


_NORMALIZE = {
    Const: _nf_const,
    Index: lambda _: _form([((_ZERO, _ONE, _ONE, False), _ONE)]),
    AltSign: lambda _: _form([((_ZERO, _ZERO, _ONE, True), _ONE)]),
    Geom: lambda g: _form([((_ZERO, _ZERO, g.base, False), _ONE)]),
    Add: lambda _, a, b: _nf_add(a, b),
    Mul: lambda _, a, b: _nf_mul(a, b),
    Div: lambda _, a, b: _nf_div(a, b),
    Pow: lambda p, a: _nf_pow(a, p.exponent),
}


def normalize(u: Term) -> NormalForm:
    """Decidable normal form of a grammar term.

    Raises Unnormalizable for terms outside the fragment (a denominator that
    is not eventually zeroless, fractional powers of sums, a divided
    remainder that does not vanish).
    """
    return fold(u, _NORMALIZE)


# ---------------------------------------------------------------------------
# Limits
# ---------------------------------------------------------------------------


class Status(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"


@dataclass(frozen=True)
class LimitReport:
    status: Status
    limit: Optional[ExternalNumber]
    minimal_neutrix: Optional[Neutrix]
    strong: bool
    witness: str

    def __post_init__(self):
        if (
            self.status is Status.CONVERGES
            and self.limit is not None
            and not self.limit.neutrix.is_zero
            and not self.strong
        ):
            raise AssertionError(
                "strong convergence theorem violated: imprecise limit without "
                "tail containment; this is a bug or an out-of-fragment term"
            )

    @property
    def converges(self) -> bool:
        return self.status is Status.CONVERGES

    def to_dict(self) -> dict:
        from .dsl import print_extnum

        return {
            "status": self.status.value,
            "limit": print_extnum(self.limit) if self.limit is not None else None,
            "minimal_neutrix": str(self.minimal_neutrix) if self.minimal_neutrix else None,
            "strong": self.strong,
            "witness": self.witness,
        }


def _diverges(witness: str) -> LimitReport:
    return LimitReport(Status.DIVERGES, None, None, False, witness)


def n_limit(u: Term) -> LimitReport:
    """Global limit: n eventually dominates every power of w.

    Classification per monomial: vanishing (r < 0 or b < 1) contributes
    nothing; a constant point term joins the representative; bounded
    oscillation of amplitude c*e^q forces the minimal neutrix up to e^q*L;
    a constant noise monomial survives as itself; growth in n diverges.
    """
    return _limit(normalize(u))


def _limit(nf: NormalForm) -> LimitReport:
    """The global limit of a normal form (see :func:`n_limit`)."""
    lines = [f"normal form: {nf}"]
    rep_terms = []
    minimal = scale.ZERO
    for (q, r, b, alt), c in nf.point:
        growth = _growth(r, b)
        if growth > 0:
            return _diverges(f"point term {_point_text(c, q, r, b, alt)} grows without bound")
        if growth < 0:
            lines.append(f"  {_point_text(c, q, r, b, alt)} vanishes")
            continue
        if alt:
            minimal = minimal + scale.pound(q)
            lines.append(f"  oscillation of amplitude {_rat_text(c)}*e^{q} -> minimal neutrix joins {scale.pound(q)}")
        else:
            rep_terms.append((c, q))
            lines.append(f"  constant term {_point_text(c, q, r, b, alt)} joins the representative")
    for (r, b), nx in nf.noise:
        if nx.is_full:
            return _diverges("the sequence is the full line at every index")
        growth = _growth(r, b)
        if growth > 0:
            return _diverges(f"noise term {_noise_text(nx, r, b)} expands to the full line")
        if growth < 0:
            lines.append(f"  {_noise_text(nx, r, b)} shrinks to 0")
            continue
        minimal = minimal + nx
        lines.append(f"  constant noise {nx} survives")
    # Tails vanish by construction.
    limit = ExternalNumber(FormalSeries.from_terms(rep_terms), minimal)
    strong = _tail_containment(nf, limit)
    lines.append(f"limit {limit}, minimal neutrix {minimal}, strong={strong}")
    return LimitReport(Status.CONVERGES, limit, minimal, strong, "\n".join(lines))


def _tail_containment(nf: NormalForm, limit: ExternalNumber) -> bool:
    """Direct strong-convergence check: u_n ⊆ limit for all large n.

    Every monomial of u - limit must eventually sit inside the limit's
    neutrix.  Independent of the theorem that predicts it for imprecise
    limits.
    """
    target_key = (_ZERO, _ONE)
    target = limit.neutrix
    rep = dict(((q, _ZERO, _ONE, False), c) for c, q in limit.rep.terms)
    for key, c in nf.point:
        if key in rep and rep[key] == c:
            continue
        q, r, b, alt = key
        if not _point_in_noise(q, r, b, target_key, target):
            return False
    for (r, b), nx in nf.noise:
        if not _noise_in_noise((r, b), nx, target_key, target):
            return False
    for t in nf.tails:
        if not _point_in_noise(*t[1:], target_key, target):
            return False
    return True


def n_converges(u: Term, alpha: ExternalNumber, nx: Neutrix) -> bool:
    """Whether u N-converges to alpha: the minimal neutrix fits inside N and
    alpha lies within the canonical limit enlarged by N."""
    if nx.is_full:
        raise ValueError("N-convergence is only considered for N != R")
    report = n_limit(u)
    if not report.converges:
        return False
    if not report.minimal_neutrix <= nx:
        return False
    return subset(alpha, report.limit + from_neutrix(nx))


def minimal_convergence_neutrix(u: Term) -> Optional[Neutrix]:
    report = n_limit(u)
    return report.minimal_neutrix if report.converges else None


# ---------------------------------------------------------------------------
# Limit arithmetic (operation theorems as predictions)
# ---------------------------------------------------------------------------


def limit_arith(op: str, a: LimitReport, b: Optional[LimitReport] = None) -> LimitReport:
    """Predicted limit of a combined sequence from the component limits.

    Neutrix bookkeeping: sums and differences carry N+M; a product carries
    K = alpha*M + beta*N + N*M; a reciprocal carries N/a^2.  The prediction
    must agree with n_limit of the combined term up to the predicted neutrix.
    """
    if not a.converges or (b is not None and not b.converges):
        raise HypothesisUnverified("limit arithmetic needs convergent inputs")
    alpha, na = a.limit, a.minimal_neutrix
    if op in ("add", "sub", "mul"):
        if b is None:
            raise ValueError(f"{op} needs two reports")
        beta, nb = b.limit, b.minimal_neutrix
    if op == "add":
        lim, k = alpha + beta, na + nb
    elif op == "sub":
        lim, k = alpha - beta, na + nb
    elif op == "mul":
        k = scale_noise(nb, alpha) + scale_noise(na, beta) + na * nb
        lim = alpha * beta
    elif op == "recip":
        if not alpha.is_zeroless:
            raise ZerolessRequired(f"reciprocal of a limit containing zero: {alpha}")
        lim = ext_div(monomial(1), alpha)
        k = na.scaled(1, -2 * alpha.rep.leading()[1])
    else:
        raise ValueError(f"unknown operation {op!r}")
    lim = ExternalNumber(lim.rep, lim.neutrix + k)
    return LimitReport(
        Status.CONVERGES, lim, lim.neutrix, not lim.neutrix.is_zero, f"{op}: predicted neutrix {k}"
    )


def prediction_consistent(pred: LimitReport, actual: LimitReport) -> bool:
    """Equality of limit claims modulo the predicted neutrix.

    The operation theorems pin the combined limit down to a K-convergence
    statement; coefficient cancellation can make the true minimal neutrix
    smaller, so the comparison is: actual minimal fits in K, and the two
    limits coincide once both are enlarged by K.
    """
    if not (pred.converges and actual.converges):
        return pred.converges == actual.converges
    k = from_neutrix(pred.minimal_neutrix)
    if not actual.minimal_neutrix <= pred.minimal_neutrix:
        return False
    return (pred.limit + k) == (actual.limit + k)


# ---------------------------------------------------------------------------
# Order, squeeze, boundedness
# ---------------------------------------------------------------------------


def eventually_subset(u: Term, v: Term) -> bool:
    """u_n ⊆ v_n for all large n, decided on normal forms."""
    if u == v:
        return True
    try:
        nu, nv = normalize(u), normalize(v)
    except Unnormalizable:
        return False
    return _subset(nu, nv)


def _subset(nu: NormalForm, nv: NormalForm) -> bool:
    noise_v = nv.noise
    for (r, b), nx in nu.noise:
        if not any(_noise_in_noise((r, b), nx, k2, n2) for k2, n2 in noise_v):
            return False
    diff = _nf_add(nu, _nf_neg(nv))
    for (q, r, b, alt), c in diff.point:
        if not any(_point_in_noise(q, r, b, k2, n2) for k2, n2 in noise_v):
            return False
    for t in list(nu.tails) + list(nv.tails):
        if not any(_point_in_noise(*t[1:], k2, n2) for k2, n2 in noise_v):
            return False
    return True


def _nf_eventually_positive(d: NormalForm) -> Optional[bool]:
    """True/False when the sign of d_n is eventually decided; None when the
    point part is eventually swallowed by d's own noise."""
    surviving = [
        (key, c)
        for key, c in d.point
        if not any(_point_in_noise(key[0], key[1], key[2], k2, n2) for k2, n2 in d.noise)
    ]
    if not surviving:
        tails_ok = all(any(_point_in_noise(*t[1:], k2, n2) for k2, n2 in d.noise) for t in d.tails)
        return None if tails_ok else False
    # Group by magnitude class; an alternating and a constant member of the
    # same class combine to c +- |a|.
    classes: Dict[Tuple[Fraction, Fraction, Fraction], Dict[bool, Fraction]] = {}
    for (q, r, b, alt), c in surviving:
        classes.setdefault((q, r, b), {})[alt] = c
    best = max(classes, key=lambda m: _size(*m))
    top = _size(*best)
    if not all(m == best or top > _size(*m) for m in classes):
        return False
    if not all(_point_in_noise_strict(best, key, nx) for key, nx in d.noise):
        return False
    if not all(top > _size(*t[1:]) for t in d.tails):
        return False
    c = classes[best].get(False, _ZERO)
    a = classes[best].get(True, _ZERO)
    if abs(a) < abs(c):
        return c > 0
    return False


def eventually_le(u: Term, v: Term, _depth: int = 0) -> bool:
    """Pointwise u_n <= v_n (the external relation) for all large n."""
    if u == v:
        return True
    try:
        nu, nv = normalize(u), normalize(v)
    except Unnormalizable:
        return False
    if nu == nv:
        # Identical normal forms including remainder bounds: same sequence.
        return True
    d = _nf_add(nv, _nf_neg(nu))
    positive = _nf_eventually_positive(d)
    if positive is True:
        return True
    if positive is None:
        # d is eventually inside its own noise, which contains 0; then the
        # relation reduces to containment u_n ⊆ v_n.
        return _subset(nu, nv)
    # Alternating terms at the dominant scale: decide each parity separately
    # (reindexing by 2 turns (-1)^n into a constant).
    if _depth == 0 and any(key[3] for key, _ in d.point):
        return eventually_le(reindex(u, 2, 0), reindex(v, 2, 0), 1) and eventually_le(
            reindex(u, 2, 1), reindex(v, 2, 1), 1
        )
    return False


def squeeze(
    u: Term,
    v: Term,
    w: Term,
    alpha: ExternalNumber,
    nx: Neutrix,
    mx: Neutrix,
) -> bool:
    """Squeeze theorem: from u ->_N alpha, w ->_M alpha and u <= v <= w
    eventually, conclude v ->_{N+M} alpha.

    Raises HypothesisUnverified when a hypothesis cannot be established; when
    v is normalizable the conclusion is cross-checked against n_limit(v).
    """
    if not n_converges(u, alpha, nx):
        raise HypothesisUnverified(f"lower sequence does not {nx}-converge to {alpha}")
    if not n_converges(w, alpha, mx):
        raise HypothesisUnverified(f"upper sequence does not {mx}-converge to {alpha}")
    if not eventually_le(u, v):
        raise HypothesisUnverified("ordering u <= v not established on a tail")
    if not eventually_le(v, w):
        raise HypothesisUnverified("ordering v <= w not established on a tail")
    try:
        cross = n_converges(v, alpha, nx + mx)
    except Unnormalizable:
        return True
    if not cross:
        raise AssertionError("squeeze conclusion contradicted by direct analysis")
    return True


def eventually_bounded(u: Term) -> Optional[ExternalNumber]:
    """A precise eventual bound on |u_n|, or None when there is none != R."""
    try:
        nf = normalize(u)
    except Unnormalizable:
        return None
    q_bound = None
    coeff = Fraction(1)

    def lower_to(q):
        nonlocal q_bound
        q_bound = q if q_bound is None else min(q_bound, q)

    for (q, r, b, alt), c in nf.point:
        if _growth(r, b) > 0:
            return None
        coeff += abs(c)
        lower_to(q)
    for (r, b), nx in nf.noise:
        if nx.is_full or _growth(r, b) > 0:
            return None
        if nx.is_mono:
            lower_to(nx.q - (1 if nx.kind is scale.Kind.POUND else 0))
        # Micro sits below any monomial bound.
    for (C, q, r, b) in nf.tails:
        coeff += abs(C)
        lower_to(q)
    if q_bound is None:
        q_bound = _ZERO
    return monomial(coeff, q_bound)


# ---------------------------------------------------------------------------
# Cauchy
# ---------------------------------------------------------------------------


def is_cauchy(u: Term, nx: Neutrix) -> bool:
    """N-Cauchy test, computed two independent ways and asserted equal.

    Direct route on the normal form: differences of constant point terms
    cancel, vanishing terms pass for every N, a constant noise monomial A
    requires A ⊆ N, and an alternating amplitude c*e^q requires N to absorb
    it.  Derived route: N-convergence of the sequence.  Their agreement is
    the Cauchy completeness theorem, kept as a runtime assertion.
    """
    if nx.is_full:
        raise ValueError("N-Cauchy is only considered for N != R")
    nf = normalize(u)
    direct = True
    for (q, r, b, alt), c in nf.point:
        growth = _growth(r, b)
        if growth > 0 or (growth == 0 and alt and not nx.absorbs(q)):
            direct = False
            break
    if direct:
        for (r, b), nox in nf.noise:
            growth = _growth(r, b)
            if nox.is_full or growth > 0 or (growth == 0 and not nox <= nx):
                direct = False
                break
    report = _limit(nf)
    derived = report.converges and report.minimal_neutrix <= nx
    if direct != derived:
        raise AssertionError(
            f"Cauchy completeness violated for {u} with N={nx}: "
            f"direct={direct}, via convergence={derived}"
        )
    return direct


# ---------------------------------------------------------------------------
# Segments and segment-relative limits
# ---------------------------------------------------------------------------


class SegmentKind(Enum):
    FINITE = "finite"
    LIMITED = "limited"
    HALO = "halo"
    GALAXY = "galaxy"
    ALL = "all"


@dataclass(frozen=True)
class Segment:
    """An initial segment of the naturals, closed downward.

    finite(m): {0..m}; limited(): the limited naturals; halo_times(q):
    o*w^q ∩ N; galaxy_times(q): L*w^q ∩ N; all_naturals(): N itself.
    """

    kind: SegmentKind
    bound: int = 0
    q: Fraction = Fraction(0)

    def __str__(self):
        if self.kind is SegmentKind.FINITE:
            return f"finite:{self.bound}"
        if self.kind in (SegmentKind.HALO, SegmentKind.GALAXY):
            return f"{self.kind.value}:{self.q}"
        return self.kind.value


def finite(m: int) -> Segment:
    if m < 1:
        raise ValueError("finite segments need a positive endpoint")
    return Segment(SegmentKind.FINITE, bound=m)


def limited() -> Segment:
    return Segment(SegmentKind.LIMITED)


def halo_times(q: Rational) -> Segment:
    q = Fraction(q)
    if q <= 0:
        raise ValueError("halo segments need a positive scale exponent")
    return Segment(SegmentKind.HALO, q=q)


def galaxy_times(q: Rational) -> Segment:
    q = Fraction(q)
    if q < 0:
        raise ValueError("galaxy segments need a nonnegative scale exponent")
    return Segment(SegmentKind.LIMITED) if q == 0 else Segment(SegmentKind.GALAXY, q=q)


def all_naturals() -> Segment:
    return Segment(SegmentKind.ALL)


def limit_wrt_segment(u: Term, seg: Segment) -> LimitReport:
    """Limit of u restricted to the segment, in the segment's own regime.

    On the limited naturals n stays below every power of w, so e-scales
    dominate; on halo/galaxy segments n runs to delta*w^q (delta below
    appreciable) resp. k*w^q (k limited), and each monomial contributes the
    minimal scale it approaches there.  Convergent segment limits in this
    fragment are reached on or just beyond the segment, hence strong.
    """
    if seg.kind is SegmentKind.ALL:
        return n_limit(u)
    if seg.kind is SegmentKind.FINITE:
        value = eval_at(u, seg.bound)
        return LimitReport(
            Status.CONVERGES,
            value,
            value.neutrix,
            True,
            f"finite segment: value at n={seg.bound}",
        )
    nf = normalize(u)
    q0 = seg.q if seg.kind in (SegmentKind.HALO, SegmentKind.GALAXY) else Fraction(0)
    halo = seg.kind is SegmentKind.HALO
    lines = [f"normal form: {nf}", f"segment regime: {seg}"]
    rep_terms = []
    minimal = scale.ZERO

    def join(nx: Neutrix, reason: str):
        nonlocal minimal
        minimal = minimal + nx
        lines.append("  " + reason)

    for (q, r, b, alt), c in nf.point:
        label = _point_text(c, q, r, b, alt)
        if b != 1:
            if b > 1 and q0 > 0:
                return _diverges(f"{label} runs through every scale on {seg}")
            if q0 > 0:
                join(scale.MICRO, f"{label} drops below every scale: microhalo")
            else:
                join(scale.pound(q) if b > 1 else scale.oslash(q), f"{label} moves through appreciable multiples of e^{q}")
            continue
        if r == 0:
            if alt:
                join(scale.pound(q), f"{label}: oscillation at scale e^{q}")
            else:
                rep_terms.append((c, q))
                lines.append(f"  constant {label} joins the representative")
            continue
        shift = q - q0 * r
        if r < 0:
            kind = scale.pound(shift) if halo else scale.oslash(shift)
            join(kind, f"{label} approaches scale e^{shift} from above" if halo else f"{label} vanishes through scale e^{shift}")
        else:
            kind = scale.oslash(shift) if halo else scale.pound(shift)
            join(kind, f"{label} fills scale e^{shift} from below" if halo else f"{label} grows through limited multiples of e^{shift}")
    for (r, b), nx in nf.noise:
        label = _noise_text(nx, r, b)
        if nx.is_full:
            return _diverges("full-line noise on the segment")
        if b != 1:
            if b > 1 and q0 > 0:
                return _diverges(f"{label} expands through every scale on {seg}")
            join(scale.MICRO if q0 > 0 else nx, f"{label} under geometric factor")
            continue
        if r == 0 or q0 == 0:
            join(nx, f"noise {label} is scale-invariant on {seg}")
            continue
        if halo:
            factor = scale.oslash(-q0 * r) if r > 0 else scale.pound(-q0 * r)
            join(nx * factor, f"noise {label} scaled by the segment regime")
        else:
            join(nx.scaled(1, -q0 * r), f"noise {label} shifted by e^{-q0 * r}")
    for (C, q, r, b) in nf.tails:
        # Remainder envelopes vanish in n; bound their segment contribution.
        if b != 1:
            join(scale.MICRO if q0 > 0 else scale.oslash(q), "remainder under geometric factor")
        elif r < 0:
            join(scale.pound(q - q0 * r) if halo else scale.oslash(q - q0 * r), "remainder envelope bound")
    limit = ExternalNumber(FormalSeries.from_terms(rep_terms), minimal)
    lines.append(f"limit {limit} on {seg}; entry on or just beyond the segment")
    return LimitReport(Status.CONVERGES, limit, minimal, True, "\n".join(lines))
