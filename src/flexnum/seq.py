"""Flexible sequences as closed-form terms and their convergence calculus.

A flexible sequence assigns an external number to every index n.  The term
grammar below covers rational functions of n mixed with geometric factors,
the alternating sign and external-number coefficients:

    Const(x) | N (the index) | ALT ((-1)^n) | Add | Mul | Div
    | Pow(term, rational) | Geom(b)  (b^n, b a positive rational)

Every walk over a term is a rule table handed to :func:`fold`.  A ``Var``
leaf names a variable outside the grammar (the previous value of a
recurrence, the arguments of a field); only compiled folds give it a value.
There are two compiled folds: ``_EVAL`` evaluates exactly in external
arithmetic, and :func:`compile_float` in doubles, for recurrences and
slow-curve fields alike.

Convergence of arbitrary external sequences is undecidable; on this fragment
every term normalizes to a finite sum of

    point monomials   c * e^q * n^r * b^n * (-1)^n     (exact)
    noise monomials   N * n^r * b^n                    (N a neutrix, exact)
    tail bounds       O(C * e^q * n^r * b^n)           (from division only)

and all limit questions are decided on that normal form.  The form is
canonical (sorted keys, like monomials summed, absorbed ones dropped), so it
does not depend on operand order.  ``_form`` builds it from raw monomial
lists: products and quotients; sums, negations, parity maps and constants
merge or map parts that are canonical already, and a leaf is one monomial.
Each question normalizes its term once; the Cauchy test and the order
relations reuse the form they hold.
Order questions decide alternation per parity, on that form: on the even and
on the odd indices (-1)^n is a constant, so each alternating monomial
becomes a plain one.
Eventual containment u_n ⊆ v_n has one test, ``_subset``: it decides
:func:`eventually_subset` and strong convergence, which is eventual
containment in the limit (u_n ⊆ lim u for all large n).

A term keeps its normal form (or its refusal) and a form its global limit
report, so each is computed once however many questions ask, and is freed
with the object that keeps it.

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
from .extnum import ExternalNumber, FormalSeries, _monomial_text, _rat_text, from_neutrix, monomial
from .extnum import scale_noise, subset
from .extnum import div as ext_div
from .scale import Neutrix, Rational, exact

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


def _children(node: Term) -> tuple:
    """The child terms of a node, left to right: the only code that knows
    which fields of a node are its children."""
    cls = type(node)
    if cls is Add or cls is Mul:
        return (node.left, node.right)
    if cls is Div:
        return (node.num, node.den)
    if cls is Pow:
        return (node.base,)
    return ()


def fold(u: Term, rules: Mapping[type, Callable]):
    """Fold a term bottom up: each node becomes ``rules[type(node)](node, *kids)``
    with its children already folded, left to right.

    The walk keeps its own stack, so deep terms do not meet the recursion
    limit.  A node without a rule raises TypeError when the walk reaches it.
    """
    # Pre-order visiting the right child first; reversed, it is the
    # left-to-right post-order in which the rules run.
    order = []
    stack = [u]
    while stack:
        node = stack.pop()
        kids = _children(node)
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


def _same_term(u: Term, v: Term) -> bool:
    """``u == v`` on its own stack: the two trees compared node by node in
    lockstep, so deep terms do not meet the recursion limit."""
    stack = [(u, v)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        kids = _children(a)
        if not kids:
            if a != b:
                return False
        elif type(a) is not type(b) or (type(a) is Pow and a.exponent != b.exponent):
            return False
        else:
            stack.extend(zip(kids, _children(b)))
    return True


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
            # Binary powering: external multiplication is associative.
            out = monomial(1)
            while e:
                if e & 1:
                    out = out * v
                e >>= 1
                if e:
                    v = v * v
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


def compile_float(u: Term, const: Callable, slots: Mapping[str, int]) -> Callable:
    """Compile u into ``fn(x, y, z=None)`` over doubles or numpy arrays alike.

    ``Index`` reads x and a ``Var`` reads x or y as ``slots`` maps its name.
    ``const(node)`` builds the closure of each ``Const`` leaf, in fold order;
    z is passed through untouched for those closures to read.  Only Python
    operators are applied, so this module still never imports numpy.
    """

    def var(v):
        slot = slots.get(v.name)
        if slot is None:
            raise TypeError(f"unknown variable {v!r}")
        return (lambda x, y, z=None: x) if slot == 0 else (lambda x, y, z=None: y)

    def geom(g):
        b = float(g.base)
        return lambda x, y, z=None: b ** x

    def power(p, a):
        k = float(p.exponent)
        return lambda x, y, z=None: a(x, y, z) ** k

    return fold(u, {
        Const: const,
        Var: var,
        Index: lambda _: lambda x, y, z=None: x,
        AltSign: lambda _: lambda x, y, z=None: float((-1) ** (x % 2)),
        Geom: geom,
        Add: lambda _, a, b: lambda x, y, z=None: a(x, y, z) + b(x, y, z),
        Mul: lambda _, a, b: lambda x, y, z=None: a(x, y, z) * b(x, y, z),
        Div: lambda _, a, b: lambda x, y, z=None: a(x, y, z) / b(x, y, z),
        Pow: power,
    })


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------

# Every exponent of e, power of n and geometric base in a key is as
# scale.exact gives it: an int when integral, so keys hash cheaply.  A
# quotient of two of them must go through Fraction (int / int is a float).
# Point key: exponent of e, power of n, geometric base, alternating flag.
PKey = Tuple[Rational, Rational, Rational, bool]
# Noise key: power of n, geometric base (the e-scale lives inside the neutrix).
NKey = Tuple[Rational, Rational]
# Tail bound: |remainder| <= C * e^q * n^r * b^n eventually.
TKey = Tuple[Fraction, Rational, Rational, Rational]

# Coefficient constants stay Fractions, so _ONE / c never divides two ints.
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
        return _form_text(self.point, self.noise, self.tails, self.trimmed)


def _form_text(point, noise, tails, trimmed: bool) -> str:
    """The text of a normal form, from its parts."""
    bits = []
    for (q, r, b, alt), c in point:
        bits.append(_point_text(c, q, r, b, alt))
    for (r, b), nx in noise:
        bits.append(_noise_text(nx, r, b))
    for (C, q, r, b) in tails:
        bits.append("O(" + _point_text(C, q, r, b, False) + ")")
    text = " + ".join(bits) if bits else "0"
    return text + "  [for large n]" if trimmed else text


def _factor_text(r: Rational, b: Rational, alt: bool) -> list:
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


def _point_text(c: Fraction, q: Rational, r: Rational, b: Rational, alt: bool) -> str:
    head = _monomial_text(c, q, leading=True)
    factors = _factor_text(r, b, alt)
    if not factors:
        return head
    joined = "*".join(factors)
    # A unit coefficient is written as a bare sign: n, -n^-1.
    return head[:-1] + joined if head in ("1", "-1") else f"{head}*{joined}"


def _noise_text(nx: Neutrix, r: Rational, b: Rational) -> str:
    factors = _factor_text(r, b, False)
    return "*".join([str(nx)] + factors) if factors else str(nx)


def _growth(r: Rational, b: Rational) -> int:
    """Eventual behaviour of n^r * b^n: -1 vanishes, 0 stays constant, 1 grows."""
    if b != 1:
        return 1 if b > 1 else -1
    return (r > 0) - (r < 0)


def _size(q: Rational, r: Rational, b: Rational) -> Tuple[Rational, Rational, Rational]:
    """Sort key of the eventual magnitude of e^q * n^r * b^n (global regime):
    geometric base first, then the power of n, then the e-exponent."""
    return (b, r, -q)


def _form(
    point: Iterable[Tuple[PKey, Fraction]] = (),
    noise: Iterable[Tuple[NKey, Neutrix]] = (),
    tails: Iterable[TKey] = (),
    trimmed: bool = False,
) -> NormalForm:
    """A canonical normal form from raw monomial lists, whatever their order:
    the constructor of products and quotients.  :func:`_nf_add`,
    :func:`_nf_neg`, :func:`_on_parity`, :func:`_nf_const` and the leaves
    build the same form directly from parts that are already canonical.

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
    # nsum holds at most one neutrix per (r, b) envelope: one lookup each.
    kept = [(key, c) for key, c in psum.items() if c and not nsum.get(key[1:3], scale.ZERO).absorbs(key[0])]
    noise_items = tuple(sorted(nsum.items()))
    kept_tails = []
    for C, q, r, b in tails:
        if _growth(r, b) >= 0:
            raise Unnormalizable("division remainder does not vanish")
        if _point_in_noise(q, r, b, noise_items):
            trimmed = True
        else:
            kept_tails.append((abs(C), q, r, b))
    return NormalForm(tuple(sorted(kept)), noise_items, tuple(sorted(kept_tails)), trimmed)


_ONE_NF = _form([((0, 0, 1, False), _ONE)])


def _merge(xs: tuple, ys: tuple) -> list:
    """Two key-sorted tuples of (key, value) pairs as one key-sorted list of
    (key, x, y), where x or y is None when that side lacks the key."""
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        (kx, x), (ky, y) = xs[i], ys[j]
        if kx == ky:
            out.append((kx, x, y))
            i, j = i + 1, j + 1
        elif kx < ky:
            out.append((kx, x, None))
            i += 1
        else:
            out.append((ky, None, y))
            j += 1
    return out + [(k, x, None) for k, x in xs[i:]] + [(k, None, y) for k, y in ys[j:]]


def _nf_add(a: NormalForm, b: NormalForm) -> NormalForm:
    """a + b by merging the two canonical forms: equal keys are summed and
    zero sums dropped.  Neutrices are totally ordered, so summed noise absorbs
    what either operand's noise absorbs: a point or tail that its own form
    kept is tested only against the other operand's noise, and a point of
    both operands needs no test."""
    # Forms are built as tuple(list): tuple(generator) resizes its result, and
    # freed resized tuples fill CPython's tuple free lists (peak memory).
    noise = tuple([(k, y if x is None else x if y is None else x + y) for k, x, y in _merge(a.noise, b.noise)])
    a_noise, b_noise = dict(a.noise), dict(b.noise)
    point = []
    for key, x, y in _merge(a.point, b.point):
        if x is None:
            nx, c = a_noise.get(key[1:3]), y
        elif y is None:
            nx, c = b_noise.get(key[1:3]), x
        else:
            nx, c = None, x + y
        if c and (nx is None or not nx.absorbs(key[0])):
            point.append((key, c))
    tails = a.tails + b.tails
    trimmed = a.trimmed or b.trimmed
    if tails:
        kept = [t for t in a.tails if not _point_in_noise(*t[1:], b.noise)]
        kept += [t for t in b.tails if not _point_in_noise(*t[1:], a.noise)]
        trimmed = trimmed or len(kept) < len(tails)
        tails = tuple(sorted(kept))
    return NormalForm(tuple(point), noise, tails, trimmed)


def _nf_neg(a: NormalForm) -> NormalForm:
    """-a: the keys, the noise and the tails of a stay as they are."""
    return NormalForm(tuple([(k, -c) for k, c in a.point]), a.noise, a.tails, a.trimmed)


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


def _magnitudes(nf: NormalForm) -> Iterable[TKey]:
    """Envelope magnitudes (C, q, r, b) bounding each component of nf."""
    for (q, r, b, _alt), c in nf.point:
        yield (abs(c), q, r, b)
    for (r, b), nx in nf.noise:
        # A neutrix monomial is bounded by an appreciable multiple of its scale.
        if nx.is_full:
            raise Unnormalizable("cannot bound the full line inside a product tail")
        if nx.is_mono:
            yield (_ONE, _mono_bound(nx), r, b)
        elif nx.is_micro:
            yield (_ONE, 10 ** 6, r, b)
    for (C, q, r, b) in nf.tails:
        yield (C, q, r, b)


def _mono_bound(nx: Neutrix) -> Rational:
    """An exponent p with the monomial neutrix nx below e^p: e^q*o lies
    below e^q, and e^q*L below e^(q-1)."""
    return nx.q - (1 if nx.kind is scale.Kind.POUND else 0)


def _dominant_point(nf: NormalForm) -> Optional[Tuple[PKey, Fraction]]:
    """The largest point monomial under :func:`_size`.

    Callers still have to confirm that it strictly dominates the remaining
    monomials.
    """
    if not nf.point:
        return None
    return max(nf.point, key=lambda kv: _size(*kv[0][:3]))


def _point_in_noise(q: Rational, r: Rational, b: Rational, noise: Tuple[Tuple[NKey, Neutrix], ...]) -> bool:
    """Whether c*e^q*n^r*b^n eventually lies inside some noise monomial
    nx*n^rN*b^nN of ``noise`` (global regime)."""
    for (rN, bN), nx in noise:
        if nx.is_full:
            return True
        if (b, r) < (bN, rN) or ((b, r) == (bN, rN) and nx.absorbs(q)):
            return True
    return False


def _noise_in_noise(key: NKey, n1: Neutrix, noise: Tuple[Tuple[NKey, Neutrix], ...]) -> bool:
    """Whether n1*n^r1*b1^n is eventually a subset of some noise monomial
    n2*n^r2*b2^n of ``noise``."""
    r1, b1 = key
    for (r2, b2), n2 in noise:
        if n2.is_full:
            return True
        if n1.is_full:
            # The full line stays the full line under every scalar factor.
            continue
        if (b1, r1) < (b2, r2) or ((b1, r1) == (b2, r2) and n1 <= n2):
            return True
    return False


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
    if _point_in_noise(q0, r0, b0, den.noise):
        raise Unnormalizable("denominator noise is not dominated: not eventually zeroless")

    inv_c0 = _ONE / c0

    def over_m0(point, noise):
        """Point and noise monomials divided by m0 = c0*e^q0*n^r0*b0^n."""
        return (
            (((q - q0, r - r0, exact(Fraction(b, b0)), s != s0), c * inv_c0) for (q, r, b, s), c in point),
            (((r - r0, exact(Fraction(b, b0))), nx.scaled(inv_c0, -q0)) for (r, b), nx in noise),
        )

    # w = den/m0 - 1: every monomial strictly below 1.
    wf = _form(*over_m0((kv for kv in den.point if kv[0] != key0), den.noise))
    # num / m0, exact.
    basef = _form(
        *over_m0(num.point, num.noise),
        ((C * abs(inv_c0), q - q0, r - r0, exact(Fraction(b, b0))) for (C, q, r, b) in num.tails),
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
    for _ in range(_MAX_DIV_ROUNDS):
        power = _nf_mul(power, w_neg)
        # Keep what is not yet inside the noise of the result so far.
        point = [(k, c) for k, c in power.point if not _point_in_noise(*k[:3], result.noise)]
        noise = [(k, nx) for k, nx in power.noise if not _noise_in_noise(k, nx, result.noise)]
        tails = [t for t in power.tails if not _point_in_noise(*t[1:], result.noise)]
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


def _dominant_magnitude(nf: NormalForm) -> TKey:
    mags = list(_magnitudes(nf))
    best = max(mags, key=lambda m: _size(*m[1:]))
    total = sum((m[0] for m in mags), _ZERO)
    return (total, best[1], best[2], best[3])


def _nf_pow(a: NormalForm, k: Fraction) -> NormalForm:
    if k.denominator == 1:
        e = k.numerator
        if e >= 0:
            out = a if e else _ONE_NF
            for _ in range(e - 1):
                out = _nf_mul(out, a)
            return out
        return _nf_div(_ONE_NF, _nf_pow(a, Fraction(-e)))
    if a.noise or a.tails or len(a.point) != 1:
        raise Unnormalizable("fractional power of a non-monomial sequence")
    (q, r, b, s), c = a.point[0]
    if s:
        raise Unnormalizable("fractional power of an alternating term")
    croot = _rational_pow(c, k)
    broot = _rational_pow(b, k)
    if croot is None or broot is None:
        raise Unnormalizable("fractional power leaves the rational scale")
    return _form([((exact(q * k), exact(r * k), exact(broot), False), croot)])


def _nf_const(c: Const) -> NormalForm:
    """The constant sequence c.  An external number is canonical already: its
    exponents ascend and its neutrix absorbs none of its terms."""
    nx = c.value.neutrix
    return NormalForm(
        tuple([((q, 0, 1, False), coeff) for coeff, q in c.value.rep.terms]),
        () if nx.is_zero else (((0, 1), nx),),
    )


_NORMALIZE = {
    Const: _nf_const,
    # A leaf is one monomial of coefficient 1: canonical as it stands.
    Index: lambda _: NormalForm((((0, 1, 1, False), _ONE),)),
    AltSign: lambda _: NormalForm((((0, 0, 1, True), _ONE),)),
    Geom: lambda g: NormalForm((((0, 0, exact(g.base), False), _ONE),)),
    Add: lambda _, a, b: _nf_add(a, b),
    Mul: lambda _, a, b: _nf_mul(a, b),
    Div: lambda _, a, b: _nf_div(a, b),
    Pow: lambda p, a: _nf_pow(a, p.exponent),
}


def normalize(u: Term) -> NormalForm:
    """Decidable normal form of a grammar term.

    Raises Unnormalizable for terms outside the fragment (a denominator that
    is not eventually zeroless, fractional powers of sums, a divided
    remainder that does not vanish).  The term keeps its form, or its
    refusal as type and arguments, raised afresh on every later ask.
    """
    kept = u.__dict__.get("_nf")
    if kept is None:
        try:
            kept = u.__dict__["_nf"] = fold(u, _NORMALIZE)
        except Unnormalizable as exc:
            u.__dict__["_nf"] = (type(exc), exc.args)
            raise
    elif type(kept) is tuple:
        raise kept[0](*kept[1])
    return kept


# ---------------------------------------------------------------------------
# Limits
# ---------------------------------------------------------------------------


class Status(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"


@dataclass(frozen=True)
class LimitReport:
    """A limit verdict and its derivation.  ``steps`` is the witness text, or
    the (template, args) lines that :attr:`witness` writes it from when read;
    an argument (fn, *args) there stands for the text fn(*args)."""

    status: Status
    limit: Optional[ExternalNumber]
    minimal_neutrix: Optional[Neutrix]
    strong: bool
    steps: str | Tuple[Tuple[str, tuple], ...]

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

    @property
    def witness(self) -> str:
        if type(self.steps) is str:
            return self.steps
        return "\n".join(t.format(*[a[0](*a[1:]) if type(a) is tuple else a for a in args]) for t, args in self.steps)

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "limit": str(self.limit) if self.limit is not None else None,
            "minimal_neutrix": str(self.minimal_neutrix) if self.minimal_neutrix else None,
            "strong": self.strong,
            "witness": self.witness,
        }


def _diverges(template: str, *args) -> LimitReport:
    return LimitReport(Status.DIVERGES, None, None, False, ((template, args),))


def _form_step(nf: NormalForm) -> tuple:
    # The form's parts, not the form: the form keeps its report.
    return ("normal form: {}", ((_form_text, nf.point, nf.noise, nf.tails, nf.trimmed),))


def n_limit(u: Term) -> LimitReport:
    """Global limit: n eventually dominates every power of w.

    Classification per monomial: vanishing (r < 0 or b < 1) contributes
    nothing; a constant point term joins the representative; bounded
    oscillation of amplitude c*e^q forces the minimal neutrix up to e^q*L;
    a constant noise monomial survives as itself; growth in n diverges.
    """
    return _report(normalize(u))


def _report(nf: NormalForm) -> LimitReport:
    """The global limit report of a form, kept on the form."""
    report = nf.__dict__.get("_report")
    if report is None:
        report = nf.__dict__["_report"] = _limit(nf)
    return report


def _limit(nf: NormalForm) -> LimitReport:
    """The global limit of a normal form (see :func:`n_limit`).

    The limit is strong when u_n eventually lies inside it, decided by the
    same ``_subset`` as :func:`eventually_subset`.
    """
    steps = [_form_step(nf)]
    rep_terms = []
    minimal = scale.ZERO
    for (q, r, b, alt), c in nf.point:
        label = (_point_text, c, q, r, b, alt)
        growth = _growth(r, b)
        if growth > 0:
            return _diverges("point term {} grows without bound", label)
        if growth < 0:
            steps.append(("  {} vanishes", (label,)))
            continue
        if alt:
            nx = scale.pound(q)
            minimal = minimal + nx
            steps.append(("  oscillation of amplitude {}*e^{} -> minimal neutrix joins {}", ((_rat_text, c), q, nx)))
        else:
            rep_terms.append((c, q))
            steps.append(("  constant term {} joins the representative", (label,)))
    for (r, b), nx in nf.noise:
        if nx.is_full:
            return _diverges("the sequence is the full line at every index")
        growth = _growth(r, b)
        if growth > 0:
            return _diverges("noise term {} expands to the full line", (_noise_text, nx, r, b))
        if growth < 0:
            steps.append(("  {} shrinks to 0", ((_noise_text, nx, r, b),)))
            continue
        minimal = minimal + nx
        steps.append(("  constant noise {} survives", (nx,)))
    # Tails vanish by construction.
    limit = ExternalNumber(FormalSeries.from_terms(rep_terms), minimal)
    strong = _subset(nf, _nf_const(Const(limit)))
    steps.append(("limit {}, minimal neutrix {}, strong={}", (limit, minimal, strong)))
    return LimitReport(Status.CONVERGES, limit, minimal, strong, tuple(steps))


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
        Status.CONVERGES, lim, lim.neutrix, not lim.neutrix.is_zero, (("{}: predicted neutrix {}", (op, k)),)
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
    if _same_term(u, v):
        return True
    try:
        nu, nv = normalize(u), normalize(v)
    except Unnormalizable:
        return False
    return _subset(nu, nv)


def _subset(nu: NormalForm, nv: NormalForm) -> bool:
    noise_v = nv.noise
    for key, nx in nu.noise:
        if not _noise_in_noise(key, nx, noise_v):
            return False
    diff = _nf_add(nu, _nf_neg(nv))
    for key, c in diff.point:
        if not _point_in_noise(*key[:3], noise_v):
            return False
    for t in list(nu.tails) + list(nv.tails):
        if not _point_in_noise(*t[1:], noise_v):
            return False
    return True


def _nf_eventually_positive(d: NormalForm) -> Optional[bool]:
    """True/False when the sign of d_n is eventually decided; None when the
    point part is eventually swallowed by d's own noise.  d does not
    alternate: the largest surviving monomial decides the sign, provided
    every tail lies strictly below it."""
    surviving = [(key, c) for key, c in d.point if not _point_in_noise(*key[:3], d.noise)]
    if not surviving:
        tails_ok = all(_point_in_noise(*t[1:], d.noise) for t in d.tails)
        return None if tails_ok else False
    (q, r, b, _alt), c = max(surviving, key=lambda kv: _size(*kv[0][:3]))
    top = _size(q, r, b)
    return c > 0 and all(top > _size(*t[1:]) for t in d.tails)


def _on_parity(nf: NormalForm, s: int) -> NormalForm:
    """nf on the indices where (-1)^n = s: each alternating monomial
    c*e^q*n^r*b^n*(-1)^n becomes s*c*e^q*n^r*b^n there."""
    point = []
    for (q, r, b, alt), c in nf.point:
        key = (q, r, b, False)
        if alt:
            c = c * s
            # Keys sort with the alternating flag last, so a plain twin comes
            # just before; as in _nf_add, their sum needs no absorption test.
            if point and point[-1][0] == key:
                c = point.pop()[1] + c
                if not c:
                    continue
        point.append((key, c))
    return NormalForm(tuple(point), nf.noise, nf.tails, nf.trimmed)


def _le(nu: NormalForm, nv: NormalForm) -> bool:
    """u_n <= v_n for all large n, for forms that do not alternate."""
    if nu == nv:
        # Identical normal forms including remainder bounds: same sequence.
        return True
    positive = _nf_eventually_positive(_nf_add(nv, _nf_neg(nu)))
    if positive is None:
        # v - u is eventually inside its own noise, which contains 0; then the
        # relation reduces to containment u_n ⊆ v_n.
        return _subset(nu, nv)
    return positive


def eventually_le(u: Term, v: Term) -> bool:
    """Pointwise u_n <= v_n (the external relation) for all large n.

    Alternation is decided per parity, on the normal forms themselves: on
    the even and on the odd indices (-1)^n is a constant, and the relation
    holds when it holds on both.
    """
    if _same_term(u, v):
        return True
    try:
        nu, nv = normalize(u), normalize(v)
    except Unnormalizable:
        return False
    if not any(key[3] for key, _ in nu.point + nv.point):
        return _le(nu, nv)
    return all(_le(_on_parity(nu, s), _on_parity(nv, s)) for s in (1, -1))


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
            lower_to(_mono_bound(nx))
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
    report = _report(nf)
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
            (("finite segment: value at n={}", (seg.bound,)),),
        )
    nf = normalize(u)
    q0 = seg.q if seg.kind in (SegmentKind.HALO, SegmentKind.GALAXY) else Fraction(0)
    halo = seg.kind is SegmentKind.HALO
    steps = [_form_step(nf), ("segment regime: {}", (seg,))]
    rep_terms = []
    minimal = scale.ZERO

    def join(nx: Neutrix, template: str, *args):
        nonlocal minimal
        minimal = minimal + nx
        steps.append(("  " + template, args))

    for (q, r, b, alt), c in nf.point:
        label = (_point_text, c, q, r, b, alt)
        if b != 1:
            if b > 1 and q0 > 0:
                return _diverges("{} runs through every scale on {}", label, seg)
            if q0 > 0:
                join(scale.MICRO, "{} drops below every scale: microhalo", label)
            else:
                join(scale.pound(q) if b > 1 else scale.oslash(q), "{} moves through appreciable multiples of e^{}", label, q)
            continue
        if r == 0:
            if alt:
                join(scale.pound(q), "{}: oscillation at scale e^{}", label, q)
            else:
                rep_terms.append((c, q))
                steps.append(("  constant {} joins the representative", (label,)))
            continue
        shift = q - q0 * r
        if r < 0:
            kind = scale.pound(shift) if halo else scale.oslash(shift)
            join(kind, "{} approaches scale e^{} from above" if halo else "{} vanishes through scale e^{}", label, shift)
        else:
            kind = scale.oslash(shift) if halo else scale.pound(shift)
            join(kind, "{} fills scale e^{} from below" if halo else "{} grows through limited multiples of e^{}", label, shift)
    for (r, b), nx in nf.noise:
        label = (_noise_text, nx, r, b)
        if nx.is_full:
            return _diverges("full-line noise on the segment")
        if b != 1:
            if b > 1 and q0 > 0:
                return _diverges("{} expands through every scale on {}", label, seg)
            join(scale.MICRO if q0 > 0 else nx, "{} under geometric factor", label)
            continue
        if r == 0 or q0 == 0:
            join(nx, "noise {} is scale-invariant on {}", label, seg)
            continue
        shift = -q0 * r
        if halo:
            factor = scale.oslash(shift) if r > 0 else scale.pound(shift)
            join(nx * factor, "noise {} scaled by the segment regime", label)
        else:
            join(nx.scaled(1, shift), "noise {} shifted by e^{}", label, shift)
    for (C, q, r, b) in nf.tails:
        # Remainder envelopes vanish in n; bound their segment contribution.
        if b != 1:
            join(scale.MICRO if q0 > 0 else scale.oslash(q), "remainder under geometric factor")
        elif r < 0:
            join(scale.pound(q - q0 * r) if halo else scale.oslash(q - q0 * r), "remainder envelope bound")
    limit = ExternalNumber(FormalSeries.from_terms(rep_terms), minimal)
    steps.append(("limit {} on {}; entry on or just beyond the segment", (limit, seg)))
    return LimitReport(Status.CONVERGES, limit, minimal, True, tuple(steps))
