"""Seeded input generators for the benchmark workloads.

The generators live here, not in ``tests/``, so that editing a test can never
change what the benchmark measures.  Every generator takes a
``random.Random`` seeded from the workload seed and yields inputs without
end, so a run never queries the same input twice however fast the program
gets; the same seed gives the same stream, and :func:`digest` turns a prefix
of it into a short fingerprint that is printed with every run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Tuple

from flexnum import dsl, scale, seq
from flexnum.extnum import ExternalNumber, FormalSeries, from_neutrix, monomial
from flexnum.recur import RecurrenceSpec

# ---------------------------------------------------------------------------
# External numbers: the order-test distribution
# ---------------------------------------------------------------------------

# {0, M, e^q*o, e^q*L : q in -3..3}
NEUTRIX_POOL = [scale.ZERO, scale.MICRO] + [
    kind(q) for q in range(-3, 4) for kind in (scale.oslash, scale.pound)
]


def rand_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice((1, -1))


def rand_exponent(rng: random.Random) -> Fraction:
    """An exponent in -6..6 in steps of 1/2."""
    return Fraction(rng.randint(-12, 12), 2)


def rand_extnum(rng: random.Random, length: int, noise: scale.Neutrix) -> ExternalNumber:
    terms = [(rand_coeff(rng), rand_exponent(rng)) for _ in range(length)]
    return ExternalNumber(FormalSeries.from_terms(terms), noise)


# Pairs per stratified block of extnum_pairs.
PAIR_BLOCK = 16


def extnum_pairs(rng: random.Random) -> Iterator[Tuple[ExternalNumber, ExternalNumber]]:
    """Pairs of series of 0-3 terms plus a neutrix from the pool.

    Stratified: each block of 16 pairs holds every (length of a, length of b)
    combination once and uses every pool neutrix once for a and once for b.
    The marginals are uniform as with independent draws, but every whole
    block holds the same mix of shapes, so a run's cost does not hinge on how
    many long divisions one seed happened to draw.
    """
    lengths = [(i, j) for i in range(4) for j in range(4)]
    while True:
        na = rng.sample(NEUTRIX_POOL, len(NEUTRIX_POOL))
        nb = rng.sample(NEUTRIX_POOL, len(NEUTRIX_POOL))
        for (la, lb), xa, xb in zip(rng.sample(lengths, len(lengths)), na, nb):
            yield rand_extnum(rng, la, xa), rand_extnum(rng, lb, xb)


# ---------------------------------------------------------------------------
# Sequence terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeqCase:
    """One grammar term and whether the generator planted a division or a
    fractional power in it, the only constructs that can leave the decidable
    fragment."""

    term: seq.Term
    may_refuse: bool


def _small_extnum(rng: random.Random) -> ExternalNumber:
    terms = [(rand_coeff(rng), Fraction(rng.randint(0, 4), 2)) for _ in range(rng.randint(1, 2))]
    noise = rng.choice([scale.ZERO, scale.ZERO, scale.MICRO, scale.oslash(0),
                        scale.oslash(1), scale.pound(1), scale.pound(2)])
    return ExternalNumber(FormalSeries.from_terms(terms), noise)


def _vanishing(rng: random.Random) -> seq.Term:
    kind = rng.randrange(4)
    if kind == 0:
        return seq.Div(seq.Const(monomial(rand_coeff(rng), rng.randint(0, 2))),
                       seq.Pow(seq.N, Fraction(rng.randint(1, 3))))
    if kind == 1:
        return seq.Geom(Fraction(rng.randint(1, 3), rng.randint(4, 6)))
    if kind == 2:
        return seq.Mul(seq.Geom(Fraction(1, 2)), seq.Div(seq.Const(monomial(rand_coeff(rng))), seq.N))
    return seq.Pow(seq.N, Fraction(-rng.randint(1, 4), 2))


class _Leaves:
    """Leaf factory that records what it planted."""

    def __init__(self, rng: random.Random, divergent: bool):
        self.rng = rng
        self.divergent = divergent
        self.may_refuse = False

    # Relative weights of the leaf kinds: constants, vanishing atoms, the
    # alternating sign, noise, division by a sum, a fractional power of a sum
    # and (in divergent terms) a growing atom.
    WEIGHTS = (30, 20, 10, 10, 10, 10, 2, 20)

    def leaf(self) -> seq.Term:
        rng = self.rng
        kind = rng.choices(range(8), weights=self.WEIGHTS)[0]
        if kind == 1:
            return _vanishing(rng)
        if kind == 2:
            return seq.Mul(seq.ALT, _vanishing(rng))
        if kind == 3:
            return seq.Mul(seq.Const(monomial(rand_coeff(rng), Fraction(rng.randint(0, 4), 2))), seq.ALT)
        if kind == 4:
            nx = rng.choice(NEUTRIX_POOL[2:])
            return seq.neutrix_seq(nx, _vanishing(rng))
        if kind == 5:
            # Division by a sum whose dominant part is a precise constant.
            self.may_refuse = True
            den = seq.Add(seq.Const(monomial(rng.randint(1, 4))), _vanishing(rng))
            return seq.Div(seq.Const(_small_extnum(rng)), den)
        if kind == 6:
            # A fractional power of a sum: outside the fragment.
            self.may_refuse = True
            inner = seq.Add(seq.Const(monomial(rng.randint(1, 4))), _vanishing(rng))
            return seq.Pow(inner, Fraction(1, 2))
        if kind == 7 and self.divergent:
            return rng.choice([seq.Pow(seq.N, Fraction(rng.randint(1, 2))), seq.Geom(Fraction(3, 2))])
        return seq.Const(_small_extnum(rng))

    def term(self, depth: int) -> seq.Term:
        if depth <= 0:
            return self.leaf()
        op = self.rng.randrange(3)
        if op == 0:
            return seq.Add(self.term(depth - 1), self.term(depth - 1))
        if op == 1:
            return seq.Mul(self.term(depth - 1), self.term(depth - 1))
        return seq.Add(self.leaf(), self.term(depth - 1))


def rand_seq_case(rng: random.Random) -> SeqCase:
    """A depth 2-3 term; growing atoms are allowed in 60% of them, and about
    30% of all terms diverge."""
    leaves = _Leaves(rng, divergent=rng.random() < 0.6)
    term = leaves.term(rng.randint(2, 3))
    return SeqCase(term, leaves.may_refuse)


def seq_questions(rng: random.Random) -> Iterator[Tuple[SeqCase, SeqCase]]:
    while True:
        yield rand_seq_case(rng), rand_seq_case(rng)


# ---------------------------------------------------------------------------
# Numeric oracle inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumericCase:
    """Inputs of one numeric-oracle query (four calls)."""

    stability: RecurrenceSpec  # non-affine: sampled route
    affine_alpha: ExternalNumber
    affine_noise: scale.Neutrix
    affine_u0: ExternalNumber
    coeffs: Tuple[Fraction, ...]
    field_text: str
    field_eps: float
    field_y0: float
    path_seed: int
    # Parsed from field_text when the case is made, outside any query.
    field: Callable[[float, float], float] = dataclasses.field(repr=False, compare=False, default=None)


# Stability is judged modulo the recurrence's own noise level.
STABILITY_NOISE = scale.pound(1)

# Attractive slow-curve fields; {a} is a seeded rate in 1..2.
FIELDS = (
    "-({a})*y - y^3",
    "-({a} + t)*y",
    "-({a})*y/(1 + y^2)",
    "-2*({a})*y + y^2/4",
    "-({a})*y - t*y^3",
    "-(2*{a} + t)*y - y^3/3",
)


def numeric_case(rng: random.Random, order: int) -> NumericCase:
    alpha = Fraction(rng.randint(2, 6), 10)
    beta = Fraction(rng.randint(1, 3), 10)
    # Contracting near 0 (|f'| <= alpha + 2*beta*|u| < 1 on the sampled band),
    # but not affine, so stability is decided by sampling.
    f = dsl.parse_recur_rhs(f"({alpha} + o)*u - {beta}*u^2 + e*L")
    spec = RecurrenceSpec(f, monomial(0), horizon=200)
    a_alpha = monomial(Fraction(rng.randint(2, 7), 10)) + from_neutrix(scale.OSLASH)
    a_noise = rng.choice([scale.pound(1), scale.oslash(1), scale.pound(2)])
    a_u0 = monomial(Fraction(rng.randint(1, 8), 4))
    coeffs = tuple(rand_coeff(rng) for _ in range(order + 1))
    field = rng.choice(FIELDS).format(a=Fraction(rng.randint(4, 8), 4))
    eps = rng.choice((1e-4, 2e-4))
    y0 = rng.randint(4, 12) / 8
    return NumericCase(spec, a_alpha, a_noise, a_u0, coeffs, field, eps, y0, rng.randint(1, 10**6),
                       dsl.parse_scalar_field(field))


# Cases per cycle of numeric_cases: one per shadow order.
SHADOW_ORDERS = tuple(range(8, 17))


def numeric_cases(rng: random.Random) -> Iterator[NumericCase]:
    """Cycles of one case per shadow order 8..16, each cycle in seeded order
    (a fixed size mix per cycle)."""
    while True:
        orders = list(SHADOW_ORDERS)
        rng.shuffle(orders)
        for k in orders:
            yield numeric_case(rng, k)


def digest(items) -> str:
    """A 16-hex-digit fingerprint of a sequence of inputs (via ``repr`` of each)."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
