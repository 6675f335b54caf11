"""Text syntax for external numbers, sequence terms and small scalar formulas.

Tokens: nonnegative integers, the letters ``e`` (the scale generator),
``w`` (= e^-1), ``o`` (infinitesimals), ``L`` (limiteds), ``M`` (microhalo),
``R`` (the real line), the index ``n``, operators ``+ - * / ^`` and
parentheses.  ``^`` binds tighter than ``*``/``/`` than ``+``/``-``; unary
minus is allowed.  Rational exponents are written ``e^(3/2)``.

``X^n`` is the geometric sequence for a positive rational X and the
alternating sign for X = -1, e.g. ``(-1)^n/n``.  Recurrence right-hand sides
additionally use ``u`` for the previous value; slow-curve fields use ``t``
and ``y``.

Printers produce one canonical form per value and ``parse(print(v)) == v``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from . import scale, seq
from .errors import FlexError, ParseError
from .extnum import ExternalNumber, _rat_text, from_neutrix, monomial
from .extnum import div as ext_div
from .scale import Neutrix
from .seq import ALT, Const, Geom, Term, Var, fold

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z])|([()+\-*/^]))")

_NEUTRIX_LETTERS = {"o": scale.OSLASH, "L": scale.POUND, "M": scale.MICRO, "R": scale.FULL}

# Deepest parenthesis nesting the recursive descent accepts; each level costs
# several interpreter frames.
_MAX_DEPTH = 100


@dataclass
class _Token:
    kind: str  # "int", "name", "op", "end"
    text: str
    pos: int


def _lex(text: str) -> List[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError("unrecognized character", position=bad, source=text)
        if m.group(1):
            out.append(_Token("int", m.group(1), m.start(1)))
        elif m.group(2):
            out.append(_Token("name", m.group(2), m.start(2)))
        else:
            out.append(_Token("op", m.group(3), m.start(3)))
        pos = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    """Recursive descent over the shared grammar.

    ``names`` maps letters to leaf values; leaves and intermediate results
    are ExternalNumber (folded eagerly) or Term nodes, mixed freely.
    """

    def __init__(self, text: str, names: dict):
        self.text = text
        self.tokens = _lex(text)
        self.i = 0
        self.names = names
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ParseError("syntax error", position=tok.pos, expected=repr(op), source=self.text)

    def parse(self):
        value = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                "trailing input", position=tok.pos, expected="end of expression", source=self.text
            )
        return value

    def expression(self):
        value = self.signed_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                rhs = self.signed_term()
                value = _add(value, -rhs if tok.text == "-" else rhs)
            else:
                return value

    def signed_term(self):
        tok = self.peek()
        negate = False
        if tok.kind == "op" and tok.text in "+-":
            self.take()
            negate = tok.text == "-"
        value = self.term()
        return -value if negate else value

    def term(self):
        value = self.power()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.take()
                rhs = self.power()
                value = _mul(value, rhs) if tok.text == "*" else _div(value, rhs, self.text, tok.pos)
            else:
                return value

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.take()
            return self.exponent_for(base)
        return base

    def exponent_for(self, base):
        tok = self.peek()
        if tok.kind == "name" and tok.text == "n":
            # Geometric / alternating sequence: the base must be a precise rational.
            self.take()
            if "n" not in self.names:
                raise ParseError(
                    "X^n only makes sense in a sequence expression",
                    position=tok.pos,
                    source=self.text,
                )
            q = _as_rational(base)
            if q is None:
                raise ParseError(
                    "only rational bases may be raised to the power n",
                    position=tok.pos,
                    source=self.text,
                )
            if q == -1:
                return ALT
            if q > 0:
                return Geom(q)
            if q < 0:
                return seq.Mul(ALT, Geom(-q))
            raise ParseError("0^n is just 0; write 0", position=tok.pos, source=self.text)
        k = self.rational_exponent()
        if abs(k.numerator) > 1000 or k.denominator > 1000:
            raise ParseError("exponent out of range", position=tok.pos, source=self.text)
        return _pow(base, k, self.text, tok.pos)

    def rational_exponent(self) -> Fraction:
        tok = self.peek()
        sign = 1
        if tok.kind == "op" and tok.text in "+-":
            self.take()
            sign = -1 if tok.text == "-" else 1
            tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.take()
            inner_sign = 1
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                inner_sign = -1 if tok.text == "-" else 1
            num = self.integer()
            den = 1
            tok = self.peek()
            if tok.kind == "op" and tok.text == "/":
                self.take()
                den = self.integer()
            self.expect_op(")")
            return Fraction(sign * inner_sign * num, den)
        num = self.integer()
        return Fraction(sign * num)

    def integer(self) -> int:
        tok = self.take()
        if tok.kind != "int":
            raise ParseError("syntax error", position=tok.pos, expected="an integer", source=self.text)
        return int(tok.text)

    def atom(self):
        tok = self.take()
        if tok.kind == "int":
            return monomial(int(tok.text))
        if tok.kind == "name":
            if tok.text in self.names:
                return self.names[tok.text]
            raise ParseError(
                f"unknown name {tok.text!r}",
                position=tok.pos,
                expected="one of " + ", ".join(sorted(self.names)),
                source=self.text,
            )
        if tok.kind == "op" and tok.text == "(":
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                raise ParseError(
                    "parentheses nested too deeply",
                    position=tok.pos,
                    expected=f"at most {_MAX_DEPTH} levels",
                    source=self.text,
                )
            value = self.expression()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ParseError(
            "syntax error", position=tok.pos, expected="a value or '('", source=self.text
        )


def _as_rational(value) -> Optional[Fraction]:
    if isinstance(value, ExternalNumber) and value.neutrix.is_zero:
        if value.rep.is_zero:
            return Fraction(0)
        if len(value.rep.terms) == 1 and value.rep.terms[0][1] == 0:
            return value.rep.terms[0][0]
    return None


def _add(a, b):
    if isinstance(a, ExternalNumber) and isinstance(b, ExternalNumber):
        return a + b
    return seq.Add(seq.as_term(a), seq.as_term(b))


def _mul(a, b):
    if isinstance(a, ExternalNumber) and isinstance(b, ExternalNumber):
        return a * b
    return seq.Mul(seq.as_term(a), seq.as_term(b))


def _div(a, b, text, pos):
    if isinstance(a, ExternalNumber) and isinstance(b, ExternalNumber):
        try:
            return ext_div(a, b)
        except FlexError as exc:
            raise ParseError(str(exc), position=pos, source=text) from exc
    return seq.Div(seq.as_term(a), seq.as_term(b))


def _pow(base, k: Fraction, text, pos):
    if isinstance(base, ExternalNumber):
        try:
            return seq._ext_pow(base, k)
        except FlexError as exc:
            raise ParseError(str(exc), position=pos, source=text) from exc
    return seq.Pow(base, k)


def _base_names() -> dict:
    names = {"e": monomial(1, 1), "w": monomial(1, -1)}
    names.update({k: from_neutrix(v) for k, v in _NEUTRIX_LETTERS.items()})
    return names


def parse_extnum(text: str) -> ExternalNumber:
    """Parse an external-number literal such as ``5 + o`` or ``w^2 + w*L``."""
    value = _Parser(text, _base_names()).parse()
    if isinstance(value, ExternalNumber):
        return value
    raise ParseError("expected an external number, found a sequence", position=0, source=text)


def parse_seq(text: str) -> Term:
    """Parse a sequence term such as ``1/n + o`` or ``(-1)^n/n^2``."""
    names = _base_names()
    names["n"] = seq.N
    value = _Parser(text, names).parse()
    return seq.as_term(value)


def parse_neutrix(text: str) -> Neutrix:
    value = parse_extnum(text)
    if value.rep.is_zero:
        return value.neutrix
    raise ParseError("expected a neutrix (no precise part)", position=0, source=text)


def parse_recur_rhs(text: str):
    """Parse a recurrence right-hand side over n, u and external literals."""
    names = _base_names()
    names["n"] = seq.N
    names["u"] = Var("u")
    return seq.as_term(_Parser(text, names).parse())


def parse_scalar_field(text: str):
    """Parse a two-variable expression f(t, y) into a float-valued callable.

    The tree is compiled once by :func:`seq.compile_float`.  Its only names
    are t and y, so every constant in it is a precise rational.
    """
    tree = _Parser(text, {"t": Var("t"), "y": Var("y")}).parse()

    def number(c: Const):
        value = c.value.rep.eval(1.0)
        return lambda t, y, z=None: value

    return seq.compile_float(seq.as_term(tree), number, {"t": 0, "y": 1})


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def print_extnum(x: ExternalNumber) -> str:
    return str(x)


def print_seq(t: Term) -> str:
    text, _ = fold(t, _PRINT)
    return text


_ATOM, _POW, _PROD, _SUM = 3, 2, 1, 0


def _wrap(text: str, prec: int, context: int) -> str:
    return f"({text})" if prec < context else text


def _print_const(c: Const):
    inner = str(c.value)
    prec = _SUM if (" + " in inner or " - " in inner) else (_PROD if "*" in inner or inner.startswith("-") or "/" in inner else _ATOM)
    return inner, prec


def _print_geom(g: Geom):
    b = g.base
    base = _rat_text(b) if b.denominator == 1 else f"({_rat_text(b)})"
    return f"{base}^n", _POW


def _print_infix(op: str, prec: int):
    def rule(_, left, right):
        (lt, lp), (rt, rp) = left, right
        return f"{_wrap(lt, lp, prec)}{op}{_wrap(rt, rp, prec + 1)}", prec

    return rule


def _print_pow(p: seq.Pow, base):
    bt, bp = base
    k = p.exponent
    if k.denominator == 1 and k >= 0:
        exp = str(k.numerator)
    else:
        exp = f"({k.numerator}/{k.denominator})" if k.denominator != 1 else f"({k.numerator})"
    return f"{_wrap(bt, bp, _ATOM)}^{exp}", _POW


# Each node prints to (text, precedence); a child is parenthesized when it
# binds looser than its slot in the parent.
_PRINT = {
    Const: _print_const,
    seq.Index: lambda _: ("n", _ATOM),
    seq.AltSign: lambda _: ("(-1)^n", _POW),
    Geom: _print_geom,
    seq.Add: _print_infix(" + ", _SUM),
    seq.Mul: _print_infix("*", _PROD),
    seq.Div: _print_infix("/", _PROD),
    seq.Pow: _print_pow,
}
