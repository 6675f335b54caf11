"""The cli-readme command list with hand-written expected answers.

The nine README examples appear verbatim, plus leading-flag twins of the two
examples that put ``--format`` after the subcommand.  The argument parser
rejects those two ("unrecognized arguments", exit 2), a known defect, so they
are marked ``known_defect``: they stay in the list and are run and reported
with every cli-readme run, but are kept out of the timed mix, whose answers
must all pass.  Their twins carry the same computation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple


@dataclass(frozen=True)
class Command:
    name: str
    argv: Tuple[str, ...]
    exit_code: int
    expect: Callable[[str], Optional[str]] = field(repr=False)  # stdout -> problem, or None
    known_defect: bool = False


def _text(expected: str):
    def check(out: str) -> Optional[str]:
        return None if out == expected else f"stdout {out!r}, expected {expected!r}"

    return check


def _recur_json(out: str) -> Optional[str]:
    try:
        payload = json.loads(out)
    except ValueError:
        return f"stdout is not JSON: {out[:80]!r}"
    flags = [payload.get(k) for k in ("stable", "asymptotically_stable", "strongly_asymptotically_stable")]
    if flags != ["proven"] * 3:
        return f"stability flags {flags}, expected proven"
    evidence = payload.get("evidence", {})
    if evidence.get("route") != "affine analysis" or evidence.get("limit_neutrix") != "e*L":
        return f"evidence {evidence}"
    return None


def _match_csv(out: str) -> Optional[str]:
    lines = out.splitlines()
    # 4e-3 / (1e-4 / 20) = 800 steps; every fourth of the 801 points is printed.
    if not lines or lines[0] != "t,y,region" or len(lines) != 202:
        return f"csv shape: {len(lines)} lines starting {lines[:1]}"
    if lines[1] != "0.0,1.0,fast" or not lines[-1].endswith(",eps_tube"):
        return f"csv rows: first {lines[1]!r}, last {lines[-1]!r}"
    return None


_RECUR = ("recur", "--f", "(1/2 + o)*u + e*L", "--u0", "1", "--neutrix", "e*L",
          "--samples", "1000", "--horizon", "200")
_MATCH = ("match", "--f", "-y", "--eps", "1e-4", "--y0", "1", "--tmax", "4e-3", "--dt", "auto")

COMMANDS = (
    Command("eval", ("eval", "w^2 + w*L"), 0, _text("w^2 + w*L\n")),
    Command("eval-n", ("eval", "--n", "2", "1/n + o"), 0, _text("1/2 + o\n")),
    Command("limit-witness", ("limit", "1/n + o", "--witness"), 0, _text(
        "status: converges\nlimit: o\nminimal neutrix: o\nstrong: True\n"
        "normal form: n^-1 + o\n  n^-1 vanishes\n  constant noise o survives\n"
        "limit o, minimal neutrix o, strong=True\n")),
    Command("limit-wrt", ("limit", "--wrt", "limited", "1/n"), 0, _text(
        "status: converges\nlimit: o\nminimal neutrix: o\nstrong: True\n")),
    Command("limit-to", ("limit", "(-1)^n", "--to", "0", "--neutrix", "L"), 0, _text(
        "status: converges\nlimit: L\nminimal neutrix: L\nstrong: True\n")),
    Command("cauchy", ("cauchy", "--neutrix", "e*L", "1/n + e*L"), 0, _text("e*L-Cauchy: True\n")),
    Command("recur-json", _RECUR + ("--format", "json"), 0, _recur_json, known_defect=True),
    Command("borel-ritt", ("borel-ritt", "--coeffs", "1,1,2,6,24", "--order", "4", "--check-all"), 0, _text(
        "b = 1 + e + 2*e^2 + 6*e^3 + 24*e^4 + M\nshadow level 0: ok\nshadow level 1: ok\n"
        "shadow level 2: ok\nshadow level 3: ok\n")),
    Command("match-csv", _MATCH + ("--format", "csv"), 0, _match_csv, known_defect=True),
    Command("recur-json-lead", ("--format", "json") + _RECUR, 0, _recur_json),
    Command("match-csv-lead", ("--format", "csv") + _MATCH, 0, _match_csv),
)

TIMED = tuple(c for c in COMMANDS if not c.known_defect)
KNOWN_DEFECTS = tuple(c for c in COMMANDS if c.known_defect)
