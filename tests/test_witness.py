"""Witness texts of limit reports, pinned line for line.

A report keeps its derivation as steps and writes the text only when
``witness`` is read.  The cases below make every line kind of
:func:`seq.n_limit` and :func:`seq.limit_wrt_segment` appear at least once.
"""

from fractions import Fraction

import pytest

from flexnum import dsl, seq
from flexnum.errors import ResultTooLarge

SEGMENTS = {
    "all": seq.all_naturals(),
    "limited": seq.limited(),
    "halo:1": seq.halo_times(1),
    "galaxy:1": seq.galaxy_times(1),
    "galaxy:2": seq.galaxy_times(2),
    "galaxy:3/2": seq.galaxy_times(Fraction(3, 2)),
    "finite:3": seq.finite(3),
}

GOLDEN = [
    ("2 + e*(-1)^n + 1/n + o/n + e^2*L", "all", [
        "normal form: n^-1 + 2 + e*(-1)^n + o*n^-1 + e^2*L",
        "  n^-1 vanishes",
        "  constant term 2 joins the representative",
        "  oscillation of amplitude 1*e^1 -> minimal neutrix joins e*L",
        "  o*n^-1 shrinks to 0",
        "  constant noise e^2*L survives",
        "limit 2 + e*L, minimal neutrix e*L, strong=True",
    ]),
    ("1/(1 + 1/n)", "all", [
        "normal form: -n^-1 + 1 + O(2*n^-2)",
        "  -n^-1 vanishes",
        "  constant term 1 joins the representative",
        "limit 1, minimal neutrix 0, strong=False",
    ]),
    ("n^2 + 1", "all", [
        "point term n^2 grows without bound",
    ]),
    ("R + 1/n", "all", [
        "the sequence is the full line at every index",
    ]),
    ("n*o + 1", "all", [
        "noise term o*n expands to the full line",
    ]),
    ("e^(1/2)*(-1)^n - e*L*(1/2)^n + 3/2*w^(1/2)", "all", [
        "normal form: 3/2*w^(1/2) + e^(1/2)*(-1)^n + e*L*(1/2)^n",
        "  constant term 3/2*w^(1/2) joins the representative",
        "  oscillation of amplitude 1*e^1/2 -> minimal neutrix joins e^(1/2)*L",
        "  e*L*(1/2)^n shrinks to 0",
        "limit 3/2*w^(1/2) + e^(1/2)*L, minimal neutrix e^(1/2)*L, strong=True",
    ]),
    ("3 + e*(-1)^n + 1/n + e^2*n + (1/2)^n + o/n + e^3*L*n + e*L*(1/2)^n + e^3*L", "limited", [
        "normal form: n^-1 + (1/2)^n + 3 + e*(-1)^n + e^2*n + o*n^-1 + e*L*(1/2)^n + e^3*L + e^3*L*n",
        "segment regime: limited",
        "  n^-1 vanishes through scale e^0",
        "  (1/2)^n moves through appreciable multiples of e^0",
        "  constant 3 joins the representative",
        "  e*(-1)^n: oscillation at scale e^1",
        "  e^2*n grows through limited multiples of e^2",
        "  noise o*n^-1 is scale-invariant on limited",
        "  e*L*(1/2)^n under geometric factor",
        "  noise e^3*L is scale-invariant on limited",
        "  noise e^3*L*n is scale-invariant on limited",
        "limit 3 + o on limited; entry on or just beyond the segment",
    ]),
    ("3 + e*(-1)^n + 1/n + e^2*n + (1/2)^n + o/n + e^3*L*n + e*L*(1/2)^n + e^3*L", "halo:1", [
        "normal form: n^-1 + (1/2)^n + 3 + e*(-1)^n + e^2*n + o*n^-1 + e*L*(1/2)^n + e^3*L + e^3*L*n",
        "segment regime: halo:1",
        "  n^-1 approaches scale e^1 from above",
        "  (1/2)^n drops below every scale: microhalo",
        "  constant 3 joins the representative",
        "  e*(-1)^n: oscillation at scale e^1",
        "  e^2*n fills scale e^1 from below",
        "  noise o*n^-1 scaled by the segment regime",
        "  e*L*(1/2)^n under geometric factor",
        "  noise e^3*L is scale-invariant on halo:1",
        "  noise e^3*L*n scaled by the segment regime",
        "limit 3 + e*L on halo:1; entry on or just beyond the segment",
    ]),
    ("3 + e*(-1)^n + 1/n + e^2*n + (1/2)^n + o/n + e^3*L*n + e*L*(1/2)^n + e^3*L", "galaxy:2", [
        "normal form: n^-1 + (1/2)^n + 3 + e*(-1)^n + e^2*n + o*n^-1 + e*L*(1/2)^n + e^3*L + e^3*L*n",
        "segment regime: galaxy:2",
        "  n^-1 vanishes through scale e^2",
        "  (1/2)^n drops below every scale: microhalo",
        "  constant 3 joins the representative",
        "  e*(-1)^n: oscillation at scale e^1",
        "  e^2*n grows through limited multiples of e^0",
        "  noise o*n^-1 shifted by e^2",
        "  e*L*(1/2)^n under geometric factor",
        "  noise e^3*L is scale-invariant on galaxy:2",
        "  noise e^3*L*n shifted by e^-2",
        "limit L on galaxy:2; entry on or just beyond the segment",
    ]),
    ("2^n", "halo:1", [
        "2^n runs through every scale on halo:1",
    ]),
    ("o*2^n + 1", "halo:1", [
        "o*2^n expands through every scale on halo:1",
    ]),
    ("R + 1", "limited", [
        "full-line noise on the segment",
    ]),
    ("1/(1 + 1/n)", "halo:1", [
        "normal form: -n^-1 + 1 + O(2*n^-2)",
        "segment regime: halo:1",
        "  -n^-1 approaches scale e^1 from above",
        "  constant 1 joins the representative",
        "  remainder envelope bound",
        "limit 1 + e*L on halo:1; entry on or just beyond the segment",
    ]),
    ("1/(1 + 1/n)", "galaxy:3/2", [
        "normal form: -n^-1 + 1 + O(2*n^-2)",
        "segment regime: galaxy:3/2",
        "  -n^-1 vanishes through scale e^3/2",
        "  constant 1 joins the representative",
        "  remainder envelope bound",
        "limit 1 + e^(3/2)*o on galaxy:3/2; entry on or just beyond the segment",
    ]),
    ("1/(1 + (1/2)^n)", "limited", [
        "normal form: -(1/2)^n + 1 + O(2*(1/4)^n)",
        "segment regime: limited",
        "  -(1/2)^n moves through appreciable multiples of e^0",
        "  constant 1 joins the representative",
        "  remainder under geometric factor",
        "limit 1 + o on limited; entry on or just beyond the segment",
    ]),
    ("1/(1 + (1/2)^n)", "halo:1", [
        "normal form: -(1/2)^n + 1 + O(2*(1/4)^n)",
        "segment regime: halo:1",
        "  -(1/2)^n drops below every scale: microhalo",
        "  constant 1 joins the representative",
        "  remainder under geometric factor",
        "limit 1 + M on halo:1; entry on or just beyond the segment",
    ]),
    ("1/n + o", "finite:3", [
        "finite segment: value at n=3",
    ]),
    ("-n^-1 + 2^n", "limited", [
        "normal form: -n^-1 + 2^n",
        "segment regime: limited",
        "  -n^-1 vanishes through scale e^0",
        "  2^n moves through appreciable multiples of e^0",
        "limit L on limited; entry on or just beyond the segment",
    ]),
    ("(w^5 + w^2*L)/(n + 3)", "all", [
        "normal form: w^5*n^-1 + w^2*L*n^-1  [for large n]",
        "  w^5*n^-1 vanishes",
        "  w^2*L*n^-1 shrinks to 0",
        "limit 0, minimal neutrix 0, strong=False",
    ]),
    ("(w^5 + w^2*L)/(n + 3)", "galaxy:1", [
        "normal form: w^5*n^-1 + w^2*L*n^-1  [for large n]",
        "segment regime: galaxy:1",
        "  w^5*n^-1 vanishes through scale e^-4",
        "  noise w^2*L*n^-1 shifted by e^1",
        "limit w^4*o on galaxy:1; entry on or just beyond the segment",
    ]),
]


@pytest.mark.parametrize("text, segment, lines", GOLDEN, ids=[f"{t} on {s}" for t, s, _ in GOLDEN])
def test_witness_text(text, segment, lines):
    report = seq.limit_wrt_segment(dsl.parse_seq(text), SEGMENTS[segment])
    assert report.witness == "\n".join(lines)
    assert report.to_dict()["witness"] == report.witness


def test_a_text_witness_is_returned_as_given():
    report = seq.n_limit(dsl.parse_seq("1/n + o"))
    text = "a derivation\nwritten by hand"
    given = seq.LimitReport(report.status, report.limit, report.minimal_neutrix, report.strong, text)
    assert given.witness == text and given.to_dict()["witness"] == text


def test_a_verdict_stands_when_its_text_is_too_large_to_print():
    report = seq.n_limit(dsl.parse_seq("((2^1000)^1000)^n"))
    assert report.status is seq.Status.DIVERGES
    with pytest.raises(ResultTooLarge):
        report.witness
