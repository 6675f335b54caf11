import argparse
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest

from flexnum import apps, cli, dsl, recur, seq
from flexnum.concretize import Concretization
from flexnum.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_extnum(self, capsys):
        code, out, _ = run(capsys, "eval", "5 + o")
        assert code == 0 and out.strip() == "5 + o"

    def test_seq_at_index(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "2", "1/n + o")
        assert code == 0 and out.strip() == "1/2 + o"

    def test_error_exit(self, capsys):
        code, _, err = run(capsys, "eval", "1/o")
        assert code == 2 and "zero" in err

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "eval", "5 + + *")
        assert code == 2 and "position" in err

    @pytest.mark.parametrize("expr, message", [
        ("1/(1 + e)", "1/(1 + e) has no finite series form against neutrix 0"),
        ("(e+M)/(1+e)", "1/(1 + e) has no finite series form against neutrix M"),
        ("1/(1+e+e^65*L)", "series inverse of 1 + e against neutrix e^65*L needs 65 rounds, more than 64"),
        ("1/(e+e^2+e^67*L)", "series inverse of e + e^2 against neutrix e^65*L needs 66 rounds, more than 64"),
    ], ids=["exact", "microhalo", "65-rounds", "shifted"])
    def test_division_refusal_names_the_divisor(self, capsys, expr, message):
        code, out, err = run(capsys, "eval", expr)
        caret = " " * (expr.index("/") + 2) + "^"
        assert (code, out) == (2, "")
        assert err == f"error: {message} at position {expr.index('/')}\n  {expr}\n{caret}\n"

    def test_division_at_the_round_limit(self, capsys):
        # The powers of e reach e^64*L in the 64th and last round.
        code, out, _ = run(capsys, "eval", "1/(1+e+e^64*L)")
        want = "1" + "".join(f" {'-' if k % 2 else '+'} {'e' if k == 1 else f'e^{k}'}" for k in range(1, 64))
        assert (code, out) == (0, want + " + e^64*L\n")


class TestLimit:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "limit", "1/n + o")
        assert code == 0 and "limit: o" in out

    def test_claim(self, capsys):
        code, _, _ = run(capsys, "limit", "(-1)^n", "--to", "0", "--neutrix", "L")
        assert code == 0
        code, _, _ = run(capsys, "limit", "(-1)^n", "--to", "0", "--neutrix", "o")
        assert code == 1

    def test_wrt_segment(self, capsys):
        code, out, _ = run(capsys, "limit", "--wrt", "limited", "1/n")
        assert code == 0 and "limit: o" in out
        code, out, _ = run(capsys, "limit", "--wrt", "halo:1", "1/n")
        assert code == 0 and "e*L" in out

    @pytest.mark.parametrize("segment, regime, entry", [
        ("halo:1", "  n^-1 approaches scale e^1 from above", "limit e*L"),
        ("galaxy:1", "  n^-1 vanishes through scale e^1", "limit e*o"),
    ])
    def test_wrt_halo_and_galaxy_witness(self, capsys, segment, regime, entry):
        code, out, err = run(capsys, "limit", "--wrt", segment, "--witness", "1/n")
        assert (code, err) == (0, "")
        assert out.endswith(f"normal form: n^-1\nsegment regime: {segment}\n{regime}\n"
                            f"{entry} on {segment}; entry on or just beyond the segment\n")

    @pytest.mark.parametrize("segment, limit", [("finite:3", "1/3 + o"), ("all", "o")])
    def test_wrt_finite_and_all(self, capsys, segment, limit):
        code, out, _ = run(capsys, "limit", "--wrt", segment, "1/n + o")
        assert (code, out) == (0, f"status: converges\nlimit: {limit}\nminimal neutrix: o\nstrong: True\n")

    @pytest.mark.parametrize("claim", [("--to", "0", "--neutrix", "L"), ("--to", "0"), ("--to", "1", "--neutrix", "L")],
                             ids=["0-in-L", "0-in-o", "1-in-L"])
    def test_wrt_claim_is_n_convergence(self, capsys, claim):
        code, out, _ = run(capsys, "limit", "--wrt", "limited", "1/n", *claim)
        assert (code, out) == (0, "status: converges\nlimit: o\nminimal neutrix: o\nstrong: True\n")
        code, _, _ = run(capsys, "limit", "--wrt", "limited", "1/n", "--to", "1")
        assert code == 1

    @pytest.mark.parametrize("wrt", [(), ("--wrt", "limited")], ids=["global", "segment"])
    def test_full_line_claim_refused(self, capsys, wrt):
        code, out, err = run(capsys, "limit", *wrt, "1/n", "--to", "1", "--neutrix", "R")
        assert (code, out, err) == (2, "", "error: N-convergence is only considered for N != R\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "limit", "1/n + o")
        payload = json.loads(out)
        assert code == 0
        assert payload["status"] == "converges"
        assert payload["limit"] == "o"
        assert payload["minimal_neutrix"] == "o"
        assert payload["strong"] is True
        assert "witness" in payload

    def test_divergent(self, capsys):
        code, out, _ = run(capsys, "limit", "n")
        assert code == 1 and "diverges" in out

    @pytest.mark.parametrize("expr, rounds, noise", [
        # The k-th round adds (-e^(1/30))^k; e^2*o absorbs it from k = 61 on,
        # and e^(32/15)*L = e^(64/30)*L from k = 64 on, the last round allowed.
        ("(1 + e^2*o)/(1 + e^(1/30) + 1/n)", 61, "e^2*o"),
        ("1/(1 + e^(1/30) + e^(32/15)*L + 1/n)", 64, "e^(32/15)*L"),
    ], ids=["61-rounds", "64-rounds"])
    def test_division_closing_within_the_cap(self, capsys, expr, rounds, noise):
        def power(k):
            q = Fraction(k, 30)
            return "e" if q == 1 else f"e^{q}" if q.denominator == 1 else f"e^({q})"
        limit = "1" + "".join(f" {'-' if k % 2 else '+'} {power(k)}" for k in range(1, rounds)) + f" + {noise}"
        code, out, _ = run(capsys, "limit", expr)
        assert (code, out) == (0, f"status: converges\nlimit: {limit}\nminimal neutrix: {noise}\nstrong: True\n")

    @pytest.mark.parametrize("expr, ratio", [
        ("1/(1 + e^(1/30) + 1/n)", "e^(1/30)"),
        ("(3/2*w^3*(-1)^n)/(2 + 1/2*w^3 + 5*w^(3/2) + e^5 + M)", "10*e^(3/2)"),
        ("1/(1 + e^(1/30) + e^(13/6)*L + 1/n)", "e^(1/30)"),
        ("(2^n + n)/(3 + 1/n + (1/2)^n/n^2 + (1/3)^n)", "1/3*n^-1"),
        ("(w^3 + w*(1/2)^n/n + 2^n)/(6*e^2 + n^-2 + (1/2)^n/n)", "1/6*w^2*n^-2"),
    ], ids=["no-noise", "microhalo", "65-rounds", "growing-over-vanishing", "growing-over-vanishing-e"])
    def test_division_that_never_closes(self, capsys, expr, ratio):
        message = (f"series division does not close within 64 rounds: "
                   f"a term times ({ratio})^k neither vanishes nor enters the noise")
        code, out, err = run(capsys, "limit", expr)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestCauchy:
    def test_holds(self, capsys):
        code, _, _ = run(capsys, "cauchy", "--neutrix", "e*L", "1/n + e*L")
        assert code == 0

    def test_fails(self, capsys):
        code, _, _ = run(capsys, "cauchy", "--neutrix", "o", "(-1)^n")
        assert code == 1


class TestRecur:
    def test_affine_json(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "recur",
            "--f",
            "(1/2 + o)*u + e*L",
            "--u0",
            "1",
            "--neutrix",
            "e*L",
            "--horizon",
            "50",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["stable"] == "proven"
        assert payload["strongly_asymptotically_stable"] == "proven"

    def test_expansion_exit(self, capsys):
        code, _, _ = run(
            capsys, "recur", "--f", "2*u", "--u0", "1", "--neutrix", "o", "--horizon", "20"
        )
        assert code == 1

    def test_affine_csv_has_one_row_per_evidence_field(self, capsys):
        code, out, _ = run(
            capsys, "recur", "--f", "(1/2 + o)*u + e*L", "--u0", "1", "--neutrix", "e*L", "--format", "csv"
        )
        rows = out.splitlines()
        assert code == 0
        assert rows[:4] == [
            "stable,proven",
            "asymptotically_stable,proven",
            "strongly_asymptotically_stable,proven",
            "evidence.route,affine analysis",
        ]
        keys = [row.split(",", 1)[0] for row in rows[3:]]
        assert keys == [f"evidence.{k}" for k in ("route", "alpha", "f_noise", "limit_neutrix")]
        assert "evidence.alpha,1/2 + o" in rows and "evidence.limit_neutrix,e*L" in rows


    # One case per branch of the affine analysis that no other test reaches;
    # the last one respells the second.
    @pytest.mark.parametrize("f, u0, neutrix, flags, evidence", [
        ("(1/2 + o)*u + e*L", "1", "e^2*L", ["falsified"] * 3,
         {"route": "affine analysis", "escape": "step noise e*L already exceeds e^2*L"}),
        ("u*(1/2)", "1", "0", ["proven", "proven", "falsified"],
         {"route": "affine analysis", "strong": "a nonzero difference never reaches exactly 0"}),
        ("(1 + o)*u", "1", "o", ["unknown"] * 3,
         {"route": "affine analysis inconclusive (|1 + o| < 1 fails)"}),
        ("u/4 + u/4", "1", "0", ["proven", "proven", "falsified"],
         {"route": "affine analysis", "alpha": "1/2", "strong": "a nonzero difference never reaches exactly 0"}),
    ], ids=["noise-escapes", "zero-noise", "touches-1", "respelled"])
    def test_affine_branches(self, capsys, f, u0, neutrix, flags, evidence):
        code, out, _ = run(capsys, "--format", "json", "recur", "--f", f, "--u0", u0, "--neutrix", neutrix)
        payload = json.loads(out)
        got = [payload[k] for k in ("stable", "asymptotically_stable", "strongly_asymptotically_stable")]
        assert code == (1 if "falsified" in flags else 0)
        assert got == flags
        assert {k: payload["evidence"].get(k) for k in evidence} == evidence

    # A gap 1 - |alpha| that is infinitesimal: the differences settle in
    # N_f/(1 - |alpha|), larger than the step noise N_f.
    @pytest.mark.parametrize("f, neutrix, flag, limit_neutrix", [
        ("(1 - e)*u + e*L", "e*L", "falsified", "L"),
        ("(1 - e^2)*u + e*L", "e*L", "falsified", "w*L"),
        ("(1 - e)*u + e^3*L", "e*L", "proven", "e^2*L"),
        ("(1 - e)*u + e^3*L", "e^3*L", "falsified", "e^2*L"),
        ("(1 - e^10)*u + e*L", "e*L", "falsified", "w^9*L"),  # the model's factor rounds to 1
    ], ids=["gap-e", "gap-e^2", "gap-e-proven", "gap-e-falsified", "gap-e^10"])
    def test_infinitesimal_gap(self, capsys, f, neutrix, flag, limit_neutrix):
        code, out, _ = run(capsys, "--format", "json", "recur", "--f", f, "--u0", "0", "--neutrix", neutrix)
        payload = json.loads(out)
        assert code == (1 if flag == "falsified" else 0)
        assert [payload[k] for k in ("stable", "asymptotically_stable", "strongly_asymptotically_stable")] == [flag] * 3
        evidence = payload["evidence"]
        assert (evidence["route"], evidence["limit_neutrix"]) == ("affine analysis", limit_neutrix)
        if flag == "falsified":
            assert evidence["escape"] == f"differences settle in {limit_neutrix}, which exceeds {neutrix}"

    def test_model_factor_rounding_to_1_keeps_the_exact_verdict(self, capsys):
        code, out, _ = run(capsys, "recur", "--f", "(1 - e^10)*u", "--u0", "0", "--neutrix", "0")
        assert code == 1
        assert out == (
            "stable: proven\nasymptotically stable: proven\nstrongly asymptotically stable: falsified\n"
            "  route: affine analysis\n  alpha: 1 - e^10\n  f_noise: 0\n"
            "  limit_neutrix: 0\n  strong: a nonzero difference never reaches exactly 0\n"
        )

    # Verdicts that a float failure off the reference path used to refuse:
    # a noise radius past double range, full-line step noise, a perturbed
    # path past double range (an escape) and one off the reals (nothing).
    _FALSIFIED = "stable: falsified\nasymptotically stable: falsified\nstrongly asymptotically stable: falsified\n"
    _SAMPLED = "  route: sampled falsification\n  samples: {}\n  horizon: 200\n"

    @pytest.mark.parametrize("argv, code, out", [
        (("--f", "u/2 + e^(-400)*L", "--neutrix", "e*L"), 1, _FALSIFIED + (
            "  route: affine analysis\n  alpha: 1/2\n  f_noise: w^400*L\n  limit_neutrix: w^400*L\n"
            "  escape: step noise w^400*L already exceeds e*L\n")),
        (("--f", "2*u", "--neutrix", "w^400*L"), 1, _FALSIFIED + (
            "  route: affine analysis (expansion)\n  alpha: 2\n  f_noise: 0\n")),
        (("--f", "u/2 + R", "--neutrix", "e*L"), 1, _FALSIFIED + (
            "  route: affine analysis\n  alpha: 1/2\n  f_noise: R\n  limit_neutrix: R\n"
            "  escape: step noise R already exceeds e*L\n")),
        (("--f", "u + u^2 + e*L", "--neutrix", "e*L", "--samples", "200", "--horizon", "200"), 1,
         _FALSIFIED + _SAMPLED.format(200) + "  stability_counterexample_d0: -0.0019283850641124006\n"),
        (("--f", "u^(1/2) + e*L", "--neutrix", "e*L", "--samples", "200"), 1,
         _FALSIFIED + _SAMPLED.format(200) + "  stability_counterexample_d0: 0.0007177884312980845\n"),
        (("--f", "(-u^2)^(1/2) + e*L", "--neutrix", "e*L", "--samples", "100"), 0,
         "stable: unknown\nasymptotically stable: unknown\nstrongly asymptotically stable: unknown\n"
         + _SAMPLED.format(100)),
    ], ids=["noise-past-double-range", "expansion-modulo-w^400*L", "full-line-noise", "overflow-escapes",
            "root-escapes", "root-of-negative-shows-nothing"])
    def test_float_failure_off_the_reference_is_a_verdict(self, capsys, argv, code, out):
        got_code, got, err = run(capsys, "recur", "--u0", "0", *argv)
        assert (got_code, err) == (code, "")
        # The sampled routes' last line lists the tolerance scales.
        assert got.startswith(out) and got.count("\n") - out.count("\n") == (1 if "samples" in out else 0)

    def test_contraction_proven_however_spelled(self, capsys):
        code, out, _ = run(
            capsys, "recur", "--f", "u/2 + e*L", "--u0", "0", "--neutrix", "e*L", "--eps0", "1e-3", "--seed", "0"
        )
        assert code == 0
        assert out.startswith("stable: proven\nasymptotically stable: proven\nstrongly asymptotically stable: proven\n")
        assert "  route: affine analysis\n" in out


class TestCsv:
    def rows(self, capsys, *argv):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and all(len(row) == 2 for row in rows), rows
        return code, dict(rows)

    def test_list_value_is_one_field(self, capsys):
        code, rows = self.rows(
            capsys, "recur", "--f", "u/2 + u^2 + e*L", "--u0", "0", "--neutrix", "e*L", "--samples", "10",
            "--horizon", "5",
        )
        scales = json.loads(rows["evidence.tolerance_scales"])
        assert code == 0 and len(scales) == 8
        assert all(isinstance(s, float) and isinstance(ok, bool) for s, ok in scales)

    def test_boolean_is_json(self, capsys):
        code, rows = self.rows(capsys, "limit", "1/n + o", "--to", "0", "--neutrix", "o")
        assert code == 0 and (rows["strong"], rows["claim_holds"]) == ("true", "true")

    def test_multiline_witness_is_one_field(self, capsys):
        code, rows = self.rows(capsys, "limit", "1/n + o", "--witness")
        _, text, _ = run(capsys, "limit", "1/n + o", "--witness")
        # The text output is four lines, then the witness.
        assert code == 0 and "\n" in rows["witness"]
        assert rows["witness"] == text.split("\n", 4)[4].rstrip("\n")


class TestBorelRitt:
    def test_check_all(self, capsys):
        code, out, _ = run(
            capsys, "borel-ritt", "--coeffs", "1,1,2,6,24", "--order", "4", "--check-all"
        )
        assert code == 0 and "b = 1 + e + 2*e^2 + 6*e^3 + 24*e^4 + M" in out


    @pytest.mark.parametrize("options, message", [
        (("--delta", "1"), "delta must be at most 1/2, got 1"),
        (("--delta", "51/100"), "delta must be at most 1/2, got 51/100"),
        (("--micro-exp", "0"), "micro_exp must exceed delta (1/2), got 0"),
        (("--micro-exp", "1/2"), "micro_exp must exceed delta (1/2), got 1/2"),
        (("--delta", "1/8", "--micro-exp", "1/8"), "micro_exp must exceed delta (1/8), got 1/8"),
    ], ids=["delta-1", "delta-above-half", "micro-exp-0", "micro-exp-at-delta", "micro-exp-at-small-delta"])
    def test_a_model_wider_than_its_chain_is_refused(self, capsys, options, message):
        code, out, err = run(capsys, "borel-ritt", "--coeffs", "1,1", "--order", "1", *options)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("options", [("--delta", "1/2"), ("--micro-exp", "51/100")], ids=["delta-half", "micro-exp-above"])
    def test_the_boundaries_stay_legal(self, capsys, options):
        code, out, _ = run(capsys, "borel-ritt", "--coeffs", "1,1", "--order", "1", *options)
        assert (code, out) == (0, "b = 1 + e + M\nshadow level 0: ok\n")


class TestMatch:
    def test_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "csv",
            "match",
            "--f",
            "-y",
            "--eps",
            "1e-4",
            "--y0",
            "1",
            "--tmax",
            "4e-3",
            "--dt",
            "auto",
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "t,y,region"
        assert lines[1].endswith("fast")
        assert lines[-1].endswith("eps_tube")

    _ARGS = ("match", "--f", "-y", "--eps", "1e-4", "--y0", "1", "--tmax", "4e-3")

    def test_text(self, capsys):
        code, out, _ = run(capsys, *self._ARGS)
        assert (code, out) == (0, "halo entry: 0.000465 (radius 0.01)\neps-tube entry: 0.000465 (radius 0.01)\n"
                                  "violations: none\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", *self._ARGS)
        assert code == 0
        assert json.loads(out) == {"t_enter_halo": 0.000465, "t_enter_eps_tube": 0.000465, "halo_radius": 0.01,
                                   "tube_radius": 0.01, "violations": [], "claim_holds": True}

    def test_not_attractive_is_error(self, capsys):
        code, _, err = run(
            capsys, "match", "--f", "y", "--eps", "1e-4", "--y0", "1", "--tmax", "1e-3", "--dt", "auto"
        )
        assert code == 2 and "approach" in err


def _readme_commands():
    with open(README) as fh:
        block = fh.read().split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("flexnum ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_lines_exit_0(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 0, err


_LAYERS_PROGRAM = """
import sys
import flexnum
loaded = sorted(name for name in sys.modules if name.startswith("flexnum."))
assert loaded == [], f"import flexnum loaded {loaded}"
from flexnum.cli import main
for argv in ARGVS:
    assert main(argv) == 0, argv
from flexnum import dsl
assert dsl.parse_scalar_field("-y + t*y/2")(1.0, 4.0) == -2.0
assert "numpy" not in sys.modules, "a symbolic command imported numpy"
"""


def _child_env(**changes):
    """This environment with ``src`` on PYTHONPATH; a change of None unsets."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(seq.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update(changes)
    return {k: v for k, v in env.items() if v is not None}


def _run_program(program, **changes):
    # A fresh interpreter: this test process has imported every layer already.
    proc = subprocess.run([sys.executable, "-c", program], env=_child_env(**changes),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_symbolic_commands_start_without_numpy():
    symbolic = [argv for argv in _readme_commands() if argv[0] in ("eval", "limit", "cauchy")]
    assert len(symbolic) >= 4, symbolic
    _run_program(f"ARGVS = {symbolic!r}\n" + _LAYERS_PROGRAM)


README_RECUR = next(argv for argv in _readme_commands() if argv[0] == "recur")

# Runs flexnum.cli as `python -m` does, noting OPENBLAS_NUM_THREADS as it
# stands when numpy is first imported.
_ENTRY_PROGRAM = """
import os, runpy, sys
seen = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Watch())
sys.argv = ["flexnum", *ARGV]
try:
    runpy.run_module("flexnum.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
assert seen[:1] == [WANT], seen
"""


@pytest.mark.parametrize("given, want", [(None, "1"), ("2", "2")], ids=["unset", "explicit"])
def test_entry_starts_numpy_with_one_blas_thread_unless_told(given, want):
    _run_program(f"ARGV = {README_RECUR!r}\nWANT = {want!r}\n" + _ENTRY_PROGRAM, OPENBLAS_NUM_THREADS=given)


def test_main_in_process_leaves_the_environment_alone():
    program = f"ARGV = {README_RECUR!r}\n" + """
import os, sys
before = dict(os.environ)
from flexnum import cli
assert dict(os.environ) == before
assert cli.main(ARGV) == 0 and "numpy" in sys.modules
assert dict(os.environ) == before
"""
    _run_program(program, OPENBLAS_NUM_THREADS=None)


def test_console_script_is_the_entry_function():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(README), "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["flexnum"]
    assert target == f"{cli.__name__}:{cli.run.__name__}"


@pytest.mark.parametrize("argv", [
    ("eval", "w^2 + w*L"),
    ("--format", "csv", "match", "--f", "-y", "--eps", "1e-4", "--y0", "1", "--tmax", "4e-1", "--dt", "auto"),
], ids=["flushed-at-exit", "mid-output"])
def test_closed_stdout_exits_quietly(argv):
    # The read end is closed before the child starts, so its first write to
    # stdout fails, whether in a print or in the last flush.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "flexnum.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=_child_env(), text=True, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, "")


class TestCommonOptions:
    def test_leading_trailing_and_default_format(self, capsys):
        _, leading, _ = run(capsys, "--format", "json", "limit", "1/n + o")
        _, trailing, _ = run(capsys, "limit", "1/n + o", "--format", "json")
        _, default, _ = run(capsys, "limit", "1/n + o")
        assert json.loads(leading) == json.loads(trailing)
        assert default.startswith("status: converges")

    def test_leading_value_survives_the_subcommand(self, capsys, monkeypatch):
        seen = {}
        real = recur.classify_stability

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(recur, "classify_stability", spy)
        args = ("--f", "(1/2 + o)*u + e*L", "--u0", "1", "--neutrix", "e*L", "--horizon", "20")
        run(capsys, "--seed", "5", "recur", *args)
        assert seen["seed"] == 5
        run(capsys, "recur", *args, "--seed", "0")
        assert seen["seed"] == 0
        run(capsys, "recur", *args)
        assert seen["seed"] == 1

    def test_claim_choices(self, capsys):
        args = ("recur", "--f", "2*u", "--u0", "1", "--neutrix", "o", "--horizon", "20")
        assert run(capsys, *args, "--claim", "report")[0] == 0
        with pytest.raises(SystemExit) as exc:
            run(capsys, *args, "--claim", "bogus")
        assert exc.value.code == 2


class TestDashLeadingValues:
    """Every option but -h is a --long option, so a token with one leading
    dash is a value, wherever it stands."""

    @pytest.mark.parametrize("argv, out", [
        (("limit", "-1/n"), "status: converges\nlimit: 0\nminimal neutrix: 0\nstrong: False\n"),
        (("eval", "-w"), "-w\n"),
        (("eval", "--n", "2", "-1/n"), "-1/2\n"),
        (("cauchy", "--neutrix", "o", "-1/n"), "o-Cauchy: True\n"),
    ], ids=["limit", "eval", "eval-n", "cauchy"])
    def test_expression(self, capsys, argv, out):
        assert run(capsys, *argv) == (0, out, "")

    def test_option_value(self, capsys):
        code, out, err = run(capsys, "borel-ritt", "--coeffs", "1,1", "--order", "1", "--delta", "-1/2")
        assert (code, out, err) == (2, "", "error: delta must be positive\n")

    def test_help_is_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: flexnum")

    def test_every_value_option_takes_a_dash_leading_value(self):
        # The parser reads a one-dash token as a value through an argparse
        # internal; this fails if a Python release changes that hook.
        parser = cli.build_parser()
        [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]

        def values(p):
            for action in p._actions:
                if type(action) is argparse._StoreAction and action.choices is None:
                    # A float in exponent form and a word do not look like negative numbers to argparse.
                    text = {int: "-1", float: "-1e-3"}.get(action.type, "-x")
                    yield action, list(action.option_strings[:1]) + [text], (action.type or str)(text)

        top = list(values(parser))
        assert len(top) == 4
        for name, sub in commands.choices.items():
            given = top + list(values(sub))
            args = parser.parse_args([t for _, argv, _ in top for t in argv] + [name]
                                     + [t for _, argv, _ in given[len(top):] for t in argv])
            assert {a.dest: getattr(args, a.dest) for a, _, _ in given} == {a.dest: v for a, _, v in given}, name


class TestFailuresExit2:
    def assert_error(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err
        return err

    def test_deep_parentheses(self, capsys):
        err = self.assert_error(capsys, "eval", "(" * 1200 + "1" + ")" * 1200)
        assert "nested too deeply at position 100" in err

    @pytest.mark.parametrize("argv", [("eval", "e^(1/0)"), ("eval", "2^(1/0)"), ("limit", "n^(1/0)")],
                             ids=["eval-e", "eval-rational", "limit-n"])
    def test_zero_denominator_in_an_exponent(self, capsys, argv):
        # An exponent is parsed as an expression, so 1/0 is refused at its '/' as in `eval 1/0`.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: divisor 0 contains zero at position 4\n  {argv[1]}\n{' ' * 6}^\n"

    def test_deep_sum_evaluation(self, capsys):
        # Not a failure: exact evaluation folds on its own stack, past the recursion limit.
        code, out, err = run(capsys, "eval", "--n", "1", " + ".join(["n"] * 1500))
        assert (code, out, err) == (0, "1500\n", "")

    @pytest.mark.parametrize("argv", [
        ("eval", "--n", "20000", "(3/2)^n/n + o"),
        ("limit", "((2^1000)^1000)^n"),  # a geometric base
    ])
    def test_result_too_large_to_print(self, capsys, argv):
        err = self.assert_error(capsys, *argv)
        assert "too large to print" in err and "set_int_max_str_digits" not in err

    def test_strong_convergence_invariant(self, capsys, monkeypatch):
        monkeypatch.setattr(seq, "_subset", lambda nu, nv: False)
        err = self.assert_error(capsys, "limit", "1/n + o")
        assert err.startswith("error: internal check failed: strong convergence theorem violated")

    def test_cauchy_two_routes(self, capsys, monkeypatch):
        monkeypatch.setattr(seq, "_limit", lambda nf: seq._diverges("planted"))
        err = self.assert_error(capsys, "cauchy", "--neutrix", "e*L", "1/n + e*L")
        assert err.startswith("error: internal check failed: Cauchy completeness violated")

    @pytest.mark.parametrize("argv", [
        ("recur", "--f", "u/(u-u) + e*L", "--u0", "1", "--neutrix", "o", "--horizon", "5", "--samples", "10"),
        ("match", "--f", "-y/(y-y)", "--eps", "1e-4", "--y0", "1", "--tmax", "1e-3"),
    ], ids=["recur", "match"])
    def test_pole_in_a_numeric_run_is_one_error_line(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, *argv)
        assert [str(w.message) for w in caught] == []
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1

    def test_pole_of_the_field_in_time(self, capsys):
        # The pole at t = 1/1600 is a step time of the run.
        err = self.assert_error(
            capsys, "match", "--f", "-y/(t - 1/1600)^2", "--eps", "1e-4", "--y0", "1", "--tmax", "4e-3"
        )
        assert err == "error: float division by zero\n"

    def test_field_not_real_on_the_band(self, capsys):
        # At -y the field is the square root of a negative number: nan at numpy scalars.
        err = self.assert_error(
            capsys, "match", "--f", "-y^(1/2)", "--eps", "1e-4", "--y0", "1", "--tmax", "1e-3"
        )
        assert err.count("\n") == 1 and "sign condition fails" in err

    def test_nan_path_is_not_an_overflow(self, capsys):
        err = self.assert_error(
            capsys, "recur", "--f", "(u - 2)^(1/2) + e*L", "--u0", "1", "--neutrix", "o",
            "--horizon", "5", "--samples", "10",
        )
        assert err == "error: reference path is not a number at step n=0\n"

    def test_float_overflow_of_a_geometric_leaf(self, capsys):
        # (3/2)^n is a Python float, which raises rather than turning inf.
        err = self.assert_error(
            capsys, "recur", "--f", "u/2 + (3/2)^n*e*L", "--u0", "0", "--neutrix", "e*L", "--horizon", "2000",
        )
        assert err == "error: reference path left double range at step n=1751\n"

    def test_complex_value_of_an_index_only_leaf(self, capsys):
        # (-1.0) ** 0.5 at n=1 is a Python complex, not a number of the run.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.assert_error(
                capsys, "recur", "--f", "u/2 + ((-1)^n)^(1/2)", "--u0", "0", "--neutrix", "e*L",
                "--horizon", "2000", "--samples", "50",
            )
        assert [str(w.message) for w in caught] == []
        assert err == "error: reference path is not a number at step n=1\n"

    def test_arithmetic_error_of_an_index_leaf(self, capsys):
        # 0 ** -1.0 at n=0 raises in Python, where a numpy column holds inf.
        err = self.assert_error(
            capsys, "recur", "--f", "u/2 + n^(-1)", "--u0", "0", "--neutrix", "e*L", "--horizon", "5",
            "--samples", "10",
        )
        assert err == "error: reference path left double range at step n=0\n"

    def test_parameter_center_past_double_range(self, capsys):
        err = self.assert_error(
            capsys, "recur", "--f", "u/2 + e^(-400)", "--u0", "0", "--neutrix", "e*L", "--horizon", "5",
            "--samples", "10",
        )
        assert err == "error: w^400 has no value at eps0=0.001: it overflows a double\n"

    def test_parameter_center_overflowing_in_its_product(self, capsys):
        # 10^300 and w^100 are each a double; their product is not.
        err = self.assert_error(
            capsys, "recur", "--f", "u/2 + 10^300*w^100", "--u0", "0", "--neutrix", "e*L", "--horizon", "5",
            "--samples", "10",
        )
        assert re.fullmatch(r"error: 10{300}\*w\^100 has no value at eps0=0\.001: it overflows a double\n", err)

    @pytest.mark.parametrize("f, neutrix", [
        ("u/2 + u^2", "w^(307/2)*L"),
        ("u/2 + u^2 + e^(-307/2)*L", "e*L"),
    ], ids=["neutrix", "parameter"])
    def test_unbounded_span_names_the_neutrix(self, capsys, f, neutrix):
        err = self.assert_error(capsys, "recur", "--f", f, "--u0", "0", "--neutrix", neutrix, "--eps0", "1e-2")
        assert err == "error: neutrix w^(307/2)*L has no interval at eps0=0.01: its width overflows a double\n"

    def test_field_with_a_neutrix(self, capsys):
        err = self.assert_error(
            capsys, "match", "--f", "y + o", "--eps", "1e-4", "--y0", "1", "--tmax", "1e-3"
        )
        assert "unknown name 'o'" in err


_RECUR = ("recur", "--f", "u/2 + u^2 + e*L", "--u0", "0", "--neutrix", "e*L")
_MATCH = ("match", "--f", "-y", "--eps", "1e-2", "--y0", "1", "--tmax", "1")


@pytest.mark.parametrize("argv, message", [
    (_RECUR + ("--samples", "10", "--horizon", "-1"), "horizon must be at least 0, got -1"),
    (_RECUR + ("--samples", "10", "--horizon", "0"),
     "sampled stability needs a horizon and samples of at least 1, got 0 and 10"),
    (_RECUR + ("--samples", "-3"), "sampled stability needs a horizon and samples of at least 1, got 200 and -3"),
    (_MATCH + ("--dt", "0"), "dt must be positive, got 0.0"),
    (_MATCH + ("--dt", "-1"), "dt must be positive, got -1.0"),
    (("match", "--f", "-y", "--eps", "0", "--y0", "1", "--tmax", "1"), "eps0 must be positive, got 0.0"),
    (("match", "--f", "-y", "--eps", "1e-2", "--y0", "1", "--tmax", "-1"), "t_max must be positive, got -1.0"),
    (_MATCH + ("--width", "0"), "attract_width must be positive, got 0.0"),
    (("--format", "csv") + _MATCH + ("--csv-points", "0"), "--csv-points must be at least 1, got 0"),
    (("limit", "1/n", "--wrt", "finite:x"), "segment finite:m needs an integer m, got 'x'"),
    (_MATCH[:6] + ("nan",) + _MATCH[7:], "y0 must be finite, got nan"),
    (_MATCH[:6] + ("inf",) + _MATCH[7:], "y0 must be finite, got inf"),
    (_MATCH[:8] + ("inf",), "t_max must be finite, got inf"),
    (_MATCH[:4] + ("inf",) + _MATCH[5:], "eps0 must be finite, got inf"),
    (("limit", "1/n", "--wrt", "halo:x"), "segment halo:q needs a rational q, got 'x'"),
    (("limit", "1/n", "--wrt", "galaxy:1/0"), "segment galaxy:q needs a rational q, got '1/0'"),
    (("--delta", "x") + _MATCH, "--delta needs a rational, got 'x'"),
    (("--micro-exp", "1/0") + _MATCH, "--micro-exp needs a rational, got '1/0'"),
    (("borel-ritt", "--coeffs", "1,x", "--order", "2"), "--coeffs needs comma-separated rationals, got 'x'"),
    (("recur", "--f", "u/2 + n*o", "--u0", "0", "--neutrix", "e*L", "--n0", "-5"), "n0 must be at least 0, got -5"),
    (_RECUR + ("--seed", "-1", "--samples", "10"), "seed must be at least 0, got -1"),
    (("borel-ritt", "--coeffs", "1,1,2,6", "--order", "3", "--check-all", "--seed", "-1"),
     "seed must be at least 0, got -1"),
    (_MATCH + ("--width", "inf"), "attract_width must be finite, got inf"),
], ids=["horizon-negative", "horizon-0-sampled", "samples-negative", "dt-0", "dt-negative", "eps-0",
        "tmax-negative", "width-0", "csv-points-0", "finite-segment", "y0-nan", "y0-inf", "tmax-inf", "eps-inf",
        "halo-segment", "galaxy-segment", "delta", "micro-exp", "coeffs", "n0-negative", "recur-seed-negative",
        "borel-ritt-seed-negative", "width-inf"])
def test_bad_numeric_argument_is_named(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# Refusals that no other test reaches.  A parse error shows the source and a caret.
@pytest.mark.parametrize("argv, message", [
    (("eval", "2^n"), "X^n only makes sense in a sequence expression at position 2\n  2^n\n    ^"),
    (("limit", "(1/2+o)^n"), "only rational bases may be raised to the power n at position 8\n  (1/2+o)^n\n          ^"),
    (("limit", "0^n"), "0^n is just 0; write 0 at position 2\n  0^n\n    ^"),
    (("eval", "e^1001"), "exponent out of range at position 2\n  e^1001\n    ^"),
    (("eval", "e^(x)"), "unknown name 'x' at position 3 (expected one of L, M, R, e, o, w)\n  e^(x)\n     ^"),
    (("limit", "n^(n)"), "an exponent must be n or a rational constant at position 2\n  n^(n)\n    ^"),
    (("eval", "o^-1"), "negative power of non-zeroless value o at position 2\n  o^-1\n    ^"),
    (("eval", "(-4)^(1/2)"), "fractional power of a non-positive value at position 5\n  (-4)^(1/2)\n       ^"),
    (("eval", "(1+e)^(1/2)"), "fractional power of non-monomial value 1 + e at position 6\n  (1+e)^(1/2)\n        ^"),
    (("limit", "--wrt", "foo:1", "1/n"), "unknown segment 'foo:1'; use limited/all/finite:m/halo:q/galaxy:q"),
    (("eval", "--n", "-1", "1/n"), "indices are natural numbers"),
    (("limit", "((-1)^n)^(1/2)"), "fractional power of an alternating term"),
    (("limit", "(n*R)*(1/(n+1))"), "cannot bound the full line inside a product tail"),
    (("recur", "--f", "u/2 + e*L", "--u0", "0", "--neutrix", "R"), "stability modulo N is only considered for N != R"),
], ids=["sequence-power", "irrational-base", "zero-base", "exponent-range", "exponent-syntax", "exponent-not-rational",
        "negative-power",
        "root-of-negative", "root-of-sum", "segment", "negative-index", "root-of-alternating", "full-line-tail",
        "recur-modulo-R"])
def test_refusal_is_one_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [("eval", "--n", "100000000", "(3/2)^n"),
                                  ("limit", "--wrt", "finite:100000000", "(3/2)^n")], ids=["eval", "finite-segment"])
def test_geometric_leaf_at_a_huge_index_is_refused_before_it_is_computed(capsys, argv):
    start = time.process_time()
    code, out, err = run(capsys, *argv)
    assert time.process_time() - start < 1.0
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"error: (3/2)^100000000 has more than {limit} digits, too large to print\n"


_NUMPY_MEMORY = "Unable to allocate 1.46 TiB for an array with shape (200000001,) and data type float64"


@pytest.mark.parametrize("module, name, argv, exc, message", [
    (apps, "match_simulate", _MATCH, MemoryError(_NUMPY_MEMORY), _NUMPY_MEMORY),
    (recur, "classify_stability", _RECUR, MemoryError(), "MemoryError"),
], ids=["match-numpy", "recur-bare"])
def test_an_allocation_too_large_exits_2(capsys, monkeypatch, module, name, argv, exc, message):
    # The patched call raises as an allocation too large to make would; nothing is allocated.
    def refuse(*args, **kwargs):
        raise exc

    monkeypatch.setattr(module, name, refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_negative_horizon_refused_by_the_spec():
    f, u0 = dsl.parse_recur_rhs("u/2 + u^2 + e*L"), dsl.parse_extnum("0")
    with pytest.raises(ValueError, match="horizon must be at least 0, got -1"):
        recur.RecurrenceSpec(f, u0, -1)
    # Zero steps stay legal for a path sample; the sampled verdict needs one.
    assert recur.sample_paths(recur.RecurrenceSpec(f, u0, 0), Concretization(), count=2, seed=1).values.shape == (1, 2)


@pytest.mark.parametrize("argv", [
    _RECUR + ("--samples", "10", "--horizon", "-1"),
    _RECUR + ("--samples", "10", "--horizon", "0"),
    _RECUR + ("--samples", "-3"),
    _RECUR + ("--samples", "0"),
    _MATCH + ("--dt", "0"),
    _MATCH + ("--dt", "-1"),
    ("match", "--f", "-y", "--eps", "0", "--y0", "1", "--tmax", "1"),
    ("match", "--f", "-y", "--eps", "-1", "--y0", "1", "--tmax", "1"),
    ("match", "--f", "-y", "--eps", "1e-2", "--y0", "1", "--tmax", "0"),
    _MATCH + ("--width", "-1"),
    ("--format", "csv") + _MATCH + ("--csv-points", "0"),
    ("--format", "csv") + _MATCH + ("--csv-points", "-5"),
    ("limit", "1/n", "--wrt", "finite:x"),
    ("limit", "(1 + e^2*o)/(1 + e^(1/30) + 1/n)"),
    ("limit", "(3/2*w^3*(-1)^n)/(2 + 1/2*w^3 + 5*w^(3/2) + e^5 + M)"),
    ("limit", "1/(1 + e^(1/30) + 1/n)"),
    ("limit", "(2^n + n)/(3 + 1/n + (1/2)^n/n^2 + (1/3)^n)"),
    ("limit", "(w^3 + w*(1/2)^n/n + 2^n)/(6*e^2 + n^-2 + (1/2)^n/n)"),
    _MATCH[:6] + ("nan",) + _MATCH[7:],
    _MATCH[:6] + ("inf",) + _MATCH[7:],
    _MATCH[:8] + ("inf",),
    _MATCH[:4] + ("inf",) + _MATCH[5:],
    ("limit", "1/n", "--wrt", "halo:x"),
    ("limit", "1/n", "--wrt", "galaxy:1/0"),
    ("--delta", "x") + _MATCH,
    ("--micro-exp", "1/0") + _MATCH,
    ("borel-ritt", "--coeffs", "1,x", "--order", "2"),
    ("recur", "--f", "u/2 + n*o", "--u0", "0", "--neutrix", "e*L", "--n0", "-5"),
    _RECUR + ("--seed", "-1", "--samples", "10"),
    ("match", "--f", "-y", "--eps", "1e-4", "--y0", "1", "--tmax", "4e-3", "--width", "inf"),
])
def test_bad_arguments_exit_0_or_2_with_one_error_line(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, *argv)
    assert code in (0, 2) and [str(w.message) for w in caught] == []
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
