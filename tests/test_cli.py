import csv
import io
import json
import os
import shlex
import subprocess
import sys
import warnings

import pytest

from flexnum import recur, seq
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
        assert keys == [f"evidence.{k}" for k in ("route", "alpha", "f_noise", "q", "c", "limit_neutrix")]
        assert "evidence.alpha,1/2 + o" in rows and "evidence.limit_neutrix,e*L" in rows


class TestCsv:
    def rows(self, capsys, *argv):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and all(len(row) == 2 for row in rows), rows
        return code, dict(rows)

    def test_list_value_is_one_field(self, capsys):
        code, rows = self.rows(
            capsys, "recur", "--f", "2*u", "--u0", "1", "--neutrix", "o", "--horizon", "5"
        )
        path = json.loads(rows["evidence.escaping_path"])
        assert code == 1 and len(path) > 1 and all(isinstance(x, float) for x in path)

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


def test_symbolic_commands_start_without_numpy():
    # A fresh interpreter: this test process has imported every layer already.
    symbolic = [argv for argv in _readme_commands() if argv[0] in ("eval", "limit", "cauchy")]
    assert len(symbolic) >= 4, symbolic
    src = os.path.dirname(os.path.dirname(os.path.abspath(seq.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    program = f"ARGVS = {symbolic!r}\n" + _LAYERS_PROGRAM
    proc = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ("eval", "w^2 + w*L"),
    ("--format", "csv", "match", "--f", "-y", "--eps", "1e-4", "--y0", "1", "--tmax", "4e-1", "--dt", "auto"),
], ids=["flushed-at-exit", "mid-output"])
def test_closed_stdout_exits_quietly(argv):
    # The read end is closed before the child starts, so its first write to
    # stdout fails, whether in a print or in the last flush.
    read, write = os.pipe()
    os.close(read)
    src = os.path.dirname(os.path.dirname(os.path.abspath(seq.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-m", "flexnum.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
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


class TestFailuresExit2:
    def assert_error(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err
        return err

    def test_deep_parentheses(self, capsys):
        err = self.assert_error(capsys, "eval", "(" * 1200 + "1" + ")" * 1200)
        assert "nested too deeply at position 100" in err

    def test_deep_sum_evaluation(self, capsys):
        err = self.assert_error(capsys, "eval", "--n", "1", " + ".join(["n"] * 1500))
        assert "too deeply nested" in err

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
