import json
import os
import shlex

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
        monkeypatch.setattr(seq, "_tail_containment", lambda nf, limit: False)
        err = self.assert_error(capsys, "limit", "1/n + o")
        assert err.startswith("error: internal check failed: strong convergence theorem violated")

    def test_cauchy_two_routes(self, capsys, monkeypatch):
        monkeypatch.setattr(seq, "_limit", lambda nf: seq._diverges("planted"))
        err = self.assert_error(capsys, "cauchy", "--neutrix", "e*L", "1/n + e*L")
        assert err.startswith("error: internal check failed: Cauchy completeness violated")

    def test_field_with_a_neutrix(self, capsys):
        err = self.assert_error(
            capsys, "match", "--f", "y + o", "--eps", "1e-4", "--y0", "1", "--tmax", "1e-3"
        )
        assert "unknown name 'o'" in err
