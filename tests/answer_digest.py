"""SHA-256 digests of flexnum's answers, one line per slice.

A change that must not move answers is shown to keep them by running this
script on both sides and comparing the lines:

    PYTHONPATH=src python tests/answer_digest.py [--items N] [slice ...]

Put the ``src`` of the tree under test on ``PYTHONPATH``; the inputs come
from this repository's ``perfbench/``.  Slices:

- ``seq-questions`` and ``extnum-pairs``, one line per seed (3, 7, 11), over
  the first N inputs of that benchmark stream.  Every answer is digested by
  value: a limit report as its status, limit, minimal neutrix, strong flag
  and witness text (its steps hold function objects, so not its ``repr``);
  an exception as its type and text.  The ``seq-questions`` line also holds
  ``eventually_bounded`` of both terms; the ``extnum-pairs`` line every op of
  ``workloads.PAIR_OPS`` and ``disjoint``.
- ``numeric``, one line per seed, over the first N/8 (at least one)
  ``numeric-oracle`` inputs: every answer of ``workloads.NumericOracle``
  (the verdict's flags and JSON evidence, route included; the
  ``sample_paths`` values; the Borel–Ritt value and shadow levels; the match
  entry times and violations), then the case's affine map classified modulo
  ``inputs.STABILITY_NOISE`` and modulo its own noise.
- ``cli``: the exit code and stdout of every ``perfbench/cli_cases.py``
  command, run through ``cli.main``.
- ``recur``, one line per command of ``RECUR_COMMANDS``: the exit code,
  stdout and stderr of ``flexnum recur`` run through ``cli.main``, over
  every route of a stability verdict and every kind of refusal.
- ``front``, one line per command of ``FRONT_COMMANDS``: the exit code,
  stdout and stderr of a ``flexnum`` command run through ``cli.main``, over
  the exponent spellings, a deep sum, a quotient of tails, CSV cells and a
  segment witness.
- ``demos``: the stdout of every script in ``demos/``, each in a fresh
  interpreter.

The module name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import cli_cases  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
import flexnum  # noqa: E402
from flexnum import apps, cli, extnum, recur, seq  # noqa: E402

SEEDS = (3, 7, 11)
SLICES = ("seq-questions", "extnum-pairs", "numeric", "cli", "recur", "front", "demos")

# (name, options after ``recur --u0 0 --neutrix e*L``): each sets --f, and a
# later --u0 or --neutrix overrides the default.
RECUR_COMMANDS = (
    ("readme", ("--f", "(1/2 + o)*u + e*L", "--u0", "1", "--samples", "1000", "--horizon", "200",
                "--format", "json")),
    ("noise-past-double-range", ("--f", "u/2 + e^(-400)*L")),
    ("expansion-modulo-w^400*L", ("--f", "2*u", "--neutrix", "w^400*L")),
    ("full-line-noise", ("--f", "u/2 + R")),
    ("overflow-escapes", ("--f", "u + u^2 + e*L", "--samples", "200", "--horizon", "200")),
    ("root-escapes", ("--f", "u^(1/2) + e*L", "--samples", "200")),
    ("root-of-negative", ("--f", "(-u^2)^(1/2) + e*L", "--samples", "100")),
    ("expansion", ("--f", "(1 + e)*u + e*L")),
    ("gap-e^10", ("--f", "(1 - e^10)*u + e*L")),
    ("gap-e^10-modulo-0", ("--f", "(1 - e^10)*u", "--neutrix", "0")),
    ("inconclusive", ("--f", "(1/2 + R)*u")),
    ("sampled", ("--f", "u/2 + u^2 + e*L", "--samples", "100")),
    ("reference-overflow", ("--f", "u^2 + (3/2)^n*e*L", "--reference", "1", "--horizon", "1800")),
    ("reference-complex", ("--f", "u/2 + ((-1)^n)^(1/2)", "--horizon", "2000")),
    ("reference-index-error", ("--f", "u/2 + n^(-1)")),
    ("width", ("--f", "u/2 + u^2", "--neutrix", "w^(307/2)*L", "--eps0", "1e-2")),
)

# (name, argv of ``flexnum``).
FRONT_COMMANDS = (
    ("exponent-rational", ("eval", "e^(3/2)")),
    ("exponent-negative", ("eval", "w^-2")),
    ("exponent-negated-group", ("eval", "e^-(1/2)")),
    ("exponent-zero-denominator", ("eval", "e^(1/0)")),
    ("exponent-unknown-name", ("eval", "e^(x)")),
    ("deep-sum", ("eval", "--n", "1", " + ".join(["n"] * 1500))),
    ("quotient-of-tails", ("limit", "--witness", "((1/n)/(1+1/n) - (1/n - 1/n^2))/(1 + 1/n)")),
    ("limit-csv", ("limit", "1/n + o", "--to", "0", "--neutrix", "o", "--format", "csv")),
    ("halo-witness", ("limit", "--wrt", "halo:1", "--witness", "1/n")),
)


def _text(value) -> str:
    """One answer as text: a limit report, a verdict or a match by its fields,
    sampled paths by a digest of their values, an exception by type and message."""
    if isinstance(value, seq.LimitReport):
        return repr((value.status.value, str(value.limit), str(value.minimal_neutrix), value.strong, value.witness))
    if isinstance(value, recur.StabilityVerdict):
        return repr(value.to_dict())
    if isinstance(value, recur.PathSet):
        return hashlib.sha256(value.values.tobytes()).hexdigest()
    if isinstance(value, apps.MatchResult):
        return repr((value.t_enter_halo, value.t_enter_eps_tube, value.t_singular, value.violations))
    if isinstance(value, BaseException):
        return f"{type(value).__name__}: {value}"
    return str(value)


def _answer(fn, *args) -> str:
    try:
        return _text(fn(*args))
    except Exception as exc:  # noqa: BLE001 - a refusal is an answer too
        return _text(exc)


def _seq_answers(seed: int, items: int):
    work = workloads.SeqQuestions(seed)
    for cu, cv in itertools.islice(work.items, items):
        answers = work.query((cu, cv))
        yield sorted((key, _text(value)) for key, value in answers.items())
        yield [_answer(seq.eventually_bounded, cu.term), _answer(seq.eventually_bounded, cv.term)]


def _pair_answers(seed: int, items: int):
    for a, b in itertools.islice(workloads.ExtnumPairs(seed).items, items):
        yield [_answer(getattr(extnum, name), a, b) for name in workloads.PAIR_OPS + ("disjoint",)]


def _numeric_answers(seed: int, items: int):
    work = workloads.NumericOracle(seed)
    for case in itertools.islice(work.items, items):
        answers = work.query(case)
        shadow = answers.pop("borel_ritt")
        if not isinstance(shadow, BaseException):
            shadow = (str(shadow[0].value), shadow[1])
        yield sorted((key, _text(value)) for key, value in answers.items()) + [_text(shadow)]
        spec = recur.affine_spec(case.affine_alpha, case.affine_noise, case.affine_u0, horizon=200)
        yield [_answer(recur.classify_stability, spec, extnum.ZERO, noise, work.conc, 1000, case.path_seed)
               for noise in (inputs.STABILITY_NOISE, case.affine_noise)]


def _cli_answers():
    for command in cli_cases.COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(command.argv))
        yield [command.name, code, out.getvalue()]


def _cli_answer(argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return [code, out.getvalue(), err.getvalue()]


def _demo_answers():
    demos = os.path.join(ROOT, "demos")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(flexnum.__file__)))
    for name in sorted(n for n in os.listdir(demos) if n.endswith(".py")):
        proc = subprocess.run([sys.executable, os.path.join(demos, name)], env=env,
                              capture_output=True, text=True, timeout=300)
        yield [name, proc.returncode, proc.stdout]


def _sha(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def digest_lines(slices=SLICES, items: int = 800):
    """The digest lines of ``slices``, in the order of ``SLICES``."""
    if "seq-questions" in slices:
        for seed in SEEDS:
            yield f"seq-questions seed={seed} items={items} {_sha(_seq_answers(seed, items))}"
    if "extnum-pairs" in slices:
        for seed in SEEDS:
            yield f"extnum-pairs seed={seed} items={10 * items} {_sha(_pair_answers(seed, 10 * items))}"
    if "numeric" in slices:
        cases = max(1, items // 8)
        for seed in SEEDS:
            yield f"numeric seed={seed} items={cases} {_sha(_numeric_answers(seed, cases))}"
    if "cli" in slices:
        yield f"cli commands={len(cli_cases.COMMANDS)} {_sha(_cli_answers())}"
    if "recur" in slices:
        for name, options in RECUR_COMMANDS:
            yield f"recur {name} {_sha([_cli_answer(['recur', '--u0', '0', '--neutrix', 'e*L', *options])])}"
    if "front" in slices:
        for name, argv in FRONT_COMMANDS:
            yield f"front {name} {_sha([_cli_answer(argv)])}"
    if "demos" in slices:
        yield f"demos {_sha(_demo_answers())}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("slices", nargs="*", help=f"slices to digest, of {', '.join(SLICES)} (default: all)")
    parser.add_argument("--items", type=int, default=800,
                        help="seq-questions inputs per seed; extnum-pairs takes ten times as many, numeric an eighth")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.slices) - set(SLICES))
    if unknown:
        parser.error(f"unknown slices {unknown}; choose from {', '.join(SLICES)}")
    for line in digest_lines(args.slices or SLICES, args.items):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
