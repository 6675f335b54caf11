"""Self-tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import ast
import itertools
import os
import shlex
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibration  # noqa: E402
import checks  # noqa: E402
import cli_cases  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    cls = workloads.WORKLOADS[name]
    assert cls(7).digest() == cls(7).digest()
    assert cls(7).digest() != cls(8).digest()


@pytest.mark.parametrize("name,count", [("seq-questions", 256), ("numeric-oracle", 27)])
def test_inputs_never_repeat(name, count):
    w = workloads.WORKLOADS[name](7)
    assert len({repr(item) for item in itertools.islice(w.items, count)}) == count


def test_extnum_pairs_repeat_only_by_chance_once_a_term_survives():
    # Pairs whose series the neutrices absorb whole come from 16 x 16
    # neutrix pairs and must repeat; a pair that keeps a term is new but
    # for chance collisions in the small coefficient set.
    pairs = list(itertools.islice(workloads.ExtnumPairs(7).items, 4096))
    kept = [repr(p) for p in pairs if p[0].rep.terms or p[1].rep.terms]
    assert len(kept) > 3000
    assert len(kept) - len(set(kept)) <= len(kept) // 200


def test_traced_counts_depend_only_on_the_seed():
    def calls(seed):
        w = workloads.ExtnumPairs(seed)
        tracer, _, _, _ = worker.traced_slice(w, w.query, 48)
        return {name: row[0] for name, row in tracer.self_times().items()}

    first = calls(11)
    assert first["extnum.div"] == 48 and first == calls(11)


def test_tail_percentile_leaves_enough_queries_beyond():
    for n in (45, 54, 700, 8000):
        p = workloads.tail_percentile(n)
        beyond = max(10, n / 20)
        assert n * (100 - p) / 100 >= beyond - 1e-9
        assert n * (100 - p - 0.1) / 100 < beyond
    assert workloads.tail_percentile(8000) == 95.0
    assert workloads.tail_percentile(54) == 81.4


def test_calibration_never_runs_the_program():
    # The machine's slowness divides every end-to-end time, so nothing a
    # change to flexnum does may reach the calibration passes.
    tree = ast.parse(open(calibration.__file__).read())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(m.split(".")[0] == "flexnum" for m in modules)
    assert '"-E"' in open(calibration.__file__).read()


def _flip(answer, key):
    planted = dict(answer)
    planted[key] = not planted[key]
    return planted


def test_flipped_lt_counts_as_failed():
    w = workloads.ExtnumPairs(3)
    items = list(itertools.islice(w.items, 64))
    answers = [w.query(item) for item in items]
    assert not any(w.check(item, a) for item, a in zip(items, answers))
    # Flip lt on a pair where it decides something, so an implication breaks.
    i = next(i for i, a in enumerate(answers) if a["lt"] or a["gt"])
    key = "lt" if answers[i]["lt"] else "gt"
    assert w.check(items[i], _flip(answers[i], key))


def test_wrong_sum_counts_as_failed():
    w = workloads.ExtnumPairs(4)
    a, b = item = next(p for p in w.items if not p[0].neutrix.is_full and not p[1].neutrix.is_full)
    answer = w.query(item)
    answer["add"] = answer["add"] + type(a)(answer["add"].rep.monomial(1, -7))
    assert w.check(item, answer)


def test_unexpected_refusal_and_crash_count_as_failed():
    from flexnum.errors import Unnormalizable

    w = workloads.SeqQuestions(5)
    item = next(item for item in w.items if not item[0].may_refuse)
    answer = w.query(item)
    assert not w.check(item, answer)
    assert w.check(item, dict(answer, n_limit_u=Unnormalizable("planted")))
    assert w.check(item, dict(answer, eventually_le=RecursionError("planted")))


def test_failed_shadow_level_counts_as_failed():
    w = workloads.NumericOracle(6)
    case = next(w.items)
    answer = w.query(case)
    assert not w.check(case, answer)
    shadow, levels = answer["borel_ritt"]
    assert w.check(case, dict(answer, borel_ritt=(shadow, levels[:-1] + [False])))


def test_wrong_cli_answer_counts_as_failed():
    command = cli_cases.COMMANDS[0]
    assert not checks.check_cli(command, (0, "w^2 + w*L\n", ""))
    assert checks.check_cli(command, (1, "w^2 + w*L\n", ""))
    assert checks.check_cli(command, (0, "w^2\n", ""))
    assert checks.check_cli(command, (0, "w^2 + w*L\n", "Traceback (most recent call last):"))


def _readme_examples():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [tuple(shlex.split(line)[1:]) for line in block.splitlines() if line.startswith("flexnum ")]


def test_cli_list_holds_every_readme_example():
    examples = _readme_examples()
    assert len(examples) == 9
    assert set(examples) <= {c.argv for c in cli_cases.COMMANDS}


def test_cli_list_keeps_the_two_failing_readme_examples():
    defects = {c.argv for c in cli_cases.KNOWN_DEFECTS}
    trailing = {argv for argv in _readme_examples() if "--format" in argv and argv[0] != "--format"}
    assert len(trailing) == 2 and defects == trailing
    # Their leading-flag twins carry the same computation in the timed mix.
    for argv in trailing:
        k = argv.index("--format")
        twin = argv[k:k + 2] + argv[:k] + argv[k + 2:]
        assert twin in {c.argv for c in cli_cases.TIMED}


def test_wrong_limit_counts_as_failed():
    from flexnum import extnum, seq

    w = workloads.SeqQuestions(9)
    item, answer = next((item, a) for item, a in ((item, w.query(item)) for item in w.items)
                        if _evaluable(item, a))
    assert not w.check(item, answer)
    report = answer["n_limit_u"]
    shifted = seq.LimitReport(report.status, report.limit + extnum.monomial(1), report.minimal_neutrix,
                              report.strong, report.witness)
    assert w.check(item, dict(answer, n_limit_u=shifted))


def _evaluable(item, answer) -> bool:
    """A convergent, exactly-limited term that the pointwise probe can evaluate."""
    from flexnum import seq
    from flexnum.errors import FlexError

    report = answer["n_limit_u"]
    if not (isinstance(report, seq.LimitReport) and report.converges and report.limit.neutrix.is_zero):
        return False
    try:
        seq.eval_at(item[0].term, checks.PROBE_INDICES[0])
    except FlexError:
        return False
    return True
