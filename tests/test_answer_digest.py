"""Smoke test of ``tests/answer_digest.py``, the answer digest that shows a
change kept flexnum's answers: its three library slices and its ``recur``
and ``front`` slices run and repeat."""

import re
import time

import answer_digest


def test_library_slices_print_the_same_lines_twice(capsys):
    start = time.perf_counter()
    runs = []
    for _ in range(2):
        assert answer_digest.main(["--items", "2", "seq-questions", "extnum-pairs", "numeric", "recur",
                                    "front"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert time.perf_counter() - start < 2.0
    assert runs[0] == runs[1]
    assert [line.rsplit(" ", 1)[0] for line in runs[0]] == [
        f"{name} seed={seed} items={items}"
        for name, items in (("seq-questions", 2), ("extnum-pairs", 20), ("numeric", 1)) for seed in (3, 7, 11)
    ] + [f"recur {name}" for name, _ in answer_digest.RECUR_COMMANDS] + [
        f"front {name}" for name, _ in answer_digest.FRONT_COMMANDS]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in runs[0])
