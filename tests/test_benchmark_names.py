"""The names the benchmark in ``perfbench/`` calls still exist and still answer.

The benchmark looks flexnum functions up by name: its tracer wraps the
attributes listed in ``tracing.TARGETS``, and the ``extnum-pairs`` workload
calls every name in ``workloads.PAIR_OPS``.  A renamed or deleted public name
fails here, not in a benchmark run.  This module only reads ``perfbench/``.
"""

import importlib
import itertools
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
sys.path.insert(0, os.path.abspath(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from flexnum import extnum  # noqa: E402


@pytest.mark.parametrize("span,module,cls,attr", tracing.TARGETS, ids=str)
def test_traced_target_resolves(span, module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))


def test_pair_ops_resolve():
    for name in workloads.PAIR_OPS:
        assert callable(getattr(extnum, name)), name


@pytest.mark.parametrize("name", ["extnum-pairs", "seq-questions", "numeric-oracle"])
def test_first_query_answers_and_checks(name):
    workload = workloads.WORKLOADS[name](1)
    item = next(workload.items)
    answer = workload.query(item)
    assert workload.check(item, answer) == []


_NEUTRIX_TARGETS = [t for t in tracing.TARGETS if t[:3] == ("scale.neutrix_ops", "flexnum.scale", "Neutrix")]


@pytest.mark.parametrize("target", _NEUTRIX_TARGETS, ids=lambda t: t[3])
def test_each_traced_neutrix_method_gets_spans(monkeypatch, target):
    """The tracer, installed over this one method, sees it called in the first
    64 seed-1 extnum-pairs queries: no shortcut routes around the
    ``scale.neutrix_ops`` spans."""
    assert len(_NEUTRIX_TARGETS) == 4
    monkeypatch.setattr(tracing, "TARGETS", (target,))
    workload = workloads.WORKLOADS["extnum-pairs"](1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for item in itertools.islice(workload.items, 64):
            workload.query(item)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.self_times()["scale.neutrix_ops"][0] > 0
