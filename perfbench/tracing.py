"""Spans around the public functions of each flexnum layer.

The wrappers live in the benchmark: :meth:`Tracer.install` patches module
and class attributes of the imported package (every module that imported a
function by name is patched too) and :meth:`Tracer.uninstall` restores them,
so nothing under ``src/`` changes.  Each span records its name, start, end,
parent span and query id; spans stay in memory and are written out when the
run ends.  Self time is computed from the span tree afterwards.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from flexnum.errors import FlexError

# (span name, module, class or None, attribute)
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("scale.neutrix_ops", "flexnum.scale", "Neutrix", "__add__"),
    ("scale.neutrix_ops", "flexnum.scale", "Neutrix", "__mul__"),
    ("scale.neutrix_ops", "flexnum.scale", "Neutrix", "absorbs"),
    ("scale.neutrix_ops", "flexnum.scale", "Neutrix", "scaled"),
    ("extnum.from_terms", "flexnum.extnum", "FormalSeries", "from_terms"),
    ("extnum.series_mul", "flexnum.extnum", "FormalSeries", "__mul__"),
    ("extnum.inverse", "flexnum.extnum", "FormalSeries", "inverse"),
    ("extnum.add", "flexnum.extnum", "ExternalNumber", "__add__"),
    ("extnum.mul", "flexnum.extnum", "ExternalNumber", "__mul__"),
    ("extnum.div", "flexnum.extnum", None, "div"),
    ("extnum.order", "flexnum.extnum", None, "lt"),
    ("extnum.order", "flexnum.extnum", None, "le"),
    ("extnum.order", "flexnum.extnum", None, "gt"),
    ("extnum.order", "flexnum.extnum", None, "ge"),
    ("extnum.order", "flexnum.extnum", None, "subset"),
    ("seq.normalize", "flexnum.seq", None, "normalize"),
    ("seq.n_limit", "flexnum.seq", None, "n_limit"),
    ("seq.is_cauchy", "flexnum.seq", None, "is_cauchy"),
    ("seq.eventually_le", "flexnum.seq", None, "eventually_le"),
    ("seq.limit_wrt_segment", "flexnum.seq", None, "limit_wrt_segment"),
    ("recur.classify_stability", "flexnum.recur", None, "classify_stability"),
    ("recur.sample_paths", "flexnum.recur", None, "sample_paths"),
    ("apps.borel_ritt", "flexnum.apps", None, "borel_ritt"),
    ("apps.shadow_check", "flexnum.apps", None, "shadow_check"),
    ("apps.match_simulate", "flexnum.apps", None, "match_simulate"),
    ("concretize.sample", "flexnum.concretize", "Concretization", "sample"),
    ("dsl.parse", "flexnum.dsl", None, "parse_extnum"),
    ("dsl.parse", "flexnum.dsl", None, "parse_seq"),
    ("dsl.parse", "flexnum.dsl", None, "parse_neutrix"),
    ("dsl.parse", "flexnum.dsl", None, "parse_recur_rhs"),
    ("dsl.parse", "flexnum.dsl", None, "parse_scalar_field"),
    ("dsl.print", "flexnum.dsl", None, "print_extnum"),
    ("dsl.print", "flexnum.dsl", None, "print_seq"),
    ("cli.main", "flexnum.cli", None, "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))

# Each layer's home workload: the one whose end-to-end metrics its spans
# should move.  A traced run measures every layer on its home workload.
HOME = {
    "scale": "extnum-pairs",
    "extnum": "extnum-pairs",
    "seq": "seq-questions",
    "recur": "numeric-oracle",
    "apps": "numeric-oracle",
    "concretize": "numeric-oracle",
    "dsl": "cli-readme",
    "cli": "cli-readme",
}


class Tracer:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: List[str] = list(SPAN_NAMES)
        self._index = {n: i for i, n in enumerate(self.names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.query = array("l")
        self.refused = array("b")  # 1 where the call raised a FlexError refusal
        self.stack: List[int] = []
        self.qid = -1
        self.normalize_inputs: list = []
        self.path_steps = 0
        self.field_calls = 0
        self.missing: List[str] = []
        self.missing_spans: set = set()
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _wrap(self, span: str, fn: Callable, on_call=None, on_result=None) -> Callable:
        idx = self._index[span]
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            k = len(self.name)
            self.name.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.query.append(self.qid)
            self.end.append(0.0)
            self.refused.append(0)
            if on_call is not None:
                on_call(args, kwargs)
            stack.append(k)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except FlexError:
                self.end[k] = clock()
                self.refused[k] = 1
                raise
            except BaseException:
                self.end[k] = clock()
                raise
            finally:
                stack.pop()
            self.end[k] = clock()
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Patch every listed function; missing ones are recorded, not faked."""
        hooks = {
            "seq.normalize": (lambda a, k: self.normalize_inputs.append(a[0]), None),
            "recur.sample_paths": (self._count_sample_paths, None),
            "recur.classify_stability": (None, self._count_classify),
        }
        for span, modname, clsname, attr in TARGETS:
            mod = importlib.import_module(modname)
            owner = getattr(mod, clsname, None) if clsname else mod
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{modname}.{clsname + '.' if clsname else ''}{attr}")
                self.missing_spans.add(span)
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(span, fn, *hooks.get(span, (None, None)))
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._patch(owner, attr, raw, wrapped)
            if clsname is None:
                # Modules that imported the function by name hold their own reference.
                for name, other in list(sys.modules.items()):
                    if name.startswith("flexnum") and other is not mod:
                        for key, value in list(vars(other).items()):
                            if value is raw:
                                self._patch(other, key, raw, wrapped)

    def _patch(self, owner, attr, old, new) -> None:
        self._restore.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # -- counters -------------------------------------------------------------

    def _count_sample_paths(self, args, kwargs) -> None:
        spec = args[0] if args else kwargs["spec"]
        count = args[2] if len(args) > 2 else kwargs["count"]
        self.path_steps += count * spec.horizon

    def _count_classify(self, args, kwargs, verdict) -> None:
        if verdict.evidence.get("route") == "sampled falsification":
            self.path_steps += verdict.evidence["samples"] * verdict.evidence["horizon"]

    def counting_field(self, f: Callable[[float, float], float]) -> Callable[[float, float], float]:
        """Wrap a field f(t, y) so that its calls are counted."""

        def counted(t, y):
            self.field_calls += 1
            return f(t, y)

        return counted

    # -- results --------------------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[int, float, int]]:
        """Per span name: calls, total self time in seconds, refusals."""
        n = len(self.name)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        out = {name: [0, 0.0, 0] for name in self.names}
        for k in range(n):
            row = out[self.names[self.name[k]]]
            row[0] += 1
            row[1] += (self.end[k] - self.start[k]) - child[k]
            row[2] += 1 if self.refused[k] else 0
        return {k: tuple(v) for k, v in out.items()}


def write_spans(path: str, tracers: Dict[str, Tracer]) -> None:
    """Write every span as a tab-separated line, tagged with its workload."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("workload\tspan\tname\tstart_s\tend_s\tparent\tquery\n")
        for workload, t in tracers.items():
            for k in range(len(t.name)):
                fh.write(f"{workload}\t{k}\t{t.names[t.name[k]]}\t{t.start[k]:.9f}\t"
                         f"{t.end[k]:.9f}\t{t.parent[k]}\t{t.query[k]}\n")
