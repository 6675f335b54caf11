"""Run one workload in a fresh process and print its measurements as JSON.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Set-up is all the
process does before its first timed query: interpreter start, imports and a
warm-up query on an input that is the same for every seed.  The timed phase
is a closed loop with one caller: each query's input is drawn from the
workload's seeded stream, and its answer is checked as soon as its latency is
taken and then dropped.  Drawing and checking are harness time, left out of
the query rate: queries per second of query time.

Latency and set-up are CPU time (``calibration.cpu_seconds``): this
process's and its finished children's, user plus system.  The load is one
caller doing compute-bound work without waiting on anything, so that is its
wall time less what the machine gave to others (run-queue waits, steal).
Each is then divided by the machine's slowness, measured by the calibration
passes of ``calibration.py`` between queries and after set-up, because on a
shared host the speed of a core itself drifts; the figures read as at a
fixed reference speed.  The unscaled CPU figures go into the run record.

``--trace 1`` runs a fixed amount of work instead: a traced slice of
``traced_queries`` inputs of every home workload (``tracing.HOME``), so that
each layer is measured on its home workload whichever workload is named, then
as many further inputs of the named workload untraced, for the tracing
overhead.  Traced answers are checked once the tracer is removed.
"""

import argparse
import contextlib
import gc
import io
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array

import numpy

import calibration
import tracing
import workloads

MAX_REPORTED_FAILURES = 5
# Passes of the process calibration that judge the speed at which set-up ran.
SETUP_CALIBRATION_PASSES = 2


def timed_loop(w, seconds: float):
    """Query fresh inputs until ``seconds`` pass, ending on a whole cycle.

    The workload's calibration pass (``w.slowness``) runs before the first
    query, then between queries every ``w.calibrate_every_s`` seconds, and
    after the last, so its mean is the machine's mean slowness over the run.
    Returns every latency (CPU time), the calibration passes, a 0/1 failure
    flag per query and the first failure messages.
    """
    wall = time.perf_counter
    latencies, passes, failed, messages = array("d"), array("d"), bytearray(), []
    start = wall()
    next_pass = start
    while True:
        if wall() >= next_pass:
            passes.append(w.slowness())
            next_pass = wall() + w.calibrate_every_s
        item = next(w.items)
        c0 = calibration.cpu_seconds()
        answer = w.query(item)
        c1 = calibration.cpu_seconds()
        problems = w.check(item, answer)
        latencies.append(c1 - c0)
        failed.append(1 if problems else 0)
        if problems and len(messages) < MAX_REPORTED_FAILURES:
            messages.append(problems[0])
        if len(latencies) % w.cycle == 0 and wall() - start >= seconds:
            passes.append(w.slowness())
            return latencies, passes, failed, messages


def quantile(values, p: float) -> float:
    """Nearest-rank percentile p (0-100) of the values."""
    s = sorted(values)
    k = min(len(s) - 1, max(0, int(-(-p * len(s) // 100)) - 1))
    return s[k]


def end_to_end(w, latencies, failed) -> dict:
    ok = [lat for lat, bad in zip(latencies, failed) if not bad]
    return {
        "queries_per_s": len(latencies) / sum(latencies),
        "query_p50_ms": 1e3 * statistics.median(ok) if ok else float("nan"),
        "query_tail_ms": 1e3 * quantile(ok, w.tail_percentile) if ok else float("nan"),
    }


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def cli_in_process(w):
    """Run the workload's argv list through ``cli.main`` in this process."""
    from flexnum import cli

    def call(command):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(command.argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    return call


def fresh_process_ms(code: str, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def per_layer(tracers, overhead_ratio: float) -> dict:
    """Per-layer metrics, each from the traced slice of its layer's home workload."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def ratio(num, den):
        return num / den if den else 0.0

    self_times = {name: t.self_times() for name, t in tracers.items()}
    stats = {}
    for span in tracing.SPAN_NAMES:
        calls, self_s, _ = stats[span] = self_times[tracing.HOME[span.split(".")[0]]][span]
        put(f"{span}.calls", calls, "count")
        put(f"{span}.self_ms", 1e3 * self_s, "ms")
    put("extnum.div.refused_ratio", ratio(stats["extnum.div"][2], stats["extnum.div"][0]), "ratio")
    seq_tracer = tracers[tracing.HOME["seq"]]
    calls = stats["seq.normalize"][0]
    put("seq.normalize.distinct_ratio", ratio(len(set(seq_tracer.normalize_inputs)), calls), "ratio")
    put("seq.normalize.refused_ratio", ratio(stats["seq.normalize"][2], calls), "ratio")
    put("recur.path_steps", tracers[tracing.HOME["recur"]].path_steps, "count")
    put("apps.field_calls", tracers[tracing.HOME["apps"]].field_calls, "count")
    put("cli.interp_ms", fresh_process_ms("pass"), "ms")
    put("cli.import_ms", fresh_process_ms("import flexnum"), "ms")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    # A span with a missing target is not reported at all, rather than as 0.
    missing = set().union(*(t.missing_spans for t in tracers.values()))
    return {k: v for k, v in out.items() if k.rsplit(".", 1)[0] not in missing}


def run_slice(call, items):
    """Answer each of a fixed list of inputs; returns the answers and the time in queries."""
    clock = time.perf_counter
    answers, busy = [], 0.0
    for item in items:
        t = clock()
        answers.append(call(item))
        busy += clock() - t
    return answers, busy


def traced_slice(h, call, count: int):
    """Answer the next ``count`` inputs of ``h`` under a fresh tracer.

    Returns the tracer, the inputs, their answers and the time in queries.
    """
    items = list(itertools.islice(h.items, count))
    tracer = tracing.Tracer()

    def traced_call(item):
        tracer.qid += 1
        return call(item)

    tracer.install()
    h.wrap_field = tracer.counting_field
    try:
        answers, busy = run_slice(traced_call, items)
    finally:
        tracer.uninstall()
        h.wrap_field = lambda f: f
    return tracer, items, answers, busy


def traced_run(w, spans_path):
    """A traced slice of every home workload, then the named one untraced.

    Returns the per-layer metrics, the check results of every answer and the
    functions missing from the package.
    """
    homes = {name: w if name == w.name else workloads.WORKLOADS[name](w.seed)
             for name in dict.fromkeys(tracing.HOME.values())}
    calls = {name: cli_in_process(h) if isinstance(h, workloads.CliReadme) else h.query
             for name, h in homes.items()}
    tracers, failures = {}, []
    for name, h in homes.items():
        tracers[name], items, answers, busy = traced_slice(h, calls[name], h.traced_queries)
        failures += [h.check(item, answer) for item, answer in zip(items, answers)]
        if name == w.name:
            traced_rate = len(items) / busy
    # Further inputs, not the traced ones, so that nothing the program may
    # keep from a query can serve the untraced pass.
    items = list(itertools.islice(w.items, w.traced_queries))
    answers, busy = run_slice(calls[w.name], items)
    failures += [w.check(item, answer) for item, answer in zip(items, answers)]
    if spans_path:
        tracing.write_spans(spans_path, tracers)
    missing = sorted(set().union(*(t.missing for t in tracers.values())))
    return per_layer(tracers, (len(items) / busy) / traced_rate), failures, missing


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced run's spans here")
    args = ap.parse_args()

    w = workloads.WORKLOADS[args.workload](args.seed)
    w.warm_up()
    setup_cpu = calibration.cpu_seconds()
    # Set-up is mostly interpreter start and imports, the work of the
    # process calibration, whichever the workload.
    slowness = statistics.fmean(calibration.process_slowness() for _ in range(SETUP_CALIBRATION_PASSES))
    result = {"setup_s": setup_cpu / slowness, "setup_cpu_s": setup_cpu,
              "digest": w.digest(), "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    gc.collect()
    gc.freeze()
    cli = isinstance(w, workloads.CliReadme)
    if not args.trace:
        latencies, passes, failed, messages = timed_loop(w, args.seconds)
        slowness = statistics.fmean(passes)
        result["metrics"] = end_to_end(w, [lat / slowness for lat in latencies], failed)
        result["cpu_metrics"] = end_to_end(w, latencies, failed)
        result["slowness"] = {"mean": slowness, "quartiles": statistics.quantiles(passes, n=4)}
        result["peak_rss_mb"] = (w.peak_child_mb if cli else
                                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        result["metrics"], failures, result["missing"] = traced_run(w, args.spans)
        failed = [1 if f else 0 for f in failures]
        messages = [f[0] for f in failures if f][:MAX_REPORTED_FAILURES]
    if cli:
        result["known_defects"] = w.known_defects()
    result["attempted"] = len(failed)
    result["failed"] = sum(failed)
    result["failures"] = messages
    result["tail_percentile"] = w.tail_percentile
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
