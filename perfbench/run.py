"""flexnum benchmark: one seeded workload, timed end to end or per layer.

Usage, from the root of a flexnum checkout::

    python3 perfbench/run.py --workload extnum-pairs --seed 1 --seconds 20 --trace 0

Workloads: extnum-pairs, seq-questions, numeric-oracle, cli-readme (the
``why`` of each in ``BENCHMARK.json`` says what it stresses; ``workloads.py``
defines them).  Every measurement runs in a fresh worker process.
``--trace 0`` prints the end-to-end metrics, in CPU time scaled to a
reference speed (see ``worker.py``); set-up is repeated in separate fresh
processes and its median reported.  ``--trace 1`` prints the per-layer
metrics of a traced run over a fixed number of queries.  The
run record (machine, versions, source size, input digest, per-workload
settings) is printed before the result and written to ``.bench_out/``; the
last line of standard output is the result as one JSON object.  Exits 2
without a result when the checkout holds no ``src/flexnum`` or a worker
fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_REPEATS = 3  # set-up-only processes, besides the measuring one
DEADLINE_S = 170  # every worker must have ended by then


def workload_reasons() -> dict:
    """Each workload's one-line reason, from BENCHMARK.json beside this directory."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {w["name"]: w["why"] for w in json.load(fh)["workloads"]}

END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLEX_")}
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, deadline: float, *extra) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_facts() -> dict:
    """Line count and content digest of src/, plus the git commit when known."""
    lines, h = 0, hashlib.sha256()
    for base, dirs, files in sorted(os.walk("src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                h.update(path.encode() + b"\0" + data)
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"src_lines": lines, "src_digest": h.hexdigest()[:16], "git_commit": commit}


def main() -> int:
    why = workload_reasons()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(why))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "flexnum", "__init__.py")):
        print("error: no src/flexnum here; run from the root of a flexnum checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [run_worker(args, deadline, "--setup-only")
                                        for _ in range(SETUP_REPEATS)]
        extra = ("--spans", stem + "-spans.tsv.gz") if args.trace else ()
        main_run = run_worker(args, deadline, *extra)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    digests = {s["digest"] for s in setups} | {main_run["digest"]}
    setup_s = statistics.median([s["setup_s"] for s in setups] + [main_run["setup_s"]])
    if args.trace:
        metrics = main_run["metrics"]
    else:
        values = dict(main_run["metrics"], setup_s=setup_s, peak_rss_mb=main_run["peak_rss_mb"])
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": main_run["numpy"],
        **source_facts(),
        "input_digest": main_run["digest"],
        "load": "closed loop, one caller; cli-readme runs one child process at a time",
        "queries": main_run["attempted"],
        "failed": main_run["failed"],
        "failed_ratio": main_run["failed"] / main_run["attempted"],
        "tail_percentile": main_run["tail_percentile"],
        "setup_s_each": [s["setup_s"] for s in setups] + [main_run["setup_s"]],
        "failures": main_run["failures"],
        "cpu_metrics": main_run.get("cpu_metrics"),
        "slowness": main_run.get("slowness"),
        "setup_cpu_s_each": [s["setup_cpu_s"] for s in setups] + [main_run["setup_cpu_s"]],
        "missing_functions": main_run.get("missing", []),
        "known_defects": main_run.get("known_defects", {}),
        "metrics": metrics,
    }
    with open(stem + "-record.json", "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"workload {args.workload}: {why[args.workload]}")
    print(f"input digest {main_run['digest']} (seed {args.seed}); tail percentile p{record['tail_percentile']}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_ratio':34s} {record['failed_ratio']:14.6g} ratio "
          f"({record['failed']} of {record['queries']} queries)")
    for name, outcome in record["known_defects"].items():
        print(f"  known README defect {name}: {outcome}")
    if record["missing_functions"]:
        print(f"  missing from the package, not reported: {', '.join(record['missing_functions'])}")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    result = {
        "correct": main_run["failed"] == 0 and len(digests) == 1,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
