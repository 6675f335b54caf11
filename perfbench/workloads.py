"""The four benchmark workloads.

Each workload draws its inputs from an endless seeded stream (``inputs.py``),
so a run does not cycle over a fixed input set, answers one query at a time
(a closed loop with a single caller) and checks each answer.  A query is a fixed bundle of
library calls on one input, or one CLI subprocess.
"""

from __future__ import annotations

import itertools
import os
import random
import select
import subprocess
import sys
import tempfile
from typing import Dict, Iterator, List

import numpy as np

import calibration
import checks
import cli_cases
import inputs
from flexnum import apps, extnum, recur, seq
from flexnum.concretize import Concretization
from flexnum.scale import oslash, pound

# Inputs covered by a workload's digest: a prefix of its seeded stream.
DIGEST_ITEMS = 32


def _answer(fn, *args):
    """The call's result, or the exception it raised (judged by the checks)."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every raise is an answer to judge
        return exc


class Workload:
    name = ""
    # A fixed query count that fixes the tail percentile, whatever the speed
    # of the machine; a run of the standard length on a 2-vCPU VM completes
    # 1.6 to 2.5 times as many, so at least that many more lie beyond it.
    nominal_queries = 0
    # A timed phase ends on a multiple of this many queries: one stratified
    # block of inputs, or one pass over a fixed mix of query kinds.
    cycle = 1
    # Queries in each slice of the traced run: a fixed amount of work, so
    # that per-layer counts depend only on the program and the seed.
    traced_queries = 0
    # How the timed loop judges the machine's speed: a calibration pass like
    # this workload's work, and the seconds between passes.
    slowness = staticmethod(calibration.task_slowness)
    calibrate_every_s = 0.1

    def __init__(self, seed: int):
        self.seed = seed
        self.items = self.generate(self._rng(seed))
        self.wrap_field = lambda f: f

    def _rng(self, seed) -> random.Random:
        return random.Random(f"{self.name}/{seed}")

    def generate(self, rng: random.Random) -> Iterator:
        raise NotImplementedError

    def query(self, item):
        raise NotImplementedError

    def check(self, item, answer) -> List[str]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Answer one input that is the same for every seed."""
        self.query(next(self.generate(self._rng("warm-up"))))

    @property
    def tail_percentile(self) -> float:
        return tail_percentile(self.nominal_queries)

    def digest(self) -> str:
        """Fingerprint of the first inputs of this seed's stream."""
        return inputs.digest(itertools.islice(self.generate(self._rng(self.seed)), DIGEST_ITEMS))


def tail_percentile(queries: int) -> float:
    """Highest percentile, in steps of 0.1, with max(10, 5% of queries) beyond it.

    Ten queries beyond is the floor.  Where a run holds thousands of queries
    the tail keeps five percent of them beyond it: the cost tails of
    extnum-pairs and seq-questions are heavy, and over ten seeds a percentile
    resting on ten queries (p99.9) spread by 40% and one resting on 1% (p99)
    by 16-23%, against a 25% bound.
    """
    beyond = max(10, queries / 20)
    return int(1000 * (1 - beyond / queries) + 1e-9) / 10


PAIR_OPS = ("add", "sub", "mul", "div", "lt", "le", "gt", "ge", "subset")


class ExtnumPairs(Workload):
    """Every op on one pair per query.

    A pair that keeps a series term is new but for rare chance collisions.
    About a fifth of the pairs are bare neutrices, whose series are empty or
    absorbed; there are only 16 x 16 of those, so they do repeat.
    """

    name = "extnum-pairs"
    nominal_queries = 8000
    cycle = inputs.PAIR_BLOCK
    traced_queries = 1024

    def __init__(self, seed: int):
        super().__init__(seed)
        self.check_rng = np.random.default_rng(seed)

    def generate(self, rng):
        return inputs.extnum_pairs(rng)

    def query(self, item) -> Dict[str, object]:
        a, b = item
        # Looked up per call, so that the traced run's wrappers are seen.
        return {name: _answer(getattr(extnum, name), a, b) for name in PAIR_OPS}

    def check(self, item, answer) -> List[str]:
        a, b = item
        return checks.check_extnum_pair(a, b, answer, self.check_rng)


CAUCHY_NEUTRICES = {"cauchy_o": oslash(0), "cauchy_L": pound(0), "cauchy_eL": pound(1)}


class SeqQuestions(Workload):
    name = "seq-questions"
    nominal_queries = 700
    traced_queries = 128

    def generate(self, rng):
        return inputs.seq_questions(rng)

    def query(self, item) -> Dict[str, object]:
        cu, cv = item
        u, v = cu.term, cv.term
        ans = {"n_limit_u": _answer(seq.n_limit, u), "n_limit_v": _answer(seq.n_limit, v)}
        for key, nx in CAUCHY_NEUTRICES.items():
            ans[key] = _answer(seq.is_cauchy, u, nx)
        ans["eventually_le"] = _answer(seq.eventually_le, u, v)
        ans["eventually_subset"] = _answer(seq.eventually_subset, u, v)
        ans["segment"] = _answer(seq.limit_wrt_segment, u, seq.limited())
        ru, rv = ans["n_limit_u"], ans["n_limit_v"]
        if isinstance(ru, seq.LimitReport) and isinstance(rv, seq.LimitReport):
            ans["add"] = _answer(seq.limit_arith, "add", ru, rv)
            ans["mul"] = _answer(seq.limit_arith, "mul", ru, rv)
        return ans

    def check(self, item, answer) -> List[str]:
        cu, cv = item
        return checks.check_seq_question(cu, cv, answer)


class NumericOracle(Workload):
    name = "numeric-oracle"
    nominal_queries = 54
    cycle = len(inputs.SHADOW_ORDERS)
    traced_queries = cycle

    def __init__(self, seed: int):
        super().__init__(seed)
        self.conc = Concretization(seed=seed)

    def generate(self, rng):
        return inputs.numeric_cases(rng)

    def query(self, case) -> Dict[str, object]:
        conc = self.conc
        ans = {
            "classify_stability": _answer(
                recur.classify_stability, case.stability, extnum.ZERO, inputs.STABILITY_NOISE, conc, 1000,
                case.path_seed),
            "sample_paths": _answer(self._affine_paths, case),
            "borel_ritt": _answer(self._shadow, case),
        }
        problem = apps.SlowCurveProblem(
            f=self.wrap_field(case.field), eps0=case.field_eps, y0=case.field_y0,
            t_max=40 * case.field_eps, dt=case.field_eps / 20)
        ans["match_simulate"] = _answer(apps.match_simulate, problem, conc)
        return ans

    def _affine_paths(self, case):
        spec = recur.affine_spec(case.affine_alpha, case.affine_noise, case.affine_u0, horizon=200)
        return recur.sample_paths(spec, self.conc, 1000, case.path_seed, compensated=True)

    def _shadow(self, case):
        shadow = apps.borel_ritt(case.coeffs)
        levels = [apps.shadow_check(shadow.value, case.coeffs, n, self.conc)
                  for n in range(len(case.coeffs) - 1)]
        return shadow, levels

    def check(self, case, answer) -> List[str]:
        return checks.check_numeric(case, answer, self.conc)


# Where a CLI child's output goes; run.py makes it.
OUT_DIR = ".bench_out"
CLI_TIMEOUT_S = 120


def run_cli(argv) -> tuple:
    """One ``python -m flexnum.cli`` child; it inherits ``src`` on PYTHONPATH.

    Returns its exit code, stdout and stderr, and its own peak resident
    memory in MB.  The child is reaped with ``os.wait4`` for that figure,
    because this process's children counter also holds the calibration
    passes'.  Output goes through files, so no pipe fills while the child
    is waited for; a child still running after ``CLI_TIMEOUT_S`` is killed.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        proc = subprocess.Popen([sys.executable, "-m", "flexnum.cli", *argv], stdout=out, stderr=err)
        exited = os.pidfd_open(proc.pid)
        try:
            if not select.select([exited], [], [], CLI_TIMEOUT_S)[0]:
                proc.kill()
        finally:
            os.close(exited)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss / 1024.0


class CliReadme(Workload):
    """The fixed README command list, in a seeded order per pass.

    Commands repeat from pass to pass, but each runs in a fresh process, so
    nothing a process keeps can serve a later query.
    """

    name = "cli-readme"
    nominal_queries = 45
    cycle = len(cli_cases.TIMED)
    traced_queries = cycle
    # A query is mostly interpreter start and imports; one pass costs about
    # a query.
    slowness = staticmethod(calibration.process_slowness)
    calibrate_every_s = 1.0

    def generate(self, rng):
        while True:
            order = list(cli_cases.TIMED)
            rng.shuffle(order)
            yield from order

    def __init__(self, seed: int):
        super().__init__(seed)
        self.peak_child_mb = 0.0

    def query(self, command):
        code, out, err, rss_mb = run_cli(command.argv)
        self.peak_child_mb = max(self.peak_child_mb, rss_mb)
        return code, out, err

    def check(self, command, answer) -> List[str]:
        return checks.check_cli(command, answer)

    def known_defects(self) -> Dict[str, str]:
        """Run the README examples that fail today; report each outcome."""
        report = {}
        for command in cli_cases.KNOWN_DEFECTS:
            problems = checks.check_cli(command, run_cli(command.argv)[:3])
            report[command.name] = "; ".join(problems) if problems else "ok"
        return report


WORKLOADS = {w.name: w for w in (ExtnumPairs, SeqQuestions, NumericOracle, CliReadme)}
