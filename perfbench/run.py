"""Benchmark of loccdist: one command, three workloads, checked verdicts.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep2x2|highdim|cli --seed N \
        --seconds S --trace 0|1

One process, one closed-loop client.  A run repeats whole rounds of the
workload's fixed, seeded list of operations until at least S seconds have
passed, so every run does whole rounds of the same work.  Every
operation's output is checked.

Times are reported at a reference machine speed.  The shared 2-CPU machine
of the figures in README.md slows down by up to 2x in phases lasting
seconds to minutes, so a fixed numpy kernel (``calibrate``) is timed before
and after every stretch of operations of at least 50 ms, and each wall time
is scaled by ``CAL_REF_S / kernel time`` (the mean of the two).  An
operation's time is the median of its scaled times over the rounds.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced round and prints the per-layer metrics of one round.
The last line of standard output is the result as JSON; the full record,
raw wall times included, goes to perfbench/out/.
"""

import os

# pinned before numpy loads; children inherit the environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MAX_SECONDS = 140.0  # no round starts that would end after this, so a run ends within 180 s
SETUP_REPS = 5
WARMUP_OPS = 8

#: time of ``calibrate`` at the reference speed (about the usual speed of
#: the shared 2-CPU machine of README.md, with Python 3.11 and numpy 2.4)
CAL_REF_S = 0.002
CAL_EVERY_S = 0.05
_CAL_RNG = np.random.default_rng(0)
_CAL_MATS = [_CAL_RNG.standard_normal((4, 4)) + 1j * _CAL_RNG.standard_normal((4, 4))
             for _ in range(40)]

IMPORT_PROBE = ("import time; t = time.perf_counter(); import loccdist; "
                "a = time.perf_counter(); import loccdist.cli; b = time.perf_counter(); "
                "print(a - t, b - t)")

END_TO_END_UNITS = {"throughput_per_s": "1/s", "latency_ms.p50": "ms", "latency_ms.p90": "ms",
                    "decided": "count", "setup_s": "s", "peak_rss_mb": "MB"}


def calibrate() -> float:
    """Wall time of a fixed kernel of small numpy calls, like loccdist's own."""
    start = time.perf_counter()
    for m in _CAL_MATS:
        np.linalg.qr(m)
        np.linalg.svd(m, compute_uv=False)
        np.abs(m @ m.conj().T).max()
    return time.perf_counter() - start


def scaled(seconds, kernel) -> float:
    return seconds * CAL_REF_S / kernel


def machine_block() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg": os.getloadavg(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def probe_imports(env):
    """Scaled (import loccdist, import loccdist.cli, bare interpreter start),
    seconds, each in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    pkg, cli = (float(x) for x in proc.stdout.split())
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, timeout=60, check=True)
    bare = time.perf_counter() - start
    kernel = calibrate()
    return scaled(pkg, kernel), scaled(cli, kernel), scaled(bare, kernel)


class Workload:
    """Inputs built, the round of operations, and how to trace a round."""

    def __init__(self, name, seed, env, workdir):
        import loccdist

        self.name, self.loccdist = name, loccdist
        self.cases = (workloads.cli_cases(seed) if name == "cli"
                      else workloads.cases(name, seed))
        self.workdir, self.env = workdir, env
        self.runner = None
        self.tracer = None

    def build(self):
        """Build the inputs loccdist receives; this is the timed part of set-up."""
        if self.name == "cli":
            import loccdist.cli  # noqa: F401  (the file writers are in loccdist.cli)

            workloads.write_cli_inputs(self.loccdist, self.cases, self.workdir)
            self.runner = workloads.CliRunner(self.env, ROOT, self.workdir)
            return workloads.cli_ops(self.runner, self.cases, self.workdir)
        ensembles = workloads.build_ensembles(self.loccdist, self.cases)
        return workloads.search_ops(self.loccdist, self.cases, ensembles)

    def tracing(self, on: bool):
        """Start tracing, or stop it and return the round's span snapshot."""
        if self.runner is not None:
            return self.runner.tracing(on)
        if on:
            self.tracer = spans.Tracer()
            self.tracer.install()
            return None
        self.tracer.uninstall()
        return self.tracer.snapshot()


class Tally:
    """Outcomes and times of every operation of the round, round by round."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = self.failed = 0
        self.problems = []
        self.first = None   # (failed, decided) of each operation in the first round
        self.raw = []       # per round: wall time of each operation, seconds
        self.kernel = []    # per round: calibration time around each operation

    def round(self) -> list:
        """Run the round; return the scaled time of each operation."""
        outcomes, times, kernel = [], [], []
        before, last, pending = calibrate(), time.perf_counter(), 0
        for op in self.ops:
            start = time.perf_counter()
            try:
                result, crashed = op.run(), False
            except Exception:  # a crash of the program is a failed operation
                result, crashed = None, True
            end = time.perf_counter()
            times.append(end - start)
            pending += 1
            if end - last >= CAL_EVERY_S or op is self.ops[-1]:
                after = calibrate()
                kernel += [(before + after) / 2] * pending
                before, last, pending = after, time.perf_counter(), 0
            failed, decided, problems = True, False, []
            if not crashed:
                try:
                    failed, decided, problems = op.check(result)
                except Exception as exc:  # output the checks cannot read
                    failed, decided, problems = False, False, [f"unreadable output: {exc!r}"]
            self.attempted += 1
            self.failed += failed
            self.problems += [f"{op.name}: {p}" for p in problems]
            outcomes.append((failed, decided))
        if self.first is None:
            self.first = outcomes
        self.problems += [f"{op.name}: outcome changed between rounds"
                          for op, now, then in zip(self.ops, outcomes, self.first)
                          if now != then]
        self.raw.append(times)
        self.kernel.append(kernel)
        return [scaled(t, k) for t, k in zip(times, kernel)]

    @property
    def decided(self) -> int:
        return sum(decided for _, decided in self.first)

    def typical(self, rounds) -> list:
        """Median scaled time of each successful operation over ``rounds``."""
        return [statistics.median(r[i] for r in rounds)
                for i, (failed, _) in enumerate(self.first) if not failed]


def run(args) -> dict:
    env = child_env()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = Workload(args.workload, args.seed, env, workdir)
        setups, probes = [], []
        for _ in range(SETUP_REPS):
            probe = probe_imports(env)
            start = time.perf_counter()
            ops = wl.build()
            built = scaled(time.perf_counter() - start, calibrate())
            probes.append(probe)
            setups.append((probe[1] if args.workload == "cli" else probe[0]) + built)

        warm = Tally(ops[:WARMUP_OPS])
        warm.round()
        tally = Tally(ops)
        plain, traced, snaps = [], [], []
        started = time.perf_counter()
        while True:
            plain.append(tally.round())
            if args.trace:
                wl.tracing(True)
                try:
                    traced.append(tally.round())
                finally:
                    snap = wl.tracing(False)
                snaps.append((snap, statistics.median(tally.kernel[-1])))
            elapsed = time.perf_counter() - started
            if elapsed >= args.seconds:
                break
            if elapsed * (len(plain) + 1) / len(plain) > MAX_SECONDS:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = warm.problems + tally.problems

    if args.trace:
        overhead = sum(tally.typical(traced)) - sum(tally.typical(plain))
        metrics, missing = layer_metrics(snaps, probes, overhead, problems)
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        typical_ms = [1000.0 * t for t in tally.typical(plain)]
        values = {
            "throughput_per_s": 1000.0 * len(typical_ms) / sum(typical_ms),
            "latency_ms.p50": statistics.median(typical_ms),
            "latency_ms.p90": statistics.quantiles(typical_ms, n=10)[-1],
            "decided": tally.decided,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        missing = []
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_block(), "rounds": len(plain) + len(traced),
        "round_ops": len(ops), "missing": missing, "problems": problems[:50],
        "setup_s": setups, "op_names": [op.name for op in ops],
        "wall_s": tally.raw, "kernel_s": tally.kernel,
        "result": {"correct": not problems, "attempted": tally.attempted,
                   "failed": tally.failed, "metrics": metrics},
    }


def layer_metrics(snaps, probes, overhead, problems):
    """Per-layer metrics of one round: counts from the first traced round
    (checked to repeat in every traced round), scaled times as medians."""
    per_round = [(spans.layer_values(snap), kernel) for snap, kernel in snaps]
    metrics = {}
    for key, value in per_round[0][0].items():
        if key.endswith("_ms"):
            metrics[key] = (statistics.median(scaled(r[key], k) for r, k in per_round), "ms")
        else:
            if any(r[key] != value for r, _ in per_round):
                problems.append(f"count {key} differs between traced rounds")
            metrics[key] = (value, "count")
    metrics["cli.import_ms"] = (1000.0 * statistics.median(p[1] for p in probes), "ms")
    metrics["cli.interp_start_ms"] = (1000.0 * statistics.median(p[2] for p in probes), "ms")
    metrics["trace.overhead_ms"] = (1000.0 * overhead, "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, snaps[0][0]["missing"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep2x2", "highdim", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "loccdist" / "__init__.py").is_file():
        sys.exit(f"no loccdist sources under {SRC}")
    sys.path.insert(0, str(SRC))

    record = run(args)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print("machine:", json.dumps(record["machine"]))
    print(f"rounds: {record['rounds']} x {record['round_ops']} operations")
    for key in record["missing"]:
        print(f"missing: {key} no longer exists; its metrics are not reported")
    for problem in record["problems"]:
        print("problem:", problem)
    for key, m in record["result"]["metrics"].items():
        print(f"{key}: {m['value']} {m['unit']}")
    print(json.dumps(record["result"]))


if __name__ == "__main__":
    main()
