#!/usr/bin/env python3
"""Time the benchmark's ``cli`` round on two loccdist source trees, interleaved.

Every operation of the round is a fresh ``python -m loccdist.cli`` process,
as in ``perfbench``: the ensemble and protocol files of ``cli_cases`` and the
calls of ``CLI_ROUND``, read from ``perfbench/workloads.py``.  Each tree
writes its own input files with its own code into its own directory.  Every
round runs each operation once on either tree, back to back, and the tree
that goes first alternates from operation to operation and from round to
round, so a slow phase of the machine hits both alike.  Every answer is
checked by the benchmark's own checks.

The script prints, per command kind (the benchmark's operation names), the
number of operations per round, each tree's median raw wall time over all
of its calls, and the ratio new/old.  A second table gives each tree's
end-to-end metrics as ``perfbench/run.py`` takes them, from each operation's
median wall time over the rounds, the operations that failed left out:
``throughput_per_s``, ``latency_ms.p50`` and ``latency_ms.p90``, then the
``decided`` and ``failed`` counts of one round.  These are plain wall times;
the benchmark also scales its times by a calibration kernel, which does not
track the interpreter start and imports that make up most of a CLI process.
The script exits 1 when a check finds a problem or the trees' outcomes
differ, and lists those on stderr.

Usage: python3 scripts/cli_ab.py OLD_SRC NEW_SRC [--rounds N] [--seed S]

where OLD_SRC and NEW_SRC are ``src`` directories, each holding a
``loccdist`` package (for example ``src`` of two checkouts).  BLAS runs on
one thread, as in ``perfbench``.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

# one BLAS thread, as in the benchmark; the CLI processes inherit it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

#: writes a tree's cli input files with that tree's own code, as
#: ``perfbench/run.py`` does (it imports ``loccdist.cli`` first)
WRITE_INPUTS = ("import sys; from pathlib import Path; import loccdist.cli, workloads; "
                "workloads.write_cli_inputs(loccdist, workloads.cli_cases(int(sys.argv[1])), "
                "Path(sys.argv[2]))")


def tree_ops(src: Path, seed: int, workdir: Path):
    """The round of ``cli`` operations on the tree under ``src``, its input
    files written into ``workdir``."""
    if not (src / "loccdist" / "__init__.py").is_file():
        sys.exit(f"{src} holds no loccdist package")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    setup_env = dict(env, PYTHONPATH=os.pathsep.join((str(PERFBENCH), env["PYTHONPATH"])))
    subprocess.run([sys.executable, "-c", WRITE_INPUTS, str(seed), str(workdir)],
                   env=setup_env, cwd=src.parent, check=True, timeout=120)
    runner = workloads.CliRunner(env, src.parent, workdir)
    return workloads.cli_ops(runner, workloads.cli_cases(seed), workdir)


def end_to_end(times, failed):
    """``throughput_per_s``, ``latency_ms.p50`` and ``latency_ms.p90`` of one
    tree, from each successful operation's median time over the rounds, as
    ``perfbench/run.py`` computes them from its typical times."""
    typical_ms = [1000.0 * statistics.median(t) for t, f in zip(times, failed) if not f]
    return {"throughput_per_s": 1000.0 * len(typical_ms) / sum(typical_ms),
            "latency_ms.p50": statistics.median(typical_ms),
            "latency_ms.p90": statistics.quantiles(typical_ms, n=10)[-1]}


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", type=Path, metavar="OLD_SRC")
    ap.add_argument("new_src", type=Path, metavar="NEW_SRC")
    ap.add_argument("--rounds", type=positive_int, default=3, metavar="N",
                    help="rounds of the cli operations on each tree (default 3)")
    ap.add_argument("--seed", type=int, default=1, help="benchmark seed (default 1)")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        trees = []
        for tag, src in (("old", args.old_src), ("new", args.new_src)):
            workdir = Path(tmp) / tag
            workdir.mkdir()
            trees.append(tree_ops(src.resolve(), args.seed, workdir))
        names = [op.name for op in trees[0]]
        times = [[[] for _ in names] for _ in trees]
        outcomes = [[None] * len(names) for _ in trees]
        problems = []
        for r in range(args.rounds):
            for i in range(len(names)):
                first = (i + r) % 2
                for side in (first, 1 - first):
                    op = trees[side][i]
                    start = time.perf_counter()
                    proc = op.run()
                    times[side][i].append(time.perf_counter() - start)
                    failed, decided, found = op.check(proc)
                    problems += [f"{('old', 'new')[side]} {op.name}: {p}" for p in found]
                    if r == 0:
                        outcomes[side][i] = (failed, decided)

    kinds = defaultdict(lambda: [0, [], []])
    for i, name in enumerate(names):
        row = kinds[name]
        row[0] += 1
        for side in (0, 1):
            row[1 + side] += times[side][i]
    print(f"{'command':<20} {'n':>4} {'old_ms':>10} {'new_ms':>10} {'ratio':>7}")
    for name, (count, old, new) in kinds.items():
        old_ms, new_ms = (1000.0 * statistics.median(t) for t in (old, new))
        print(f"{name:<20} {count:>4} {old_ms:>10.1f} {new_ms:>10.1f} {new_ms / old_ms:>7.3f}")

    print(f"\n{'metric':<20} {'old':>10} {'new':>10} {'change':>8}")
    failed = [[f for f, _ in side] for side in outcomes]
    old, new = (end_to_end(t, f) for t, f in zip(times, failed))
    for key in old:
        print(f"{key:<20} {old[key]:>10.3f} {new[key]:>10.3f} "
              f"{(new[key] - old[key]) / old[key]:>+8.1%}")
    for key, column in (("decided", 1), ("failed", 0)):
        counts = [sum(o[column] for o in side) for side in outcomes]
        print(f"{key:<20} {counts[0]:>10} {counts[1]:>10}")
    print(f"rounds: {args.rounds} x {len(names)} operations per tree")

    differ = [name for name, a, b in zip(names, *outcomes) if a != b]
    for name in differ:
        print(f"outcome differs: {name}", file=sys.stderr)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    sys.exit(1 if differ or problems else 0)


if __name__ == "__main__":
    main()
