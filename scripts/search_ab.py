#!/usr/bin/env python3
"""Time two loccdist source trees against each other, interleaved, in one process.

Both trees are imported into this process, and each builds its operations
with its own code:

- by default, a search of every instance of
  ``search_fingerprint.instances()``;
- with ``--cases sweep2x2`` or ``--cases highdim``, the benchmark's
  searches of that workload (``workloads.search_ops`` over
  ``build_ensembles``), for every seed of ``--seeds``;
- with ``--cases cli``, the benchmark's ``cli`` round (``workloads.cli_ops``)
  for every seed of ``--seeds``: each call a fresh ``python -m loccdist.cli``
  process, on input files that each tree writes into its own directory.

``perfbench/workloads.py`` is read, never changed.  Every round runs each
operation once on either tree, back to back, and the tree that goes first
alternates from operation to operation and from round to round, so a slow
phase of the machine hits both alike.  As in the benchmark's ``Tally``, an
operation that raises is a failed operation, and every answer goes through
the operation's check: the benchmark's own checks, which re-walk every
protocol with plain numpy (a fingerprint instance must only be answered
soundly).

The script prints, per group (a family of instances, or a CLI command kind),
the number of operations and each tree's sum of per-operation median times
over the rounds, with the relative change.  Then each tree's end-to-end
metrics as ``perfbench/run.py`` computes them from those medians, failed
operations left out: ``throughput_per_s``, ``latency_ms.p50`` and
``latency_ms.p90``; the group of the operation nearest each latency metric,
which names the band a latency change moves; and the ``decided`` and
``failed`` counts of the first round.  These are plain wall times; the
benchmark also scales its times by a calibration kernel.  Then the
per-round throughput ratio new/old: its median, its quartiles, the rounds
the new tree won, and the spread of the old tree's own per-round
throughput (quartile distance over median).  For
searches, three last lines give the number of operations whose protocol
bytes differ between the trees (``search_fingerprint.protocol_digest``, the
hash that script prints), whose protocol shapes differ (``protocol_shape``:
parties, outcome ranks and leaf labels) and whose verification reports
differ, listed on stderr.  Each tree verifies its own protocol with its own
``verify_protocol``, outside the timed call, and the reports must agree
exactly: ``completeness_deviation``, ``state_totals`` and every leaf's
probabilities.

The script exits 1, listing the cause on stderr, when an outcome differs
between the trees or between rounds, or when a check finds a problem.  An
outcome is a search's verdict, nodes explored and depth limit, and every
operation's failed and decided flags; differing bytes, shapes or reports
alone do not change the exit code.

Usage: python3 scripts/search_ab.py OLD_SRC NEW_SRC [--repeat N]
                                    [--cases sweep2x2|highdim|cli] [--seeds 1,2]

where OLD_SRC and NEW_SRC are ``src`` directories, each holding a
``loccdist`` package (for example ``src`` of two checkouts).  BLAS runs on
one thread, as in ``perfbench``; CLI processes inherit that.
"""

import os

# one BLAS thread, as in the benchmark, before any tree imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import importlib.util
import re
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

FINGERPRINT = Path(__file__).resolve().parent / "search_fingerprint.py"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SIDES = ("old", "new")


def load_tree(src: Path, tag: str, workloads, cases, seeds, workdir: Path):
    """Import the loccdist package under ``src`` and build its operations with
    its own code: those of ``--cases`` (``cases``, None for the fingerprint)
    over ``seeds``, CLI input files written under ``workdir``.

    Returns ``(modules, ops, names, describe)``.  ``modules`` are the
    package's entries of ``sys.modules``, which must be put back before an
    operation of this tree, since a search imports a module when called;
    ``describe(i, result)`` gives the outcome fields of operation ``i``'s
    result beyond failed and decided, and its protocol's digest, shape and
    verification report (``report_key``)."""
    src = src.resolve()
    if not (src / "loccdist" / "__init__.py").is_file():
        sys.exit(f"{src} holds no loccdist package")
    for name in [n for n in sys.modules if n == "loccdist" or n.startswith("loccdist.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("loccdist")
        importlib.import_module("loccdist.cli")
        # criteria imports every other submodule; a lazy package would
        # otherwise import one later, while the other tree's are in sys.modules
        importlib.import_module("loccdist.criteria")
        spec = importlib.util.spec_from_file_location(f"search_fingerprint_{tag}", FINGERPRINT)
        fingerprint = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fingerprint)
        if cases == "cli":
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
            ops = []
            for seed in seeds:
                seed_dir = workdir / f"{tag}-{seed}"
                seed_dir.mkdir()
                cli_cases = workloads.cli_cases(seed)
                workloads.write_cli_inputs(package, cli_cases, seed_dir)
                runner = workloads.CliRunner(env, src.parent, seed_dir)
                ops += workloads.cli_ops(runner, cli_cases, seed_dir)
        else:
            if cases is None:
                all_cases, ensembles = [], []
                for name, e in fingerprint.instances():
                    all_cases.append(workloads.Case(name, {s.name: s.amplitudes
                                                           for s in e.states}))
                    ensembles.append(e)
            else:
                all_cases = [case for seed in seeds for case in workloads.cases(cases, seed)]
                ensembles = workloads.build_ensembles(package, all_cases)
            ops = workloads.search_ops(package, all_cases, ensembles)
    finally:
        sys.path.remove(str(src))
    modules = {n: m for n, m in sys.modules.items()
               if n == "loccdist" or n.startswith("loccdist.")}
    names = [op.name if cases is None else f"{op.name}/{i}" for i, op in enumerate(ops)]

    def describe(i, out):
        if cases == "cli":
            return (), None, None, None
        if out.protocol is None:
            shape = report = "-"
        else:
            shape = fingerprint.protocol_shape(out.protocol)
            report = report_key(package.verify_protocol(out.protocol, ensembles[i]))
        return ((out.verdict, out.nodes_explored, out.max_depth),
                fingerprint.protocol_digest(out.protocol), shape, report)

    return modules, ops, names, describe


def report_key(report) -> str:
    """The numbers of a verification report, ``completeness_deviation``,
    ``state_totals`` and each leaf's probabilities, as text that differs
    whenever one of them differs by a bit (``repr`` of a float round-trips
    it, and tells ``-0.0`` from ``0.0``)."""
    return repr((report.completeness_deviation, report.state_totals,
                 [probs for _, _, probs in report.leaves]))


def group(name: str) -> str:
    """The family of a fingerprint instance, or the group of an operation
    named ``group/index``."""
    return re.sub(r"(-s|-rot|(?<=sweep2x2)-|/)\d+$", "", name)


def quartiles(values):
    """(q1, median, q3) of ``values``, as ``statistics.quantiles`` takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(typical_ms):
    """``throughput_per_s``, ``latency_ms.p50`` and ``latency_ms.p90`` from
    each successful operation's median time, as ``perfbench/run.py``
    computes them from its typical times."""
    return {"throughput_per_s": 1000.0 * len(typical_ms) / sum(typical_ms),
            "latency_ms.p50": statistics.median(typical_ms),
            "latency_ms.p90": statistics.quantiles(typical_ms, n=10)[-1]}


def band(typical_ms, value):
    """The group of the operation whose typical time, in a mapping from
    operation name to time, is nearest ``value``: the band a latency metric
    falls in."""
    return group(min(typical_ms, key=lambda name: abs(typical_ms[name] - value)))


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def seed_list(text):
    try:
        seeds = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("must be integers separated by commas") from None
    if any(seed < 0 for seed in seeds):
        raise argparse.ArgumentTypeError("seeds must be >= 0")
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", type=Path, metavar="OLD_SRC")
    ap.add_argument("new_src", type=Path, metavar="NEW_SRC")
    ap.add_argument("--repeat", type=positive_int, default=5, metavar="N",
                    help="rounds over every operation (default 5)")
    ap.add_argument("--cases", choices=("sweep2x2", "highdim", "cli"),
                    help="run the benchmark's operations of this workload instead")
    ap.add_argument("--seeds", type=seed_list, metavar="S,S,...",
                    help="benchmark seeds of --cases (default 1,2)")
    args = ap.parse_args()
    if args.seeds and not args.cases:
        ap.error("--seeds needs --cases")
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))

    with tempfile.TemporaryDirectory() as tmp:
        trees = [load_tree(src, tag, workloads, args.cases, args.seeds or [1, 2], Path(tmp))
                 for src, tag in ((args.old_src, "old"), (args.new_src, "new"))]
        names = trees[0][2]
        if names != trees[1][2]:
            sys.exit("the two trees build different operation lists")
        times = [[[] for _ in names] for _ in trees]
        outcomes = [[None] * len(names) for _ in trees]
        protocols = [[(None, None, None)] * len(names) for _ in trees]
        problems = []
        for r in range(args.repeat):
            for i, name in enumerate(names):
                first = (i + r) % 2
                for side in (first, 1 - first):
                    modules, ops, _, describe = trees[side]
                    sys.modules.update(modules)
                    start = time.perf_counter()
                    try:
                        result = ops[i].run()
                    except Exception as exc:  # a crash of the program is a failed operation
                        print(f"crashed: {SIDES[side]} {name}: {exc!r}", file=sys.stderr)
                        result = None
                    times[side][i].append(time.perf_counter() - start)
                    failed, decided, found, extra = True, False, [], ()
                    if result is not None:
                        extra, digest, shape, report = describe(i, result)
                        protocols[side][i] = (digest, shape, report)
                        try:
                            failed, decided, found = ops[i].check(result)
                        except Exception as exc:  # output the checks cannot read
                            failed, decided, found = False, False, [f"unreadable output: {exc!r}"]
                    problems += [f"{SIDES[side]} {name}: {p}" for p in found]
                    outcome = (failed, decided, *extra)
                    if outcomes[side][i] is None:
                        outcomes[side][i] = outcome
                    elif outcome != outcomes[side][i]:
                        problems.append(f"{SIDES[side]} {name}: outcome changed between rounds")

    ok = [[not outcome[0] for outcome in side] for side in outcomes]
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for i, name in enumerate(names):
        for key in (group(name), "total"):
            rows[key][0] += 1
            for side in (0, 1):
                rows[key][1 + side] += 1000.0 * statistics.median(times[side][i])
    rows["total"] = rows.pop("total")
    print(f"{'group':<30} {'n':>4} {'old_ms':>10} {'new_ms':>10} {'change':>8}")
    for key, (count, old, new) in rows.items():
        print(f"{key:<30} {count:>4} {old:>10.3f} {new:>10.3f} {(new - old) / old:>+8.1%}")

    typical = [{name: 1000.0 * statistics.median(t) for name, t, good in zip(names, side, mask)
                if good} for side, mask in zip(times, ok)]
    old, new = (end_to_end(list(side.values())) for side in typical)
    print(f"\n{'metric':<30} {'old':>10} {'new':>10} {'change':>8}")
    for key in old:
        print(f"{key:<30} {old[key]:>10.3f} {new[key]:>10.3f} "
              f"{(new[key] - old[key]) / old[key]:>+8.1%}")
    for key in ("latency_ms.p50", "latency_ms.p90"):
        print(f"{key + ' group':<30} {band(typical[0], old[key]):>10} "
              f"{band(typical[1], new[key]):>10}")
    for key, column in (("decided", 1), ("failed", 0)):
        counts = [sum(o[column] for o in side) for side in outcomes]
        print(f"{key:<30} {counts[0]:>10} {counts[1]:>10}")

    per_round = [[sum(mask) / sum(t[r] for t, good in zip(side, mask) if good)
                  for r in range(args.repeat)] for side, mask in zip(times, ok)]
    ratios = [new / old for old, new in zip(*per_round)]
    q1, median, q3 = quartiles(ratios)
    old_q1, old_median, old_q3 = quartiles(per_round[0])
    print(f"\nthroughput ratio new/old per round: median {median:.3f}, quartiles {q1:.3f} "
          f"{q3:.3f}, new won {sum(x > 1 for x in ratios)} of {args.repeat}, "
          f"old spread {(old_q3 - old_q1) / old_median:.1%}")

    if args.cases != "cli":
        for what, column in (("protocol bytes", 0), ("protocol shapes", 1),
                             ("verification reports", 2)):
            changed = [name for name, a, b in zip(names, *protocols) if a[column] != b[column]]
            print(f"{what} differ: {len(changed)} of {len(names)}")
            for name in changed:
                print(f"{what} differ: {name}", file=sys.stderr)
    differ = [(name, a, b) for name, a, b in zip(names, *outcomes) if a != b]
    for name, a, b in differ:
        print(f"differs: {name}: old {a}, new {b}", file=sys.stderr)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    sys.exit(1 if differ or problems else 0)


if __name__ == "__main__":
    main()
