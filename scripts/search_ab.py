#!/usr/bin/env python3
"""Time the search of two loccdist source trees against each other in one process.

Both trees are imported into this process, each with the instances of
``search_fingerprint.instances()`` built by its own code.  Every round runs
each instance once on either tree, back to back, and the tree that goes
first alternates from instance to instance and from round to round, so a
slow phase of the machine hits both alike.  Separate benchmark processes
swing by several percent between runs on a shared machine; in one process
the two trees see the same phases.

For every family of instances (the instance name without its seed or
rotation number) the script prints the instance count, the sum over the
family's instances of each one's minimum search time over the rounds, on
the old and on the new tree, and the relative change of the new tree.  The
table ends with the total over all instances.  Two last lines give the
number of instances whose protocol bytes differ between the trees (the
sha256 of ``json.dumps(protocol_to_dict(protocol))``, as in
``search_fingerprint.py``) and the number whose protocol shapes differ
(``search_fingerprint.protocol_shape``: parties, outcome ranks and leaf
labels), so a change that only moves floating-point bits or phases reads 0
shapes changed.  Those instances are listed on stderr.  The script exits 1
if any instance differs between the trees in verdict, nodes explored or
depth limit, and lists those instances on stderr too; differing bytes or
shapes alone do not change the exit code.

With ``--cases sweep2x2`` or ``--cases highdim`` the instances are instead
the benchmark's seeded cases of that workload, for every seed of
``--seeds`` (default 1,2), from ``perfbench/workloads.py``; each tree
builds their ensembles with its own ``make_state`` and ``make_ensemble``,
as the benchmark does, and a family is the benchmark's family name.  A
second table then gives each tree's end-to-end metrics as
``perfbench/run.py`` takes them, from every instance's median time over the
rounds: ``throughput_per_s`` (instances over the sum of those medians),
``latency_ms.p50`` and ``latency_ms.p90``.  These are plain wall times; the
benchmark also scales its times by a calibration kernel.

Usage: python3 scripts/search_ab.py OLD_SRC NEW_SRC [--repeat N]
                                    [--cases sweep2x2|highdim [--seeds 1,2]]

where OLD_SRC and NEW_SRC are ``src`` directories, each holding a
``loccdist`` package (for example ``src`` of two checkouts).  BLAS runs on
one thread, as in ``perfbench``.
"""

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import re
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# one BLAS thread, as in the benchmark, before any tree imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

FINGERPRINT = Path(__file__).resolve().parent / "search_fingerprint.py"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bench_cases(workload: str, seeds: list[int]):
    """The benchmark's ``workloads`` module and its seeded cases of one
    workload over every seed, in order."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads, [case for seed in seeds for case in workloads.cases(workload, seed)]


def load_tree(src: Path, tag: str, bench=None):
    """Import the loccdist package under ``src``, ``search_fingerprint.py`` on
    it, and the instances built by it: those of ``search_fingerprint.py``,
    or the ensembles of ``bench``, ``bench_cases``'s output, named
    ``family/index``.
    Returns ``(modules, search, digest, shape, instances)``; ``modules`` are
    the package's entries of ``sys.modules``, which must be put back before
    a search of this tree, since the search imports a module when called,
    and ``digest`` and ``shape`` hash and describe a protocol of this tree,
    ``-`` when there is none."""
    for name in [n for n in sys.modules if n == "loccdist" or n.startswith("loccdist.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("loccdist")
        cli = importlib.import_module("loccdist.cli")
        # criteria imports every other submodule; a lazy package would
        # otherwise import one later, while the other tree's are in sys.modules
        importlib.import_module("loccdist.criteria")
        spec = importlib.util.spec_from_file_location(f"search_fingerprint_{tag}", FINGERPRINT)
        fingerprint = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fingerprint)
        if bench is None:
            instances = list(fingerprint.instances())
        else:
            workloads, cases = bench
            instances = [(f"{case.family}/{i}", ens) for i, (case, ens) in
                         enumerate(zip(cases, workloads.build_ensembles(package, cases)))]
    finally:
        sys.path.remove(str(src))
    if Path(package.__file__).resolve().parent != (src / "loccdist").resolve():
        sys.exit(f"{src} holds no loccdist package")
    modules = {n: m for n, m in sys.modules.items()
               if n == "loccdist" or n.startswith("loccdist.")}

    def digest(protocol):
        if protocol is None:
            return "-"
        return hashlib.sha256(json.dumps(cli.protocol_to_dict(protocol)).encode()).hexdigest()

    def shape(protocol):
        return "-" if protocol is None else fingerprint.protocol_shape(protocol)

    return modules, package.search_protocol, digest, shape, instances


def family(name: str) -> str:
    return re.sub(r"(-s|-rot|(?<=sweep2x2)-|/)\d+$", "", name)


def end_to_end(times):
    """``throughput_per_s``, ``latency_ms.p50`` and ``latency_ms.p90`` of one
    tree, from each instance's median time over the rounds, as
    ``perfbench/run.py`` computes them from its typical times."""
    typical_ms = [1000.0 * statistics.median(t) for t in times]
    return {"throughput_per_s": 1000.0 * len(typical_ms) / sum(typical_ms),
            "latency_ms.p50": statistics.median(typical_ms),
            "latency_ms.p90": statistics.quantiles(typical_ms, n=10)[-1]}


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
                    help="rounds over every instance (default 5)")
    ap.add_argument("--cases", choices=("sweep2x2", "highdim"),
                    help="search the benchmark's seeded cases of this workload instead")
    ap.add_argument("--seeds", type=seed_list, metavar="S,S,...",
                    help="benchmark seeds of --cases (default 1,2)")
    args = ap.parse_args()
    if args.seeds and not args.cases:
        ap.error("--seeds needs --cases")
    bench = bench_cases(args.cases, args.seeds or [1, 2]) if args.cases else None
    trees = [load_tree(args.old_src, "old", bench), load_tree(args.new_src, "new", bench)]
    names = [name for name, _ in trees[0][-1]]
    if names != [name for name, _ in trees[1][-1]]:
        sys.exit("the two trees build different instance lists")

    times = [[[] for _ in names] for _ in trees]
    results = [[None] * len(names) for _ in trees]
    digests = [[None] * len(names) for _ in trees]
    shapes = [[None] * len(names) for _ in trees]
    for r in range(args.repeat):
        for i in range(len(names)):
            first = (i + r) % 2
            for side in (first, 1 - first):
                modules, search, digest, shape, instances = trees[side]
                sys.modules.update(modules)
                start = time.perf_counter()
                out = search(instances[i][1])
                elapsed = time.perf_counter() - start
                times[side][i].append(elapsed)
                results[side][i] = (out.verdict, out.nodes_explored, out.max_depth)
                digests[side][i] = digest(out.protocol)
                shapes[side][i] = shape(out.protocol)

    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for i, name in enumerate(names):
        for key in (family(name), None):
            row = totals[key]
            row[0] += 1
            row[1] += 1000.0 * min(times[0][i])
            row[2] += 1000.0 * min(times[1][i])
    totals["total"] = totals.pop(None)
    print(f"{'family':<30} {'n':>4} {'old_ms':>10} {'new_ms':>10} {'change':>8}")
    for key, (count, old, new) in totals.items():
        print(f"{key:<30} {count:>4} {old:>10.3f} {new:>10.3f} {(new - old) / old:>+8.1%}")
    if args.cases:
        print(f"\n{'metric':<30} {'old':>10} {'new':>10} {'change':>8}")
        old, new = (end_to_end(side) for side in times)
        for key in old:
            print(f"{key:<30} {old[key]:>10.3f} {new[key]:>10.3f} "
                  f"{(new[key] - old[key]) / old[key]:>+8.1%}")

    for what, values in (("bytes", digests), ("shapes", shapes)):
        changed = [name for name, a, b in zip(names, *values) if a != b]
        print(f"protocol {what} differ: {len(changed)} of {len(names)}")
        for name in changed:
            print(f"protocol {what} differ: {name}", file=sys.stderr)
    differ = [(name, a, b) for name, a, b in zip(names, *results) if a != b]
    for name, a, b in differ:
        print(f"differs: {name}: old {a}, new {b}", file=sys.stderr)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
