#!/usr/bin/env python3
"""Sweep random two-qubit ensembles and tally the classification outcomes.

Cross-checks every verdict against the Schmidt-rank form of the two-qubit
rule (one or two states: always distinguishable; three: at most one
entangled; four: all product) and the Schmidt-sum necessary condition, and
re-verifies every emitted protocol.  Run with ``PYTHONPATH=src``.
"""

import argparse
import collections
import time

import loccdist as L


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    tally = collections.Counter()
    started = time.perf_counter()
    for i in range(args.count):
        kind = "product-basis" if i % 2 else "haar-orthogonal"
        m = 2 + (i % 3)
        e = L.random_ensemble(2, 2, m, seed=args.seed + i, kind=kind)
        cls = L.classify_2x2(e)
        # the Schmidt-rank form of the two-qubit rule, as a reference
        entangled = sum(L.schmidt_number(s) > 1 for s in e.states)
        rule = m <= 2 or (m == 3 and entangled <= 1) or (m == 4 and entangled == 0)
        assert cls.distinguishable == rule, f"seed {args.seed + i}: verdict differs from the rule"
        if cls.distinguishable:
            assert L.verify_protocol(cls.protocol, e).ok
            assert not cls.schmidt_report.violates
        tally[(kind, m, "distinguishable" if cls.distinguishable else "indistinguishable")] += 1
    elapsed = time.perf_counter() - started

    print(f"{args.count} ensembles in {elapsed:.2f}s")
    print(f"{'kind':<16} {'m':>2} {'verdict':<18} {'count':>6}")
    for (kind, m, verdict), count in sorted(tally.items()):
        print(f"{kind:<16} {m:>2} {verdict:<18} {count:>6}")


if __name__ == "__main__":
    main()
