#!/usr/bin/env python3
"""Print the exit code and report of a fixed list of CLI calls, to compare two versions.

Every call runs in process through ``run_cli`` of ``tests/conftest.py``, on
ensemble and protocol files that the script first writes into a fresh
temporary directory; every output path lies in that directory too.  For each
call the script prints the argument list, the exit code, the name of any
exception that escaped the CLI, the report and any notice or usage error,
interleaved as written (``timing_ms`` and the temporary directory masked),
and the sha256 of every file the call wrote.  Running it on two checkouts and
diffing the outputs shows every report, exit code and written file that
changed.

The calls cover:

- every subcommand, and every ``check`` mode, on the canned examples and on
  six seeded two-qubit ensembles;
- a garbled file, a missing file, and files nested too deeply for the JSON
  reader (an ensemble and a protocol);
- ``example`` with the canned names and the ``random-*`` names;
- ``--output`` paths in a directory that does not exist;
- ``verify`` of seeded random protocol trees that are not refinements
  (from ``tests/treegen.py``), on the two-qubit ensembles, ``six4x4`` and a
  3x3 ensemble, so a diff shows ``completeness_deviation``, the state totals
  and every leaf probability down to the last bit;
- last, an ensemble file that declares dims ``[1, 2**60]``, ``verify
  --tolerance 1e-6`` of the ``bell2-x`` protocol with one column entry moved
  by 1e-7, ``verify`` of a protocol whose one projector column is empty,
  ``check`` of an ensemble with a state of norm 1e-13, and ``search
  --tolerance 1e-6`` of ``|+>|b0>``, ``|+>(1e-7|b0> + |b1>)`` for Bob's
  computational basis and for that basis turned by 0.3 rad.  Alice's cross
  operator (~5e-8) is within that tolerance, so Bob's Schmidt closure ends
  the root; in the turned basis its protocol differs from what a search of
  the candidates finds;
- then ``check --mode classify2x2`` of two three-state sets a hair off the
  Walgate-Hardy form (``_near_walgate_hardy`` of ``tests/test_criteria.py``):
  seed 28, inside the margin of ``no`` (exit 2), and seed 0, which the
  margin proves (exit 1).

Usage: PYTHONPATH=src python3 scripts/cli_fingerprint.py > cli_fingerprint.txt
"""

import hashlib
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

import loccdist as L
from loccdist.cli import ensemble_to_dict, protocol_to_dict, write_json

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import run_cli  # noqa: E402
from test_criteria import _near_walgate_hardy  # noqa: E402
from treegen import random_tree  # noqa: E402

CANNED = ("bell4", "bell3", "bell2", "six4x4", "domino9")
TWO_QUBIT = tuple(f"q{i}" for i in range(6))
PROTOCOLS = {"bell2": "bell2-x", "six4x4": "six4x4"}
#: ensemble file and seed of each random protocol tree
RANDOM_TREES = (("q0", 8000), ("q1", 8001), ("q2", 8002), ("q5", 8003),
                ("six4x4", 8004), ("h33", 8005), ("h33", 8006))
#: seeds of the near-Walgate-Hardy sets: inside the margin, then past it
NEAR_SEEDS = (28, 0)


def write_inputs(root: Path) -> None:
    ensembles = {name: L.canned_example(name) for name in CANNED}
    for name, e in ensembles.items():
        write_json(root / f"{name}.json", ensemble_to_dict(e))
    for name, proto in PROTOCOLS.items():
        write_json(root / f"{name}.canned.json", protocol_to_dict(L.canned_protocol(proto)))
    # the seeded mix of the search-vs-classification test: m = 2, 3, 4 states,
    # Haar-random and product bases
    for i, name in enumerate(TWO_QUBIT):
        kind = "product-basis" if i % 2 else "haar-orthogonal"
        ensembles[name] = L.random_ensemble(2, 2, 2 + i % 3, seed=7000 + i, kind=kind)
        write_json(root / f"{name}.json", ensemble_to_dict(ensembles[name]))
    ensembles["h33"] = L.random_ensemble(3, 3, 4, seed=7100, kind="haar-orthogonal")
    write_json(root / "h33.json", ensemble_to_dict(ensembles["h33"]))
    for name, seed in RANDOM_TREES:
        e = ensembles[name]
        tree = random_tree(np.random.default_rng(seed), e.dims, e.labels, depth=3)
        write_json(root / f"tree{seed}.protocol.json", protocol_to_dict(tree))
    (root / "garbled.json").write_text("{not json")
    deep = "[" * 2000 + "]" * 2000
    (root / "nested.json").write_text(
        '{"dims": [2, 2], "states": [{"name": "x", "amplitudes": ' + deep + "}]}")
    node = '{"party": "A", "outcomes": [{"projector_columns": [[[1, 0]]], "child": '
    (root / "nested.protocol.json").write_text(node * 3000 + '{"fail": true}'
                                               + "}]}" * 3000)
    (root / "huge-dims.json").write_text(
        '{"dims": [1, 1152921504606846976], "states": [{"name": "x", "amplitudes": [[[1, 0]]]}]}\n')
    nudged = protocol_to_dict(L.canned_protocol("bell2-x"))
    nudged["outcomes"][0]["projector_columns"][0][0][0] += 1e-7
    write_json(root / "nudged.protocol.json", nudged)
    write_json(root / "empty-column.protocol.json", {"party": "A", "outcomes": [
        {"projector_columns": [[]], "child": {"fail": True}}]})
    write_json(root / "tiny.json", {"dims": [2, 2], "states": [
        {"name": "tiny", "amplitudes": [[[1e-13, 0], [0, 0]], [[0, 0], [0, 0]]]},
        {"name": "one", "amplitudes": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}]})
    plus = np.full(2, 2 ** -0.5)
    for name, turn in (("close-pair", 0.0), ("close-pair-turned", 0.3)):
        b0, b1 = np.array([[np.cos(turn), np.sin(turn)], [-np.sin(turn), np.cos(turn)]])
        write_json(root / f"{name}.json", ensemble_to_dict(L.make_ensemble(
            [L.product_state(2, 2, plus, b0, name="x"),
             L.product_state(2, 2, plus, 1e-7 * b0 + b1, name="y")], tol=1e-6)))
    for seed in NEAR_SEEDS:
        write_json(root / f"near{seed}.json", ensemble_to_dict(_near_walgate_hardy(seed)[0]))


def calls(root: Path):
    for name in CANNED + TWO_QUBIT:
        path = str(root / f"{name}.json")
        yield ["schmidt", path]
        for mode in ("necessary", "classify2x2", "full"):
            yield ["check", path, "--mode", mode]
        yield ["search", path, "--output", str(root / f"{name}.found.json")]
        if name in PROTOCOLS:
            yield ["verify", path, str(root / f"{name}.canned.json")]
        if name != "domino9":
            yield ["verify", path, str(root / f"{name}.found.json")]
    yield ["verify", str(root / "bell2.json"), str(root / "six4x4.canned.json")]
    yield ["check", str(root / "bell3.json"), "--mode", "necessary", "--format", "text"]
    yield ["check", str(root / "q0.json"), "--mode", "classify2x2", "--format", "text"]
    yield ["search", str(root / "six4x4.json"), "--max-depth", "1"]
    yield ["check", str(root / "six4x4.json"), "--beam", "1"]
    yield ["check", str(root / "bell2.json"), "--tolerance", "1e-6"]
    for bad in ("garbled", "missing", "nested"):
        path = str(root / f"{bad}.json")
        yield ["schmidt", path]
        yield ["check", path]
        yield ["search", path]
        yield ["verify", path, str(root / "bell2.canned.json")]
    for bad in ("garbled", "missing", "nested.protocol"):
        yield ["verify", str(root / "bell2.json"), str(root / f"{bad}.json")]
    for name in CANNED:
        yield ["example", name, "--output", str(root / "ex" / f"{name}.json")]
    yield ["example", "random-product", "--dims", "3x2", "--count", "6", "--seed", "5",
           "--output", str(root / "ex" / "rp.json")]
    yield ["example", "random-haar", "--dims", "2x3", "--count", "3", "--seed", "42",
           "--output", str(root / "ex" / "rh.json")]
    yield ["example", "random-haar", "--dims", "two", "--output", str(root / "ex" / "x.json")]
    yield ["example", "random-haar", "--seed", "-1", "--output", str(root / "ex" / "x.json")]
    yield ["example", "nosuch", "--output", str(root / "ex" / "x.json")]
    yield ["search", str(root / "bell2.json"), "--output", str(root / "no-dir" / "p.json")]
    yield ["example", "bell2", "--output", str(root / "no-dir" / "x.json")]
    for name, seed in RANDOM_TREES:
        yield ["verify", str(root / f"{name}.json"), str(root / f"tree{seed}.protocol.json")]
    yield ["check", str(root / "huge-dims.json")]
    yield ["verify", str(root / "bell2.json"), str(root / "nudged.protocol.json"),
           "--tolerance", "1e-6"]
    yield ["verify", str(root / "bell2.json"), str(root / "empty-column.protocol.json")]
    yield ["check", str(root / "tiny.json")]
    for name in ("close-pair", "close-pair-turned"):
        yield ["search", str(root / f"{name}.json"), "--tolerance", "1e-6",
               "--output", str(root / f"{name}.found.json")]
    for seed in NEAR_SEEDS:
        yield ["check", str(root / f"near{seed}.json"), "--mode", "classify2x2"]


def digests(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def fingerprint() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp).resolve()
        (root / "ex").mkdir()
        write_inputs(root)
        mask = re.compile(r'(timing_ms"?: )[-+0-9.e]+')
        for args in calls(root):
            if "--format" not in args:
                args = args + ["--format", "json"]
            before = digests(root)
            result = run_cli(args)
            print("$", " ".join(args).replace(str(root), "<tmp>"))
            print("exit", result.exit_code)
            if result.exception is not None:
                print("exception", type(result.exception).__name__)
            print(mask.sub(r"\1<t>", result.output).replace(str(root), "<tmp>"), end="")
            for name, digest in digests(root).items():
                if before.get(name) != digest:
                    print("wrote", name, digest)


if __name__ == "__main__":
    fingerprint()
