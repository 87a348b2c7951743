#!/usr/bin/env python3
"""Print the exit code and report of a fixed list of CLI calls, to compare two versions.

Every call runs in process through click's ``CliRunner``, on ensemble and
protocol files that the script first writes into a fresh temporary
directory; every output path lies in that directory too.  For each call the
script prints the argument list, the exit code, the name of any exception
that escaped the CLI, the report (``timing_ms`` and the temporary directory
masked), and the sha256 of every file the call wrote.  Running it on two checkouts and diffing the outputs shows every
report, exit code and written file that changed.

The calls cover:

- every subcommand, and every ``check`` mode, on the canned examples and on
  six seeded two-qubit ensembles;
- a garbled file, a missing file, and files nested too deeply for the JSON
  reader (an ensemble and a protocol);
- ``example`` with the canned names and the ``random-*`` names;
- ``--output`` paths in a directory that does not exist.

Usage: PYTHONPATH=src python3 scripts/cli_fingerprint.py > cli_fingerprint.txt
"""

import hashlib
import re
import tempfile
from pathlib import Path

from click.testing import CliRunner

import loccdist as L
from loccdist.cli import ensemble_to_dict, main, protocol_to_dict, write_json

CANNED = ("bell4", "bell3", "bell2", "six4x4", "domino9")
TWO_QUBIT = tuple(f"q{i}" for i in range(6))
PROTOCOLS = {"bell2": "bell2-x", "six4x4": "six4x4"}


def write_inputs(root: Path) -> None:
    for name in CANNED:
        write_json(root / f"{name}.json", ensemble_to_dict(L.canned_example(name)))
    for name, proto in PROTOCOLS.items():
        write_json(root / f"{name}.canned.json", protocol_to_dict(L.canned_protocol(proto)))
    # the seeded mix of the search-vs-classification test: m = 2, 3, 4 states,
    # Haar-random and product bases
    for i, name in enumerate(TWO_QUBIT):
        kind = "product-basis" if i % 2 else "haar-orthogonal"
        e = L.random_ensemble(2, 2, 2 + i % 3, seed=7000 + i, kind=kind)
        write_json(root / f"{name}.json", ensemble_to_dict(e))
    (root / "garbled.json").write_text("{not json")
    deep = "[" * 2000 + "]" * 2000
    (root / "nested.json").write_text(
        '{"dims": [2, 2], "states": [{"name": "x", "amplitudes": ' + deep + "}]}")
    node = '{"party": "A", "outcomes": [{"projector_columns": [[[1, 0]]], "child": '
    (root / "nested.protocol.json").write_text(node * 3000 + '{"fail": true}'
                                               + "}]}" * 3000)


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
    yield ["example", "nosuch", "--output", str(root / "ex" / "x.json")]
    yield ["search", str(root / "bell2.json"), "--output", str(root / "no-dir" / "p.json")]
    yield ["example", "bell2", "--output", str(root / "no-dir" / "x.json")]


def digests(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def fingerprint() -> None:
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp).resolve()
        (root / "ex").mkdir()
        write_inputs(root)
        mask = re.compile(r'(timing_ms"?: )[-+0-9.e]+')
        for args in calls(root):
            if "--format" not in args:
                args = args + ["--format", "json"]
            before = digests(root)
            result = runner.invoke(main, args)
            print("$", " ".join(args).replace(str(root), "<tmp>"))
            print("exit", result.exit_code)
            if result.exception is not None and not isinstance(result.exception, SystemExit):
                print("exception", type(result.exception).__name__)
            print(mask.sub(r"\1<t>", result.output).replace(str(root), "<tmp>"), end="")
            for name, digest in digests(root).items():
                if before.get(name) != digest:
                    print("wrote", name, digest)


if __name__ == "__main__":
    fingerprint()
