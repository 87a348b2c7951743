"""Search answers pinned on the seeded instances of ``scripts/search_fingerprint.py``.

``tests/data/search_verdicts.txt`` holds one ``name verdict nodes_explored``
line per instance.  The protocol hashes the script also prints are left out,
because the exact floating-point bits of a protocol depend on the BLAS build.
A change that moves a verdict or a node count on purpose regenerates the file:

    PYTHONPATH=src python3 scripts/search_fingerprint.py | cut -d' ' -f1-3 \\
        > tests/data/search_verdicts.txt
"""

import importlib.util
from pathlib import Path

from loccdist import search_protocol

ROOT = Path(__file__).resolve().parents[1]


def _fingerprint_module():
    spec = importlib.util.spec_from_file_location(
        "search_fingerprint", ROOT / "scripts" / "search_fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_verdicts_and_node_counts_match_the_record():
    expected = (Path(__file__).parent / "data" / "search_verdicts.txt").read_text().splitlines()
    got = []
    for name, e in _fingerprint_module().instances():
        out = search_protocol(e)
        got.append(f"{name} {out.verdict} {out.nodes_explored}")
    assert len(got) == len(expected)
    changed = [(g, x) for g, x in zip(got, expected) if g != x]
    assert not changed, f"{len(changed)} lines differ, first: {changed[:3]}"
