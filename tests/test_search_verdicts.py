"""Search answers pinned on the seeded instances of ``scripts/search_fingerprint.py``.

``tests/data/search_verdicts.txt`` holds one ``name verdict nodes_explored``
line per instance.  The protocol hashes the script also prints are left out,
because the exact floating-point bits of a protocol depend on the BLAS build.
A change that moves a verdict or a node count on purpose regenerates the file:

    PYTHONPATH=src python3 scripts/search_fingerprint.py | cut -d' ' -f1-3 \\
        > tests/data/search_verdicts.txt

``tests/data/search_shapes.txt`` holds one ``name shape`` line per instance:
the shape of its protocol (the script's ``protocol_shape``), ``-`` when
there is none.  Unlike a hash, the shape does not depend on the BLAS build,
and it changes when the search returns another tree with the same verdict
and node count.
A change that moves a shape on purpose regenerates the file:

    PYTHONPATH=src python3 tests/test_search_verdicts.py > tests/data/search_shapes.txt
"""

import dataclasses
import importlib.util
import re
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import loccdist as L
from loccdist import search as search_module
from loccdist import search_protocol

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"


@cache
def _fingerprint_module():
    spec = importlib.util.spec_from_file_location(
        "search_fingerprint", ROOT / "scripts" / "search_fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@cache
def _instances():
    return tuple(_fingerprint_module().instances())


@cache
def _outcomes():
    return tuple((name, search_protocol(e)) for name, e in _instances())


def _shape_lines():
    shape = _fingerprint_module().protocol_shape
    return [f"{name} {'-' if out.protocol is None else shape(out.protocol)}"
            for name, out in _outcomes()]


def _assert_lines_match(got, expected):
    assert len(got) == len(expected)
    changed = [(g, x) for g, x in zip(got, expected) if g != x]
    assert not changed, f"{len(changed)} lines differ, first: {changed[:3]}"


def test_search_verdicts_and_node_counts_match_the_record():
    expected = (DATA / "search_verdicts.txt").read_text().splitlines()
    _assert_lines_match([f"{name} {out.verdict} {out.nodes_explored}"
                         for name, out in _outcomes()], expected)


def test_protocol_shapes_match_the_record():
    _assert_lines_match(_shape_lines(), (DATA / "search_shapes.txt").read_text().splitlines())


#: fingerprint families whose every verdict holds under local unitaries and
#: relabelling today; the Pauli sets, generalized Bell triples, ``realpair``,
#: ``realprod`` and ``six4x4`` still lose some ``yes`` (ROADMAP item 9)
_INVARIANT = re.compile(r"bell[234]$|domino9|haar-orthogonal-|orthpair-|product-basis-|sweep2x2-")


def test_verdicts_hold_under_local_unitaries_and_relabelling():
    """One seeded copy of each instance of those families, under a Haar
    ``U_A (x) U_B`` and a random order of its states, keeps its verdict."""
    flips, copies = [], 0
    for index, ((name, e), (_, out)) in enumerate(zip(_instances(), _outcomes())):
        if not _INVARIANT.match(name):
            continue
        rng = np.random.default_rng(index)
        ua, ub = L.haar_unitary(e.dim_a, rng), L.haar_unitary(e.dim_b, rng)
        copy = L.make_ensemble([L.apply_local_unitary(e.states[k], ua, ub)
                                for k in rng.permutation(e.m)])
        verdict = search_protocol(copy).verdict
        copies += 1
        if verdict != out.verdict:
            flips.append(f"{name}: {out.verdict} -> {verdict}")
    assert copies == 410
    assert not flips, flips


def test_no_config_means_the_one_shared_default():
    digest = _fingerprint_module().protocol_digest

    def bases(measurements):
        return [(m.party, m.projector_stack.tobytes()) for m in measurements]

    for e in (L.canned_example("bell2"), L.canned_example("six4x4"),
              L.random_ensemble(3, 3, 9, seed=3, kind="product-basis")):
        given, default = search_protocol(e, L.SearchConfig()), search_protocol(e)
        assert (default.verdict, default.nodes_explored, digest(default.protocol)) == (
            given.verdict, given.nodes_explored, digest(given.protocol))
        for party in (L.ALICE, L.BOB):
            assert bases(L.candidate_bases(e, party)) == bases(
                L.candidate_bases(e, party, L.SearchConfig()))
    with pytest.raises(dataclasses.FrozenInstanceError):
        search_module._DEFAULT_CONFIG.beam_limit = 1


if __name__ == "__main__":
    print("\n".join(_shape_lines()))
