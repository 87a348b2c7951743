"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test registers a PASS line printed in the terminal summary; a test that
fails its assertions leaves its criterion marked FAIL.
"""

import json
import statistics
import time
from itertools import combinations

import numpy as np
import pytest
from conftest import ACCEPTANCE_RESULTS, run_cli
from treegen import random_tree

import loccdist as L
from loccdist.cli import ensemble_to_dict, protocol_to_dict, write_json
from loccdist.search import YES
from test_criteria import bell2_certificate, six4x4_certificate


def report_of(result):
    return json.loads(result.output)


def criterion(num, desc):
    ACCEPTANCE_RESULTS[num] = ("FAIL", desc)

    def passed():
        ACCEPTANCE_RESULTS[num] = ("PASS", desc)

    return passed


def write_ensemble(tmp_path, name, ensemble):
    path = tmp_path / f"{name}.json"
    write_json(path, ensemble_to_dict(ensemble))
    return path


def test_criterion_1_bell_triple_impossibility(tmp_path):
    done = criterion(1, "bell-triple impossibility via the necessary condition")
    bells = L.bell_states()
    paths = []
    for combo in combinations(range(4), 3):
        e = L.make_ensemble([bells[i] for i in combo])
        paths.append(write_ensemble(tmp_path, "bell_" + "".join(map(str, combo)), e))
    run_cli(["check", paths[0], "--mode", "necessary", "--format", "json"])  # warmup
    # the bound is on the median call, so one call slowed by machine load
    # does not fail the criterion
    elapsed = []
    for path in paths * 5:
        start = time.perf_counter()
        result = run_cli(["check", path, "--mode", "necessary", "--format", "json"])
        elapsed.append(time.perf_counter() - start)
        assert result.exit_code == 1
        rep = report_of(result)
        assert rep["diagnostics"]["schmidt_sum"] == 6
        assert rep["diagnostics"]["capacity"] == 4
    median = statistics.median(elapsed)
    assert median < 0.010, f"necessary check took {median * 1e3:.2f} ms (median)"
    done()


def test_criterion_2_bell_pair_protocol(tmp_path):
    done = criterion(2, "two Bell states: searched protocol verifies exactly")
    path = write_ensemble(tmp_path, "bell2", L.canned_example("bell2"))
    out = tmp_path / "bell2.protocol.json"
    start = time.perf_counter()
    result = run_cli(["search", path, "--output", out, "--format", "json"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    assert elapsed < 1.0, f"search took {elapsed:.3f} s"
    verify = run_cli(["verify", path, out, "--format", "json"])
    assert verify.exit_code == 0
    diag = report_of(verify)["diagnostics"]
    assert diag["completeness_deviation"] <= 1e-9
    for total in diag["state_totals"].values():
        assert abs(total - 1.0) <= 1e-9
    done()


def test_criterion_3_six_state_4x4_example(tmp_path):
    done = criterion(3, "six-state 4x4 canned protocol: block first round, 1/3-2/3 split")
    epath = write_ensemble(tmp_path, "six4x4", L.canned_example("six4x4"))
    ppath = tmp_path / "six4x4.protocol.json"
    tree = L.canned_protocol("six4x4")
    write_json(ppath, protocol_to_dict(tree))

    result = run_cli(["verify", epath, ppath, "--format", "json"])
    assert result.exit_code == 0

    root = tree.measurement
    assert root.party == L.ALICE and root.outcomes == 2
    mats = root.projector_matrices()
    assert np.abs(mats[0] - np.diag([1, 1, 0, 0])).max() <= 1e-12
    assert np.abs(mats[1] - np.diag([0, 0, 1, 1])).max() <= 1e-12

    leaves = report_of(result)["diagnostics"]["leaves"]
    psi3_probs = sorted(row["probabilities"]["psi3"] for row in leaves
                        if row["identify"] == "psi3")
    assert abs(psi3_probs[0] - 1 / 3) <= 1e-9
    assert abs(psi3_probs[1] - 2 / 3) <= 1e-9
    # the two identifying leaves sit under different first-round Alice outcomes
    subtrees = {row["path"].split("/")[1] for row in leaves if row["identify"] == "psi3"}
    assert subtrees == {"A:0", "A:1"}
    done()


def test_criterion_4_two_qubit_classification_suite():
    done = criterion(4, "1000 random 2x2 ensembles: classification suite")
    start = time.perf_counter()
    for i in range(1000):
        kind = "product-basis" if i % 2 else "haar-orthogonal"
        m = 2 + (i % 3)
        e = L.random_ensemble(2, 2, m, seed=40_000 + i, kind=kind)
        cls = L.classify_2x2(e)

        # (a) never contradicts the necessary condition
        if cls.schmidt_report.violates:
            assert cls.verdict != YES

        # rule recomputed independently from Schmidt ranks
        ranks = [L.schmidt_number(s) for s in e.states]
        entangled = sum(1 for r in ranks if r > 1)
        if m <= 2:
            rule_says = True
        elif m == 3:
            rule_says = entangled <= 1
        else:
            rule_says = entangled == 0
        assert (cls.verdict == YES) == rule_says

        # (b) every distinguishable verdict carries a verifying tree
        if cls.verdict == YES:
            assert L.verify_protocol(cls.protocol, e).ok

        # (c) m=4 distinguishable exactly when all Schmidt numbers are 1
        if m == 4:
            assert (cls.verdict == YES) == all(r == 1 for r in ranks)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"classification suite took {elapsed:.1f} s"
    done()


def test_criterion_5_certificates():
    done = criterion(5, "certificates accepted; mutations rejected with right kinds")
    bell2 = L.canned_example("bell2")
    six = L.canned_example("six4x4")

    assert L.certificate_check(six, six4x4_certificate()).verification.ok
    assert L.certificate_check(bell2, bell2_certificate()).verification.ok

    for ensemble, cert in ((six, six4x4_certificate()), (bell2, bell2_certificate())):
        # one vector perturbed by 1e-3 -> joint orthogonality broken
        vectors = list(cert.product_vectors)
        a, b = vectors[0]
        bumped = np.array(a, dtype=complex)
        bumped[(np.argmax(np.abs(bumped)) + 1) % len(bumped)] += 1e-3
        vectors[0] = (bumped, b)
        with pytest.raises(L.VectorsNotOrthogonal):
            L.certificate_check(ensemble, L.Certificate(tuple(vectors),
                                                        cert.assignment,
                                                        cert.coefficients))
        # one vector shared between two states -> assignment no longer disjoint
        assignment = {k: tuple(v) for k, v in cert.assignment.items()}
        coefficients = {k: tuple(v) for k, v in cert.coefficients.items()}
        first, second = ensemble.labels[0], ensemble.labels[1]
        assignment[second] = assignment[second] + (assignment[first][0],)
        coefficients[second] = coefficients[second] + (0.0,)
        with pytest.raises(L.BadAssignment):
            L.certificate_check(ensemble, L.Certificate(cert.product_vectors,
                                                        assignment, coefficients))
    done()


def test_criterion_6_property_suite():
    done = criterion(6, "states/trees property suite at scale")
    start = time.perf_counter()

    rng = np.random.default_rng(2026)
    dims_cycle = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]
    for k in range(500):
        da, db = dims_cycle[k % len(dims_cycle)]
        s = L.random_state(da, db, rng)
        dec = L.schmidt_decompose(s)
        assert abs(sum(dec.weights) - 1.0) <= 1e-8
        assert np.linalg.norm(dec.reconstruct() - s.amplitudes) <= 1e-8

    base = L.random_state(3, 3, rng, name="w")
    base_rank = L.schmidt_number(base)
    for _ in range(100):
        u = L.haar_unitary(3, rng)
        v = L.haar_unitary(3, rng)
        assert L.schmidt_number(L.apply_local_unitary(base, u, v)) == base_rank

    for k in range(200):
        da, db = dims_cycle[k % len(dims_cycle)]
        e = L.random_ensemble(da, db, min(4, da * db), seed=60_000 + k,
                              kind="haar-orthogonal")
        tree = random_tree(rng, (da, db), e.labels, depth=3)
        assert L.completeness_check(L.enumerate_branches(tree, (da, db))) <= 1e-9
        records = L.run_protocol(tree, e)
        totals = sum(r.probabilities for r in records)
        assert np.abs(totals - 1.0).max() <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"property suite took {elapsed:.1f} s"
    done()


def test_criterion_7_negative_search_sanity(tmp_path):
    done = criterion(7, "search: domino9 stays unknown, bell3 proved impossible")
    dpath = write_ensemble(tmp_path, "domino9", L.canned_example("domino9"))
    result = run_cli(["search", dpath, "--format", "json"])
    assert result.exit_code == 2
    rep = report_of(result)
    assert rep["verdict"] == "unknown"
    assert "protocol_path" not in rep["diagnostics"]

    bpath = write_ensemble(tmp_path, "bell3", L.canned_example("bell3"))
    assert run_cli(["search", bpath, "--format", "json"]).exit_code == 1
    done()
