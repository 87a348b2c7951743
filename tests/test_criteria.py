import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loccdist as L
from loccdist import (
    BadAssignment,
    Certificate,
    NotOrthogonal,
    ProductSetNotDistinguishable,
    ReconstructionFailure,
    VectorsNotOrthogonal,
    WrongDimensions,
    apply_local_unitary,
    certificate_check,
    classify_2x2,
    make_ensemble,
    make_state,
    product_set_distinguishable,
    product_state,
    schmidt_decompose,
    schmidt_sum_check,
    verify_protocol,
)
from loccdist.ensemble import haar_unitary
from loccdist.search import YES

S2 = 1.0 / np.sqrt(2.0)
S3 = 1.0 / np.sqrt(3.0)
PLUS = np.array([S2, S2])
MINUS = np.array([S2, -S2])
E4 = np.eye(4)


def bell2_certificate():
    return Certificate(
        product_vectors=((PLUS, PLUS), (MINUS, MINUS), (PLUS, MINUS), (MINUS, PLUS)),
        assignment={"A1": (0, 1), "A2": (2, 3)},
        coefficients={"A1": (S2, S2), "A2": (S2, S2)},
    )


def six4x4_certificate():
    vectors = (
        (E4[0], E4[0]),
        (E4[1], (E4[0] + E4[1]) * S2),
        (E4[0], E4[1]),
        (E4[1], (E4[0] - E4[1]) * S2),
        (E4[2], E4[2]),
        ((E4[2] + E4[3]) * S2, E4[3]),
        (E4[3], E4[2]),
        ((E4[2] - E4[3]) * S2, E4[3]),
    )
    return Certificate(
        product_vectors=vectors,
        assignment={"psi1": (0,), "psi2": (1,), "psi3": (2, 3),
                    "psi4": (4,), "psi5": (5,), "psi6": (6, 7)},
        coefficients={"psi1": (1,), "psi2": (1,), "psi3": (S3, np.sqrt(2 / 3)),
                      "psi4": (1,), "psi5": (1,), "psi6": (S3, np.sqrt(2 / 3))},
    )


# ---------------------------------------------------------------------------
# Schmidt-sum necessary condition


def test_schmidt_sum_bell3_violates(bell3):
    rep = schmidt_sum_check(bell3)
    assert rep.schmidt_numbers == (2, 2, 2)
    assert rep.total == 6 and rep.capacity == 4
    assert rep.violates


def test_schmidt_sum_bell2_inconclusive(bell2):
    rep = schmidt_sum_check(bell2)
    assert rep.total == 4 and rep.capacity == 4
    assert not rep.violates


def test_schmidt_sum_four_rank3_states_in_3x3():
    # four shift/phase unitaries give orthogonal maximally entangled states
    omega = np.exp(2j * np.pi / 3)
    shift = np.roll(np.eye(3), 1, axis=0)
    phase = np.diag([1, omega, omega ** 2])
    mats = [np.eye(3), shift, phase, phase @ shift]
    states = [make_state(3, 3, m, name=f"g{k}") for k, m in enumerate(mats)]
    rep = schmidt_sum_check(make_ensemble(states))
    assert rep.schmidt_numbers == (3, 3, 3, 3)
    assert rep.total == 12 and rep.capacity == 9
    assert rep.violates


def test_schmidt_sum_invariant_under_local_unitaries_and_reordering(bell3):
    rng = np.random.default_rng(23)
    u, v = haar_unitary(2, rng), haar_unitary(2, rng)
    rotated = make_ensemble([apply_local_unitary(s, u, v) for s in bell3.states])
    assert schmidt_sum_check(rotated).violates == schmidt_sum_check(bell3).violates
    reordered = make_ensemble(list(bell3.states[::-1]))
    assert schmidt_sum_check(reordered).total == schmidt_sum_check(bell3).total


def test_schmidt_sum_monotone_under_extension():
    bells = L.bell_states()
    previous_violates = False
    for m in range(1, 5):
        rep = schmidt_sum_check(make_ensemble(bells[:m]))
        if previous_violates:
            assert rep.violates
        previous_violates = rep.violates


# ---------------------------------------------------------------------------
# certificates


def test_certificate_bell2_accepted(bell2):
    report = certificate_check(bell2, bell2_certificate())
    assert report.vector_count == 4
    assert report.max_pairwise_overlap <= 1e-12
    assert max(report.reconstruction_errors.values()) <= 1e-12
    assert verify_protocol(report.ensemble_protocol, bell2).ok


def test_certificate_six4x4_accepted(six4x4):
    report = certificate_check(six4x4, six4x4_certificate())
    assert report.vector_count == 8
    assert report.verification.ok
    assert verify_protocol(report.ensemble_protocol, six4x4).ok


def test_certificate_perturbed_vector_rejected(six4x4):
    cert = six4x4_certificate()
    vectors = list(cert.product_vectors)
    vectors[0] = (E4[0] + 1e-3 * E4[1], E4[0])
    mutated = Certificate(tuple(vectors), cert.assignment, cert.coefficients)
    with pytest.raises(VectorsNotOrthogonal):
        certificate_check(six4x4, mutated)


def test_certificate_shared_vector_rejected(six4x4):
    cert = six4x4_certificate()
    assignment = dict(cert.assignment)
    coefficients = dict(cert.coefficients)
    assignment["psi1"] = (0, 2)  # vector 2 belongs to psi3
    coefficients["psi1"] = (1, 0)
    with pytest.raises(BadAssignment):
        certificate_check(six4x4, Certificate(cert.product_vectors, assignment,
                                              coefficients))


def test_certificate_missing_state_rejected(bell2):
    cert = bell2_certificate()
    with pytest.raises(BadAssignment):
        certificate_check(bell2, Certificate(cert.product_vectors,
                                             {"A1": (0, 1)}, {"A1": (S2, S2)}))


def test_certificate_bad_coefficients_rejected(bell2):
    cert = bell2_certificate()
    coefficients = dict(cert.coefficients)
    coefficients["A1"] = (S2 + 1e-3, S2)
    with pytest.raises(ReconstructionFailure):
        certificate_check(bell2, Certificate(cert.product_vectors, cert.assignment,
                                             coefficients))


def test_certificate_undistinguishable_product_set(domino9):
    # the nine domino tiles are themselves an orthogonal product set the
    # search cannot split, so a certificate built on them must be rejected
    vectors = []
    for s in domino9.states:
        dec = schmidt_decompose(s)
        vectors.append((dec.alice_vectors[0], dec.bob_vectors[0]))
    cert = Certificate(tuple(vectors),
                       {lbl: (k,) for k, lbl in enumerate(domino9.labels)},
                       {lbl: (1,) for lbl in domino9.labels})
    with pytest.raises(ProductSetNotDistinguishable):
        certificate_check(domino9, cert)


# ---------------------------------------------------------------------------
# product_set_distinguishable


def test_product_set_full_2x2_basis_yes():
    e2 = np.eye(2)
    vectors = [(e2[a], e2[b]) for a in range(2) for b in range(2)]
    res = product_set_distinguishable(vectors, (2, 2))
    assert res.verdict == YES
    assert res.protocol.measurement.party == L.ALICE


def test_product_set_six4x4_certificate_vectors_yes(six4x4):
    res = product_set_distinguishable(six4x4_certificate().product_vectors, (4, 4))
    assert res.verdict == YES


def test_product_set_domino9_no(domino9):
    vectors = []
    for s in domino9.states:
        dec = schmidt_decompose(s)
        vectors.append((dec.alice_vectors[0], dec.bob_vectors[0]))
    res = product_set_distinguishable(vectors, (3, 3))
    assert res.verdict != YES
    assert res.verdict == "unknown"


def test_product_set_rejects_nonorthogonal_vectors():
    with pytest.raises(NotOrthogonal):
        product_set_distinguishable([(np.array([1, 0]), np.array([1, 0])),
                                     (np.array([1, 0]), np.array([1, 1e-3]))], (2, 2))


# ---------------------------------------------------------------------------
# classify_2x2


def test_classify_rejects_wrong_dimensions(six4x4):
    with pytest.raises(WrongDimensions):
        classify_2x2(six4x4)


def test_classify_bell_ensembles(bell4):
    assert classify_2x2(bell4).verdict != YES
    for drop in range(4):
        states = [s for k, s in enumerate(bell4.states) if k != drop]
        cls = classify_2x2(make_ensemble(states))
        assert cls.verdict != YES
        assert cls.schmidt_report.violates


def test_classify_one_entangled_two_products():
    e = make_ensemble([
        L.bell_states()[0],
        product_state(2, 2, [1, 0], [0, 1], name="p01"),
        product_state(2, 2, [0, 1], [1, 0], name="p10"),
    ])
    cls = classify_2x2(e)
    assert cls.verdict == YES
    report = verify_protocol(cls.protocol, e)
    assert report.ok
    # the constructive protocol measures Alice in {|0>, |1>}, then Bob in Z
    root = cls.protocol.measurement
    assert root.party == L.ALICE
    mats = root.projector_matrices()
    assert np.allclose(sorted(np.abs(np.diag(m))[0] for m in mats), [0, 1], atol=1e-9)


def test_classify_m1_and_m2():
    single = make_ensemble([L.bell_states()[0]])
    cls1 = classify_2x2(single)
    assert cls1.verdict == YES and verify_protocol(cls1.protocol, single).ok
    pair = L.canned_example("bell2")
    cls2 = classify_2x2(pair)
    assert cls2.verdict == YES and verify_protocol(cls2.protocol, pair).ok


def test_classify_keeps_rule_verdict_when_search_runs_out():
    # both cross operators of |a0 b0>, |a1 b1> vanish, so Alice may measure in
    # any basis; Bob then separates the survivors by their Schmidt vectors
    rng = np.random.default_rng(3)
    ua, ub = haar_unitary(2, rng), haar_unitary(2, rng)
    pair = make_ensemble([product_state(2, 2, ua[:, k], ub[:, k], name=f"p{k}")
                          for k in range(2)])
    cls = classify_2x2(pair)
    assert cls.verdict == YES and cls.reason is None
    assert cls.protocol is not None and verify_protocol(cls.protocol, pair).ok


def _rule_2x2(states):
    # the Schmidt-rank rule, recomputed from singular values
    entangled = sum(int(np.linalg.svd(s.amplitudes, compute_uv=False)[1] > 1e-9)
                    for s in states)
    return len(states) <= 2 or (len(states) == 3 and entangled <= 1) or entangled == 0


MIXED_2X2_SHAPES = {
    "one entangled, two products": [
        make_state(2, 2, [[S2, 0], [0, S2]], name="phi+"),
        product_state(2, 2, [1, 0], [0, 1], name="p01"),
        product_state(2, 2, [0, 1], [1, 0], name="p10"),
    ],
    "two entangled, one product": [
        make_state(2, 2, [[S2, 0], [0, S2]], name="phi+"),
        make_state(2, 2, [[S2, 0], [0, -S2]], name="phi-"),
        product_state(2, 2, [1, 0], [0, 1], name="p01"),
    ],
    "product pair orthogonal on both sides": [
        product_state(2, 2, [1, 0], [1, 0], name="p00"),
        product_state(2, 2, [0, 1], [0, 1], name="p11"),
    ],
    "product pair sharing a factor": [
        product_state(2, 2, [1, 0], [1, 0], name="p00"),
        product_state(2, 2, [1, 0], [0, 1], name="p01"),
    ],
}


@pytest.mark.parametrize("shape", sorted(MIXED_2X2_SHAPES))
def test_classify_mixed_shapes_under_rotation_and_relabelling(shape):
    base = MIXED_2X2_SHAPES[shape]
    expected = _rule_2x2(base)
    rng = np.random.default_rng(11)
    for _ in range(5):
        ua, ub = haar_unitary(2, rng), haar_unitary(2, rng)
        rotated = [apply_local_unitary(s, ua, ub) for s in base]
        for states in (rotated, [rotated[k] for k in rng.permutation(len(rotated))]):
            e = make_ensemble(states)
            cls = classify_2x2(e)
            assert _rule_2x2(states) == expected
            assert (cls.verdict == YES) == expected, shape
            if cls.verdict == YES:
                assert cls.protocol is not None and verify_protocol(cls.protocol, e).ok
            else:
                assert "entangled" in cls.reason


def test_classify_pair_with_scalar_cross_operator():
    # Alice's cross operator is 1e-11 * I: it constrains no basis, and two
    # orthogonal states are always distinguishable
    e = make_ensemble([make_state(2, 2, [[1, 0], [0, 1e-11]], name="a"),
                       make_state(2, 2, [[1e-11, 0], [0, 1]], name="b")])
    cls = classify_2x2(e)
    assert cls.verdict == YES
    assert cls.protocol is not None and verify_protocol(cls.protocol, e).ok


@pytest.mark.parametrize("t", [1e-12, 1e-11, 1e-10, 5e-10])
def test_classify_ignores_cross_operators_below_tolerance(t):
    # the first two states' cross operators are t-sized: below the tolerance
    # they move no diagonal entry past it, so they must not forbid a basis
    c, s = np.cos(t), np.sin(t)
    mats = [[[c, 0], [0, s]], [[s, 0], [0, -c]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]]
    rng = np.random.default_rng(5)
    for m in (3, 4):
        base = [make_state(2, 2, x, name=f"s{k}") for k, x in enumerate(mats[:m])]
        for _ in range(3):
            e = make_ensemble(base)
            cls = classify_2x2(e)
            assert cls.verdict == YES, (t, m)
            assert cls.protocol is not None and verify_protocol(cls.protocol, e).ok
            ua, ub = haar_unitary(2, rng), haar_unitary(2, rng)
            base = [apply_local_unitary(x, ua, ub) for x in base]


def test_classify_keeps_verdict_when_survivors_overlap(monkeypatch):
    # |00> and |10> are orthogonal only on Alice's side: a Hadamard-basis
    # outcome leaves two copies of one state, which is no ensemble
    e = make_ensemble([product_state(2, 2, [1, 0], [1, 0], name="a"),
                       product_state(2, 2, [0, 1], [1, 0], name="b")])
    hadamard = np.column_stack([PLUS, MINUS]).astype(complex)
    monkeypatch.setattr("loccdist.criteria._qubit_plane_bases",
                        lambda sides, tol: [hadamard])
    cls = classify_2x2(e)
    assert cls.verdict == YES
    assert cls.protocol is None


def test_two_qubit_sweep_script_runs():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "two_qubit_sweep.py"), "--count", "30"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("30 ensembles in ")


def test_classify_four_product_states():
    e = L.random_ensemble(2, 2, 4, seed=77, kind="product-basis")
    cls = classify_2x2(e)
    assert cls.verdict == YES
    assert verify_protocol(cls.protocol, e).ok


def test_classify_four_with_entangled_member():
    states = [
        product_state(2, 2, [1, 0], [1, 0], name="p00"),
        product_state(2, 2, [1, 0], [0, 1], name="p01"),
        make_state(2, 2, [[0, 0], [1, 1]], name="plus"),
        make_state(2, 2, [[0, 0], [1, -1]], name="minus"),
    ]
    # replace the two products on Alice |1> with Bell-like entangled pair
    entangled = [
        make_state(2, 2, [[1, 0], [0, 1]], name="e1"),
        make_state(2, 2, [[1, 0], [0, -1]], name="e2"),
        product_state(2, 2, [1, 0], [0, 1], name="p01"),
        product_state(2, 2, [0, 1], [1, 0], name="p10"),
    ]
    ok = make_ensemble(states)
    cls_ok = classify_2x2(ok)
    assert cls_ok.verdict == YES

    bad = make_ensemble(entangled)
    cls_bad = classify_2x2(bad)
    assert cls_bad.verdict != YES
    assert "entangled" in cls_bad.reason


def test_classify_three_products_sharing_alice_ray():
    # the orthogonal pair lives on Bob's side, so Bob must measure first
    e = make_ensemble([
        product_state(2, 2, [1, 0], [1, 0], name="a"),
        product_state(2, 2, [1, 0], [0, 1], name="b"),
        product_state(2, 2, [0, 1], [1, 1], name="c"),
    ])
    cls = classify_2x2(e)
    assert cls.verdict == YES
    assert verify_protocol(cls.protocol, e).ok


def test_verified_protocols_imply_inconclusive_schmidt_sum():
    # cross-module consistency: wherever a protocol verifies, the necessary
    # condition cannot prove impossibility
    for ens_name, proto_name in (("six4x4", "six4x4"), ("bell2", "bell2-x")):
        e = L.canned_example(ens_name)
        assert verify_protocol(L.canned_protocol(proto_name), e).ok
        assert not schmidt_sum_check(e).violates
    for seed in range(200):
        kind = "product-basis" if seed % 2 else "haar-orthogonal"
        e = L.random_ensemble(2, 2, 2 + seed % 3, seed=5000 + seed, kind=kind)
        out = L.search_protocol(e)
        if out.verdict == "yes":
            assert verify_protocol(out.protocol, e).ok
            assert not schmidt_sum_check(e).violates


def test_classify_never_contradicts_schmidt_sum():
    for seed in range(100):
        kind = "product-basis" if seed % 2 else "haar-orthogonal"
        e = L.random_ensemble(2, 2, 2 + seed % 3, seed=3000 + seed, kind=kind)
        cls = classify_2x2(e)
        if cls.schmidt_report.violates:
            assert cls.verdict != YES
        if cls.verdict == YES:
            assert verify_protocol(cls.protocol, e).ok
