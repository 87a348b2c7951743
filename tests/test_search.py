import itertools
import json

import numpy as np
import pytest

import loccdist as L
from loccdist import (
    ALICE,
    BOB,
    EmptyOutcome,
    ProjectiveMeasurement,
    SearchConfig,
    candidate_bases,
    classify_2x2,
    cross_operators,
    make_ensemble,
    product_state,
    random_ensemble,
    search_protocol,
    surviving_states,
    valid_measurement,
    verify_protocol,
)
from loccdist import search as search_module
from loccdist.cli import protocol_to_dict
from loccdist.ensemble import haar_unitary
from loccdist.search import PROVED_NO, UNKNOWN, YES

S2 = 1.0 / np.sqrt(2.0)
PLUS = np.array([S2, S2])
MINUS = np.array([S2, -S2])


def col(v):
    return np.asarray(v, dtype=complex).reshape(-1, 1)


def cols(dim, *idx):
    out = np.zeros((dim, len(idx)), dtype=complex)
    for c, i in enumerate(idx):
        out[i, c] = 1.0
    return out


# ---------------------------------------------------------------------------
# cross operators and the orthogonality-preservation filter


def test_cross_operator_bell2_is_half_pauli_z(bell2):
    alice, bob = cross_operators(bell2, ALICE), cross_operators(bell2, BOB)
    assert alice.shape == bob.shape == (1, 2, 2)
    assert np.allclose(alice[0], [[0.5, 0], [0, -0.5]], atol=1e-12)
    assert abs(np.trace(alice[0])) <= 1e-12
    assert abs(np.trace(bob[0])) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3)])
def test_cross_operators_stack_every_pair_in_order(dims):
    dim_a, dim_b = dims
    rng = np.random.default_rng(11)
    for seed, kind in enumerate(("haar-orthogonal", "product-basis")):
        e = random_ensemble(dim_a, dim_b, 4, seed=seed, kind=kind)
        alice, bob = cross_operators(e, ALICE), cross_operators(e, BOB)
        pairs = list(itertools.combinations(range(e.m), 2))
        assert alice.shape == (len(pairs), dim_a, dim_a)
        assert bob.shape == (len(pairs), dim_b, dim_b)
        pa = rng.standard_normal((dim_a, dim_a)) + 1j * rng.standard_normal((dim_a, dim_a))
        pb = rng.standard_normal((dim_b, dim_b)) + 1j * rng.standard_normal((dim_b, dim_b))
        for p, (j, l) in enumerate(pairs):
            cj, cl = e.states[j].amplitudes, e.states[l].amplitudes
            assert np.allclose(alice[p], cl @ cj.conj().T, atol=1e-15)
            assert np.allclose(bob[p], cl.T @ cj.conj(), atol=1e-15)
            assert abs(np.trace(alice[p])) <= 1e-12
            assert abs(np.trace(bob[p])) <= 1e-12
            # defining property on the joint space: <j|(P (x) I)|l> = tr(P A_p)
            vj, vl = cj.reshape(-1), cl.reshape(-1)
            joint_a = np.vdot(vj, np.kron(pa, np.eye(dim_b)) @ vl)
            joint_b = np.vdot(vj, np.kron(np.eye(dim_a), pb) @ vl)
            assert joint_a == pytest.approx(np.trace(pa @ alice[p]), abs=1e-12)
            assert joint_b == pytest.approx(np.trace(pb @ bob[p]), abs=1e-12)


def test_cross_operators_single_state_is_empty_stack():
    e = make_ensemble([L.make_state(2, 3, np.ones((2, 3)), name="only")])
    assert cross_operators(e, ALICE).shape == (0, 2, 2)
    assert cross_operators(e, BOB).shape == (0, 3, 3)
    assert valid_measurement(e, ProjectiveMeasurement(ALICE, (cols(2, 0), cols(2, 1))))
    assert valid_measurement(e, ProjectiveMeasurement(BOB, (np.eye(3),)))


def test_valid_measurement_bell2_z_vs_x(bell2):
    z = ProjectiveMeasurement(ALICE, (cols(2, 0), cols(2, 1)))
    x = ProjectiveMeasurement(ALICE, (col(PLUS), col(MINUS)))
    # 2x2 trace oracle: trace(|0><0| Z/2) = 1/2, <+|Z|+> = <-|Z|-> = 0
    m = np.array([[0.5, 0], [0, -0.5]])
    assert np.trace(cols(2, 0) @ cols(2, 0).T @ m) == pytest.approx(0.5)
    assert PLUS @ m @ PLUS == pytest.approx(0.0)
    assert not valid_measurement(bell2, z)
    assert valid_measurement(bell2, x)


def test_valid_measurement_six4x4_block(six4x4):
    block = ProjectiveMeasurement(ALICE, (cols(4, 0, 1), cols(4, 2, 3)))
    assert valid_measurement(six4x4, block)
    comp = ProjectiveMeasurement(ALICE, tuple(cols(4, i) for i in range(4)))
    assert not valid_measurement(six4x4, comp)


def test_valid_measurement_dim_mismatch(six4x4):
    with pytest.raises(L.DimensionMismatch):
        valid_measurement(six4x4, ProjectiveMeasurement(ALICE, (np.eye(2),)))


# ---------------------------------------------------------------------------
# candidate generation


def _proj_key(p):
    return (np.round(np.asarray(p, dtype=complex), 6) + 0.0).tobytes()


def _contains_basis(measurements, party, vectors):
    target = sorted(_proj_key(np.outer(v, np.conj(v))) for v in vectors)
    for meas in measurements:
        if meas.party != party or meas.outcomes != len(vectors):
            continue
        if sorted(_proj_key(p) for p in meas.projector_matrices()) == target:
            return True
    return False


def test_candidates_bell2_cross_operator_include_x_basis(bell2):
    cands = candidate_bases(bell2, ALICE)
    assert _contains_basis(cands, ALICE, [PLUS, MINUS])


def test_candidates_six4x4_standard_include_block(six4x4):
    cands = candidate_bases(six4x4, ALICE)
    keys = [tuple(p.shape[1] for p in m.projectors) for m in cands]
    assert (2, 2) in keys  # the {span(0,1), span(2,3)} coarsening
    block = next(m for m in cands if tuple(p.shape[1] for p in m.projectors) == (2, 2))
    mats = block.projector_matrices()
    assert np.allclose(sorted(np.trace(p).real for p in mats), [2, 2])
    assert np.allclose(mats[0] + mats[1], np.eye(4), atol=1e-12)


def test_search_solves_product_pair_orthogonal_on_both_sides():
    # |a0 b0>, |a1 b1>: every cross operator vanishes on both sides, so only
    # a basis of Schmidt vectors makes progress; two orthogonal states are
    # always distinguishable (Walgate et al., PRL 85, 4972 (2000))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ua, ub = haar_unitary(2, rng), haar_unitary(2, rng)
        pair = make_ensemble([product_state(2, 2, ua[:, k], ub[:, k], name=f"p{k}")
                              for k in range(2)])
        assert np.abs(cross_operators(pair, ALICE)).max() <= 1e-12
        assert np.abs(cross_operators(pair, BOB)).max() <= 1e-12
        assert _contains_basis(candidate_bases(pair, BOB), BOB, [ub[:, 0], ub[:, 1]])
        out = search_protocol(pair)
        assert out.verdict == YES
        assert verify_protocol(out.protocol, pair).ok


@pytest.mark.parametrize("seed", range(3))
def test_search_solves_sets_with_orthogonal_local_supports(seed):
    # when one party's cross operators all vanish, the other party's local
    # supports are pairwise orthogonal and its Schmidt completion identifies
    # every state; two orthogonal states are always distinguishable
    # (Walgate et al., PRL 85, 4972 (2000))
    for e in (random_ensemble(2, 3, 6, seed=seed, kind="product-basis"),
              random_ensemble(3, 4, 4, seed=seed, kind="product-basis"),
              random_ensemble(2, 4, 2, seed=seed)):
        out = search_protocol(e)
        assert out.verdict == YES
        assert verify_protocol(out.protocol, e).ok


def test_candidates_beam_limit_truncates(bell2):
    cands = candidate_bases(bell2, ALICE, SearchConfig(beam_limit=1))
    assert len(cands) == 1


def _prefix_cases():
    for name in ("bell2", "six4x4", "domino9"):
        yield name, L.canned_example(name)
    yield "product-3x3", random_ensemble(3, 3, 9, seed=0, kind="product-basis")
    yield "haar-pair-4x4", random_ensemble(4, 4, 2, seed=0)


@pytest.mark.parametrize("party", [ALICE, BOB])
def test_candidates_beam_limit_keeps_a_prefix_of_the_default_list(party):
    # the tiers are built lazily; the seen set and the beam count carry
    # across them, so every beam gives a prefix of the full list
    for name, e in _prefix_cases():
        full = candidate_bases(e, party)
        for k in range(1, len(full) + 1):
            cut = candidate_bases(e, party, SearchConfig(beam_limit=k))
            assert len(cut) == k, (name, k)
            for ma, mb in zip(cut, full):
                assert ma.outcomes == mb.outcomes
                assert all(np.array_equal(qa, qb)
                           for qa, qb in zip(ma.projectors, mb.projectors)), (name, k)


def test_candidates_build_a_tier_only_when_asked_past_the_one_before(bell2, monkeypatch):
    calls = []
    real = search_module._qubit_plane_bases
    monkeypatch.setattr(search_module, "_qubit_plane_bases",
                        lambda *args: calls.append(args) or real(*args))
    sides = {p: cross_operators(bell2, p) for p in (ALICE, BOB)}
    gen = search_module._candidates(bell2, ALICE, sides[ALICE], sides[BOB], SearchConfig())
    next(gen)  # the computational basis, from the standard tier
    assert calls == []
    assert len(list(gen)) == 2  # the two zero-diagonal bases
    assert len(calls) == 1


def test_candidates_deterministic_and_duplicate_free(six4x4):
    a = candidate_bases(six4x4, ALICE)
    b = candidate_bases(six4x4, ALICE)
    assert len(a) == len(b)
    for ma, mb in zip(a, b):
        for qa, qb in zip(ma.projectors, mb.projectors):
            assert np.array_equal(qa, qb)
    keys = set()
    for meas in a:
        key = tuple(sorted(np.round(p, 6).tobytes() for p in meas.projector_matrices()))
        assert key not in keys
        keys.add(key)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_depth=0)
    with pytest.raises(ValueError):
        SearchConfig(beam_limit=0)


# ---------------------------------------------------------------------------
# surviving states


def test_surviving_states_six4x4_block(six4x4):
    sub = surviving_states(six4x4, ALICE, cols(4, 0, 1))
    assert sub.labels == ("psi1", "psi2", "psi3")
    sub2 = surviving_states(six4x4, ALICE, cols(4, 2, 3))
    assert sub2.labels == ("psi4", "psi5", "psi6")


def test_surviving_states_bell2_plus(bell2):
    sub = surviving_states(bell2, ALICE, PLUS)
    assert sub.m == 2
    assert np.allclose(sub.state("A1").amplitudes, np.outer(PLUS, PLUS), atol=1e-12)
    assert np.allclose(sub.state("A2").amplitudes, np.outer(PLUS, MINUS), atol=1e-12)


def test_surviving_states_full_projector_is_identity(six4x4):
    sub = surviving_states(six4x4, BOB, np.eye(4))
    assert sub.labels == six4x4.labels
    for before, after in zip(six4x4.states, sub.states):
        assert np.allclose(before.amplitudes, after.amplitudes, atol=1e-12)


def test_surviving_states_empty_outcome(six4x4):
    block01 = surviving_states(six4x4, ALICE, cols(4, 0, 1))
    with pytest.raises(EmptyOutcome):
        surviving_states(block01, ALICE, cols(4, 2, 3))


# ---------------------------------------------------------------------------
# the search itself


def test_search_bell3_proved_no(bell3):
    out = search_protocol(bell3)
    assert out.verdict == PROVED_NO
    assert out.schmidt_report.total == 6
    assert out.schmidt_report.capacity == 4


def test_search_proved_no_gives_its_reason(bell3):
    assert search_protocol(bell3).reason == "Schmidt ranks sum to 6 > capacity 4"


def test_search_bell2_finds_verified_protocol(bell2):
    out = search_protocol(bell2)
    assert out.verdict == YES
    assert verify_protocol(out.protocol, bell2).ok
    assert L.tree_depth(out.protocol) == 2


def test_search_six4x4_depth3_block_first(six4x4):
    out = search_protocol(six4x4)
    assert out.verdict == YES
    assert L.tree_depth(out.protocol) == 3
    root = out.protocol.measurement
    assert root.party == ALICE
    mats = root.projector_matrices()
    assert np.allclose(mats[0], np.diag([1, 1, 0, 0]), atol=1e-12)
    assert np.allclose(mats[1], np.diag([0, 0, 1, 1]), atol=1e-12)


def test_search_domino9_unknown(domino9):
    out = search_protocol(domino9)
    assert out.verdict == UNKNOWN
    assert out.protocol is None
    assert out.nodes_explored >= 1


def test_search_single_state_trivial():
    e = L.make_ensemble([L.make_state(2, 2, [[1, 0], [0, 1]], name="only")])
    out = search_protocol(e)
    assert out.verdict == YES
    assert verify_protocol(out.protocol, e).ok


def test_search_deterministic(six4x4):
    a = search_protocol(six4x4)
    b = search_protocol(six4x4)
    assert a.nodes_explored == b.nodes_explored
    assert json.dumps(protocol_to_dict(a.protocol)) == json.dumps(
        protocol_to_dict(b.protocol))


def test_search_never_contradicts_schmidt_sum():
    for seed in range(60):
        kind = "product-basis" if seed % 2 else "haar-orthogonal"
        e = random_ensemble(2, 2, 2 + seed % 3, seed=seed, kind=kind)
        out = search_protocol(e)
        if out.verdict == YES:
            assert not out.schmidt_report.violates
            assert verify_protocol(out.protocol, e).ok


def test_search_agrees_with_2x2_classification():
    for name in ("bell2", "bell3", "bell4"):
        e = L.canned_example(name)
        out = search_protocol(e)
        cls = classify_2x2(e)
        assert (out.verdict == YES) == (cls.verdict == YES)
    for seed in range(200):
        kind = "product-basis" if seed % 2 else "haar-orthogonal"
        e = random_ensemble(2, 2, 2 + seed % 3, seed=7000 + seed, kind=kind)
        out = search_protocol(e)
        cls = classify_2x2(e)
        assert out.verdict in (YES, PROVED_NO)
        assert (out.verdict == YES) == (cls.verdict == YES)
