import itertools
import json

import numpy as np
import pytest

import loccdist as L
from loccdist import (
    ALICE,
    BOB,
    EmptyOutcome,
    NotUnitary,
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
    # always distinguishable (Walgate et al., PRL 85, 4972 (2000)).  The root
    # closes at once with Bob's Schmidt closure, offered first
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ua, ub = haar_unitary(2, rng), haar_unitary(2, rng)
        pair = make_ensemble([product_state(2, 2, ua[:, k], ub[:, k], name=f"p{k}")
                              for k in range(2)])
        assert np.abs(cross_operators(pair, ALICE)).max() <= 1e-12
        assert np.abs(cross_operators(pair, BOB)).max() <= 1e-12
        out = search_protocol(pair)
        assert (out.verdict, out.nodes_explored) == (YES, 1)
        assert _contains_basis([out.protocol.measurement], BOB, [ub[:, 0], ub[:, 1]])
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


def test_a_beam_of_one_on_a_qubit_tries_its_first_qubit_plane_basis(bell2):
    # Alice's one candidate is a basis on the Bloch equator, in which her
    # cross operator Z / 2 has zero diagonal; Bob tells apart each outcome's
    # survivors
    (meas,) = candidate_bases(bell2, ALICE, SearchConfig(beam_limit=1))
    assert valid_measurement(bell2, meas)
    out = search_protocol(bell2, SearchConfig(beam_limit=1))
    assert out.verdict == YES
    assert out.protocol.measurement.projector_stack.tobytes() == meas.projector_stack.tobytes()
    assert verify_protocol(out.protocol, bell2).ok


def _prefix_cases():
    for name in ("bell2", "six4x4", "domino9"):
        yield name, L.canned_example(name)
    yield "product-3x3", random_ensemble(3, 3, 9, seed=0, kind="product-basis")
    yield "haar-pair-4x4", random_ensemble(4, 4, 2, seed=0)


@pytest.mark.parametrize("party", [ALICE, BOB])
def test_candidates_beam_limit_keeps_a_prefix_of_the_default_list(party):
    # the tiers are built lazily and the beam counts across them, so every
    # beam gives a prefix of the full list
    for name, e in _prefix_cases():
        full = candidate_bases(e, party)
        for k in range(1, len(full) + 1):
            cut = candidate_bases(e, party, SearchConfig(beam_limit=k))
            assert len(cut) == k, (name, k)
            for ma, mb in zip(cut, full):
                assert ma.outcomes == mb.outcomes
                assert all(np.array_equal(qa, qb)
                           for qa, qb in zip(ma.projectors, mb.projectors)), (name, k)


def test_candidates_build_a_tier_only_when_asked_past_the_one_before(monkeypatch):
    calls = []
    real = search_module._zero_diagonal_tier
    monkeypatch.setattr(search_module, "_zero_diagonal_tier",
                        lambda *args: calls.append(args) or real(*args))
    e = _pair_00_10()
    sides = cross_operators(e, ALICE)
    cheap, costly = search_module._candidates(e.amplitudes, ALICE, sides, SearchConfig())
    next(cheap)  # the computational basis, from the standard tier
    assert calls == []
    assert list(cheap) == []  # the standard tier has no second candidate here
    assert calls == []
    assert len(list(costly)) == 2  # the two zero-diagonal bases
    assert len(calls) == 1


def _eager_candidate_bases(e, party, beam_limit, tol=1e-9):
    """``candidate_bases`` as projector stacks, every tier built in full: the
    tiers of the party's dimension joined in order (the qubit plane for a
    qubit, else the standard and zero-diagonal tiers), each in its build
    order, and the list cut at ``beam_limit``."""
    stack = e.amplitudes
    d = e.dim_a if party == ALICE else e.dim_b
    sides = cross_operators(e, party)
    eye = np.eye(d, dtype=complex)

    def outcomes(bases):
        return [list(c) for c in search_module._outcomes(np.array(bases).reshape(-1, d, d))[0]]

    if d == 2:
        cands = outcomes(search_module._qubit_plane_bases(sides, tol))
    else:
        cands = [[eye[:, [k]] for k in range(d)]]
        labels = search_module._support_labels(stack, party, tol)
        roots = np.flatnonzero(labels == np.arange(d))
        if 2 <= len(roots) < d:
            cands.append([eye[:, labels == r] for r in roots])
        cands += outcomes(search_module._zero_diagonal_tier(sides, tol))
    return [np.array([q @ q.conj().T for q in cand]) for cand in cands[:beam_limit]]


def _lazy_tier_cases():
    for dims in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4)):
        for seed in range(3):
            yield random_ensemble(*dims, 2, seed=seed)
            yield random_ensemble(*dims, dims[0] + 1, seed=seed, kind="product-basis")
    yield L.canned_example("six4x4")
    yield _pair_00_10()


def _pair_00_10():
    # |00>, |10> in 3x3: each of Alice's two zero-diagonal bases is her
    # computational basis, permuted
    return make_ensemble([product_state(3, 3, [1, 0, 0], [1, 0, 0], name="a"),
                          product_state(3, 3, [0, 1, 0], [1, 0, 0], name="b")])


@pytest.mark.parametrize("beam", [1, 2, 3, 64])
def test_lazy_tiers_match_an_eager_reference(beam):
    for e in _lazy_tier_cases():
        for party in (ALICE, BOB):
            expected = _eager_candidate_bases(e, party, beam)
            got = candidate_bases(e, party, SearchConfig(beam_limit=beam))
            assert [m.projector_stack.tobytes() for m in got] == [
                p.tobytes() for p in expected], (e, party)
    if beam > 1:  # the repeats are listed, not dropped
        got = candidate_bases(_pair_00_10(), ALICE, SearchConfig(beam_limit=beam))
        assert len(got) == min(beam, 3)
        first = got[0].projector_stack
        for meas in got[1:]:
            # outcome k projects onto the basis index where its diagonal peaks
            order = np.abs(meas.projector_stack.diagonal(axis1=1, axis2=2)).argmax(axis=1)
            assert np.allclose(meas.projector_stack, first[order], atol=1e-12)


def test_candidate_bases_list_every_tier_in_build_order(six4x4):
    # Alice's standard tier (the computational basis and its support blocks)
    # and then all six zero-diagonal bases, each the computational basis
    # permuted: repeats of the first candidate, listed where they are built
    cands = candidate_bases(six4x4, ALICE)
    assert [m.outcomes for m in cands] == [4, 2, 4, 4, 4, 4, 4, 4]
    eye = np.eye(4)
    assert np.array_equal(cands[0].projector_stack, eye[:, np.newaxis, :] * eye)
    tier = search_module._zero_diagonal_tier(cross_operators(six4x4, ALICE), 1e-9)
    assert len(tier) == 6
    for meas, projs in zip(cands[2:], search_module._outcomes(np.array(tier))[1]):
        assert np.array_equal(meas.projector_stack, projs)
        mags = np.abs(projs)
        assert np.allclose(mags, mags.round(), atol=1e-12)
        assert np.allclose(projs.sum(axis=0), eye, atol=1e-12)


def test_a_spent_beam_builds_no_later_tier(six4x4, monkeypatch):
    calls = []
    real = search_module._zero_diagonal_tier
    monkeypatch.setattr(search_module, "_zero_diagonal_tier",
                        lambda *args: calls.append(args) or real(*args))
    assert len(candidate_bases(six4x4, ALICE, SearchConfig(beam_limit=2))) == 2
    assert calls == []
    assert len(candidate_bases(six4x4, ALICE, SearchConfig(beam_limit=3))) == 3
    assert len(calls) == 1
    # the beam counts both classes: a beam spent by the cheap one leaves
    # the costly one empty and unbuilt, else it gives what is left
    sides = cross_operators(six4x4, ALICE)
    for beam, costly_count in ((2, 0), (3, 1)):
        calls.clear()
        cheap, costly = search_module._candidates(six4x4.amplitudes, ALICE, sides,
                                                  SearchConfig(beam_limit=beam))
        assert len(list(cheap)) == 2
        assert calls == []
        assert len(list(costly)) == costly_count
        assert len(calls) == costly_count


def test_six4x4_is_searched_with_no_zero_diagonal_tier(six4x4, monkeypatch):
    # at the root's second child (psi4-psi6), Bob's computational basis, a
    # cheap tier, closes the node before Alice's costly tier is reached
    calls = []
    real = search_module._zero_diagonal_tier
    monkeypatch.setattr(search_module, "_zero_diagonal_tier",
                        lambda *args: calls.append(args) or real(*args))
    out = search_protocol(six4x4)
    assert (out.verdict, out.nodes_explored) == (YES, 7)
    assert calls == []


def test_search_tries_both_parties_cheap_tiers_before_either_costly_tier(monkeypatch):
    # every node asks for Alice's cheap class, then Bob's, then Alice's
    # costly class, then Bob's; each party's classes come from one
    # ``_candidates`` call, made when its first class is reached
    asked = []
    real = search_module._candidates

    def candidates(stack, party, sides, cfg):
        cheap, costly = real(stack, party, sides, cfg)
        key = (stack.tobytes(), party)

        def record(cost, it):
            asked.append((key, cost))
            yield from it
        return record("cheap", cheap), record("costly", costly)

    monkeypatch.setattr(search_module, "_candidates", candidates)
    for e in (L.canned_example("domino9"), random_ensemble(3, 3, 3, seed=1),
              random_ensemble(3, 4, 3, seed=2)):
        asked.clear()
        search_protocol(e)
        assert asked
        nodes = {}
        for key, cost in asked:
            nodes.setdefault(key[0], []).append((key[1], cost))
        for order in nodes.values():
            assert order == [(ALICE, "cheap"), (BOB, "cheap"), (ALICE, "costly"),
                             (BOB, "costly")][:len(order)]
        assert max(map(len, nodes.values())) == 4  # some node reaches every class


def test_a_candidate_that_keeps_one_outcome_is_rejected_before_renormalising(six4x4,
                                                                          monkeypatch):
    # the root's second child holds psi4-psi6, which all sit in Alice's block
    # {2, 3}: her support-block candidate keeps all three states in one
    # outcome, so the reach of its outcomes rejects it, with no survivor
    # renormalised and no overlap taken; Bob's computational basis is next
    log = []
    reach, renormalise, overlaps = (search_module._reach, search_module._renormalise,
                                    search_module.overlaps)

    def logged_reach(stack, party, projs, tol):
        out = reach(stack, party, projs, tol)
        log.append((party, stack.tobytes(), len(projs), out[2].sum(axis=-1).tolist()))
        return out

    monkeypatch.setattr(search_module, "_reach", logged_reach)
    monkeypatch.setattr(search_module, "_renormalise",
                        lambda *args: log.append("renormalise") or renormalise(*args))
    monkeypatch.setattr(search_module, "overlaps",
                        lambda flat: log.append("overlaps") or overlaps(flat))
    out = search_protocol(six4x4)
    assert (out.verdict, out.nodes_explored) == (YES, 7)
    second = six4x4.amplitudes[3:].tobytes()
    at = log.index((ALICE, second, 3, [0, 0, 3]))
    assert log[at + 1][:3] == (BOB, second, 4)
    assert log[at + 2:at + 4] == ["renormalise", "overlaps"]
    # three candidates make progress (the root's, and one per child)
    assert log.count("renormalise") == log.count("overlaps") == 3


def test_search_builds_each_party_s_cross_operators_once_per_node(monkeypatch):
    asked = []
    real = search_module._cross
    monkeypatch.setattr(search_module, "_cross",
                        lambda stack, *parties: asked.extend(
                            (stack.shape, stack.tobytes(), party) for party in parties)
                        or real(stack, *parties))
    for e in (L.canned_example("six4x4"), random_ensemble(3, 3, 9, seed=0, kind="product-basis"),
              random_ensemble(3, 3, 3, seed=1)):
        asked.clear()
        out = search_protocol(e)
        assert len(asked) == len(set(asked))
        for party in (ALICE, BOB):
            assert sum(p == party for _, _, p in asked) <= out.nodes_explored


def test_search_tries_bob_s_schmidt_completion_first_when_alice_s_cross_operators_vanish(
        monkeypatch):
    # Bob's local supports are orthogonal and Alice's are not: Alice's cross
    # operators vanish, so any Alice measurement is admissible but none
    # closes the node, while Bob's Schmidt completion closes it in one round,
    # before any candidate is projected
    rng = np.random.default_rng(3)
    ua, ub = haar_unitary(3, rng), haar_unitary(3, rng)
    kets = (ua[:, 0], (ua[:, 0] + ua[:, 1]) * S2)
    e = make_ensemble([product_state(3, 3, kets[k], ub[:, k], name=f"p{k}") for k in range(2)])
    assert np.abs(cross_operators(e, ALICE)).max() <= 1e-12
    assert np.abs(cross_operators(e, BOB)).max() > 1e-12
    asked = []
    real = search_module._candidates
    monkeypatch.setattr(search_module, "_candidates",
                        lambda stack, party, *args: asked.append(party)
                        or real(stack, party, *args))
    out = search_protocol(e)
    assert (out.verdict, out.nodes_explored) == (YES, 1)
    assert asked == []
    completion = search_module._schmidt_completion(e.amplitudes, BOB, L.DEFAULT_TOL)
    root = out.protocol.measurement
    assert root.party == BOB
    assert all(np.array_equal(q, c) for q, c in
               zip(root.projectors, search_module._outcomes(completion[np.newaxis])[0][0]))


def _orthogonal_product_pair(dim_a, dim_b, seed):
    rng = np.random.default_rng(seed)
    ua, ub = haar_unitary(dim_a, rng), haar_unitary(dim_b, rng)
    return make_ensemble([product_state(dim_a, dim_b, ua[:, k], ub[:, k], name=f"p{k}")
                          for k in range(2)])


@pytest.mark.parametrize("seed", range(3))
def test_a_root_closed_by_its_schmidt_closure_asks_for_no_candidate(seed, monkeypatch):
    # one party's cross operators vanish in each set, so the root is closed
    # in its batch of one, before any candidate is generated; the protocol is
    # that party's Schmidt completion, one outcome per state or none
    asked = []
    real = search_module._candidates
    monkeypatch.setattr(search_module, "_candidates",
                        lambda stack, party, *args: asked.append(party)
                        or real(stack, party, *args))
    basis = random_ensemble(3, 4, 4, seed=seed, kind="product-basis")
    swapped = make_ensemble([L.make_state(4, 3, s.amplitudes.T, name=s.name)
                             for s in basis.states])  # Bob's cross operators vanish
    for e in (_orthogonal_product_pair(3, 4, seed), basis, swapped,
              random_ensemble(2, 3, 3, seed=seed, kind="product-basis")):
        quiet = {p: np.abs(cross_operators(e, p)).max() <= 1e-12 for p in (ALICE, BOB)}
        party = BOB if quiet[ALICE] else ALICE
        assert quiet[ALICE] or quiet[BOB]
        out = search_protocol(e)
        assert (out.verdict, out.nodes_explored) == (YES, 1), e
        assert asked == []
        root = out.protocol.measurement
        completion = search_module._schmidt_completion(e.amplitudes, party, L.DEFAULT_TOL)
        assert root.party == party
        assert [q.tobytes() for q in root.projectors] == [
            q.tobytes() for q in search_module._outcomes(completion[np.newaxis])[0][0]]
        assert verify_protocol(out.protocol, e).ok


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (3, 5), (2, 3)])
def test_beam_of_one_keeps_the_schmidt_completion_of_an_orthogonal_product_pair(dims):
    # the root is closed by its Schmidt closure before any candidate is
    # tried, so a narrow beam cannot crowd it out; two orthogonal states are
    # always distinguishable (Walgate et al. 2000)
    for seed in range(3):
        out = search_protocol(_orthogonal_product_pair(*dims, seed), SearchConfig(beam_limit=1))
        assert (out.verdict, out.nodes_explored) == (YES, 1), seed


def _root_children(e):
    # the first sibling batch a search forms: the children of the root's
    # first admitted candidate that leaves child nodes
    batches = []
    real = search_module._children
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_module, "_children", lambda *args: batches.append(args) or real(*args))
        search_protocol(e)
    states, alive, _ = batches[0]
    return states, alive


def _mixed_product_batch(seed):
    # sibling nodes of mixed sizes and Schmidt ranks in 3x3, their survivors
    # scattered over the slots of a parent of 12 states
    rng = np.random.default_rng(seed)
    ua, ub = haar_unitary(3, rng), haar_unitary(3, rng)

    def ket(i, j):
        return np.outer(ua[:, i], ub[:, j])

    def bell(i, j, k, l):
        return (ket(i, j) + ket(k, l)) * S2

    children = [
        [ket(0, 0), ket(1, 1)],                    # orthogonal on both sides
        [ket(0, 0), ket(0, 1), ket(0, 2)],         # one Alice factor
        [ket(0, 0), ket(1, 0)],                    # one Bob factor
        [ket(0, 0), ket(1, 1), bell(0, 1, 1, 0)],  # ranks 1, 1, 2
        [bell(0, 0, 1, 1), ket(2, 2)],             # ranks 2, 1
        list(random_ensemble(3, 3, 2, seed=seed).amplitudes),
    ]
    states = np.zeros((len(children), 12, 3, 3), dtype=complex)
    alive = np.zeros((len(children), 12), dtype=bool)
    for k, child in enumerate(children):
        slots = np.sort(rng.choice(12, len(child), replace=False))
        states[k, slots], alive[k, slots] = child, True
    return states, alive


def _close_siblings_as_each_child_would(states, alive, cfg=SearchConfig()):
    """Run the batched closure pass on one sibling batch and check every
    child against its own Schmidt closure, built from its stack alone.
    Returns whether each child closed."""
    tol = cfg.tolerance
    sizes = alive.sum(axis=1)
    kids, packed, factors, ranks = search_module._children(states, alive, sizes)
    closures, cross_ops = search_module._schmidt_closures(kids.tolist(), packed, factors,
                                                          sizes[kids].tolist(), tol)
    closed = []
    for k in kids.tolist():
        idx = np.flatnonzero(alive[k])
        stack = states[k, idx]
        assert np.array_equal(ranks[k, idx], L.states.schmidt_ranks(stack))
        cross = search_module._cross(stack, ALICE, BOB)
        party, other = (BOB, ALICE) if np.abs(cross[ALICE]).max() <= tol else (ALICE, BOB)
        completion = search_module._schmidt_completion(stack, party, tol)
        blocks = search_module._outcomes(completion[np.newaxis])[0][0]
        projs = np.array([q @ q.conj().T for q in blocks])
        admissible = search_module._admits(projs, cross[party], tol).all()
        reach = search_module._project(stack, party, projs, tol)[0]
        kept = reach.sum(axis=1)
        # the closure is offered when the other party's cross operators
        # are within tol of zero; it closes without a child node of its own
        closes = bool(np.abs(cross[other]).max() <= tol and admissible
                      and kept.max() <= 1 and np.count_nonzero(kept) >= 2)
        assert (k in closures) == closes, k
        if closes:
            got_party, got_blocks, got_slots = closures[k]
            assert got_party == party
            assert [q.tobytes() for q in got_blocks] == [q.tobytes() for q in blocks]
            assert got_slots == [row.argmax() if row.any() else None for row in reach]
        else:
            for p in (ALICE, BOB):
                assert cross_ops[k][p].shape == cross[p].shape
                assert cross_ops[k][p].tobytes() == cross[p].tobytes()
        closed.append(closes)
    return closed


@pytest.mark.parametrize("seed", range(3))
def test_batched_schmidt_closures_match_each_child_s_first_candidate(seed):
    closed = []
    for states, alive in (_root_children(random_ensemble(2, 2, 2, seed=seed)),
                          _root_children(L.canned_example("six4x4")),
                          _root_children(random_ensemble(2, 2, 4, seed=seed, kind="product-basis")),
                          _mixed_product_batch(seed)):
        closed += _close_siblings_as_each_child_would(states, alive)
    assert True in closed and False in closed


def _reference_schmidt_completion(stack, party, tol, factors=None):
    """The per-vector greedy: one ``vdot`` per chosen vector and candidate,
    and one ``qr`` of ``[chosen | I]`` per amplitude stack of the leading
    axes (stacked when every ``[chosen | I]`` has one width)."""
    u, sig, vh = np.linalg.svd(stack) if factors is None else factors
    kets = u.swapaxes(-1, -2) if party == ALICE else vh
    *lead, m, d, _ = kets.shape
    mats = []
    ranks = L.states.rank_counts(sig).reshape(-1, m).tolist()
    for stack_kets, stack_ranks in zip(kets.reshape(-1, m, d, d), ranks):
        chosen = []
        for vecs, rank in zip(stack_kets, stack_ranks):
            for v in vecs[:rank]:
                if all(abs(np.vdot(w, v)) <= tol for w in chosen):
                    chosen.append(v)
        mats.append(np.column_stack(chosen + [np.eye(d)]))
    if len({a.shape[1] for a in mats}) == 1:
        q = np.linalg.qr(np.array(mats))[0]
    else:
        q = np.array([np.linalg.qr(a)[0] for a in mats])
    return q.reshape(*lead, d, d)


def _assert_completion_as_reference(stack, tol=L.DEFAULT_TOL, factors=None):
    for party in (ALICE, BOB):
        got = search_module._schmidt_completion(stack, party, tol, factors)
        want = _reference_schmidt_completion(stack, party, tol, factors)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), party


def _padded_random_stacks(rng, dim_a, dim_b):
    # stacks of up to 5 slots; each has a state in its first slot, the others
    # hold states of random Schmidt rank or zeros (rank 0), so stacks choose
    # different numbers of vectors
    count, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    stacks = np.zeros((count, m, dim_a, dim_b), dtype=complex)
    for b in range(count):
        for j in range(m):
            rank = int(rng.integers(0 if j else 1, min(dim_a, dim_b) + 1))
            if rank:
                mat = (rng.standard_normal((dim_a, rank)) + 1j * rng.standard_normal((dim_a, rank))
                       ) @ (rng.standard_normal((rank, dim_b)) + 1j * rng.standard_normal((rank, dim_b)))
                stacks[b, j] = mat / np.linalg.norm(mat)
    return stacks


@pytest.mark.parametrize("seed", range(3))
def test_schmidt_completion_matches_the_per_vector_greedy(seed):
    # the sibling batches the search closes, with their svd factors
    for states, alive in (_mixed_product_batch(seed),
                          _root_children(random_ensemble(2, 2, 2, seed=seed)),
                          _root_children(L.canned_example("six4x4"))):
        _, packed, factors, _ = search_module._children(states, alive, alive.sum(axis=1))
        _assert_completion_as_reference(packed, factors=factors)
        _assert_completion_as_reference(packed)
    # zero-padded random stacks from 2x2 to 5x5, also with tolerances that
    # admit more than d "orthogonal" vectors
    rng = np.random.default_rng(seed)
    for dim_a, dim_b in itertools.product(range(2, 6), repeat=2):
        for tol in (L.DEFAULT_TOL, 0.3, 0.9):
            stacks = _padded_random_stacks(rng, dim_a, dim_b)
            _assert_completion_as_reference(stacks, tol)
            _assert_completion_as_reference(stacks[0], tol)


@pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
def test_schmidt_completion_at_the_tolerance(factor):
    # Alice's kets of two product states overlap by just below or just above
    # tol: the second is chosen only below it
    tol = L.DEFAULT_TOL
    rng = np.random.default_rng(7)
    ua, ub = haar_unitary(3, rng), haar_unitary(3, rng)
    overlap = tol * factor
    second = overlap * ua[:, 0] + np.sqrt(1 - overlap ** 2) * ua[:, 1]
    stack = np.array([np.outer(ua[:, 0], ub[:, 0]), np.outer(second, ub[:, 1])])
    _assert_completion_as_reference(stack, tol)
    q = search_module._schmidt_completion(stack, ALICE, tol)
    chosen = abs(np.vdot(q[:, 1], second)) > 1 - 1e-6
    assert chosen == (factor < 1)


def test_schmidt_completion_of_the_two_qubit_rule_matches_the_per_vector_greedy(monkeypatch):
    calls = []
    real = search_module._schmidt_completion
    monkeypatch.setattr(search_module, "_schmidt_completion",
                        lambda *args: calls.append(args) or real(*args))
    for seed in range(10):
        for m, kind in itertools.product((2, 3, 4), ("haar-orthogonal", "product-basis")):
            classify_2x2(random_ensemble(2, 2, m, seed=seed, kind=kind))
    assert calls
    for args in calls:
        got = real(*args)
        assert got.tobytes() == _reference_schmidt_completion(*args).tobytes()


def test_only_the_root_builds_cross_operators_from_its_own_stack(monkeypatch):
    # the root builds them from its own stack, as a batch of one; every other
    # node takes its cross operators from its parent's batched product, so
    # no node builds them twice
    shapes = []
    real = search_module._cross
    monkeypatch.setattr(search_module, "_cross",
                        lambda stack, *parties: shapes.extend([stack.shape] * len(parties))
                        or real(stack, *parties))
    for e in (L.canned_example("six4x4"), random_ensemble(2, 2, 2, seed=0),
              random_ensemble(2, 2, 4, seed=1, kind="product-basis")):
        shapes.clear()
        out = search_protocol(e)
        assert out.verdict == YES and out.nodes_explored > 1
        assert shapes[:2] == [(1, *e.amplitudes.shape)] * 2  # the root's, one per party
        assert all(len(shape) == 4 for shape in shapes)


@pytest.mark.parametrize("seed", range(3))
def test_children_at_the_depth_limit_do_not_close(seed):
    # the root's children of a two-qubit Haar pair close in one round, but
    # not past the depth limit: the first child of each root candidate is
    # visited and fails
    pair = random_ensemble(2, 2, 2, seed=seed)
    out = search_protocol(pair, SearchConfig(max_depth=1))
    assert (out.verdict, out.nodes_explored) == (UNKNOWN, 3)
    out = search_protocol(pair, SearchConfig(max_depth=2))
    assert (out.verdict, out.nodes_explored) == (YES, 3)
    assert verify_protocol(out.protocol, pair).ok


def test_candidates_deterministic(six4x4):
    a = candidate_bases(six4x4, ALICE)
    b = candidate_bases(six4x4, ALICE)
    assert len(a) == len(b)
    for ma, mb in zip(a, b):
        for qa, qb in zip(ma.projectors, mb.projectors):
            assert np.array_equal(qa, qb)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_depth=0)
    with pytest.raises(ValueError):
        SearchConfig(beam_limit=0)


@pytest.mark.parametrize("field", ["max_depth", "beam_limit"])
@pytest.mark.parametrize("bound", [1.5, 3.0, float("nan"), float("inf"), True, "3", None])
def test_search_config_bounds_must_be_integers(field, bound):
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
        SearchConfig(**{field: bound})


def test_search_config_accepts_numpy_integers(bell2):
    cfg = SearchConfig(max_depth=np.int64(3), beam_limit=np.int64(2))
    assert type(cfg.max_depth) is int and type(cfg.beam_limit) is int
    assert len(candidate_bases(bell2, ALICE, cfg)) == 2
    out = search_protocol(bell2, cfg)
    assert (out.verdict, out.max_depth) == (YES, 3)
    assert type(out.max_depth) is int
    assert json.dumps([cfg.max_depth, cfg.beam_limit, out.max_depth]) == "[3, 2, 3]"


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
def test_tolerance_must_be_finite_and_positive(bell2, tol):
    tree = L.canned_protocol("bell2-x")
    twins = [product_state(2, 2, [1, 0], [1, 0], name=name) for name in ("a", "b")]
    for call in (lambda: SearchConfig(tolerance=tol),
                 lambda: classify_2x2(bell2, tol=tol),
                 lambda: make_ensemble(twins, tol=tol),
                 lambda: verify_protocol(tree, bell2, tol=tol),
                 lambda: L.run_protocol(tree, bell2, tol=tol),
                 lambda: surviving_states(bell2, ALICE, PLUS, tol=tol),
                 lambda: valid_measurement(bell2, tree.measurement, tol=tol)):
        with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
            call()


def test_unknown_party_is_rejected(bell2):
    for call in (lambda: cross_operators(bell2, "C"),
                 lambda: surviving_states(bell2, "C", PLUS),
                 lambda: candidate_bases(bell2, "C")):
        with pytest.raises(L.MalformedTree, match=r"party must be one of \('A', 'B'\)"):
            call()


# ---------------------------------------------------------------------------
# qubit-plane solver


def _reference_qubit_plane_bases(side_mats, tol):
    """The solver with one Pauli vector and one norm per real and imaginary
    part, operator after operator."""
    rows = []
    for m in side_mats:
        pv = np.array([(m[0, 1] + m[1, 0]) / 2, 1j * (m[0, 1] - m[1, 0]) / 2,
                       (m[0, 0] - m[1, 1]) / 2])
        for part in (pv.real, pv.imag):
            norm = np.linalg.norm(part)
            if norm > tol:
                rows.append(part / norm)
    if not rows:
        return [np.eye(2, dtype=complex)]
    _, sig, vt = np.linalg.svd(np.array(rows))
    rank = int(np.count_nonzero(sig > L.RANK_CUTOFF * sig[0]))
    return [search_module._bloch_basis(vt[k]) for k in range(rank, 3)]


def _reference_bloch_basis(n):
    """``_bloch_basis`` as the angle formula on numpy arrays."""
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n)
    theta = np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = float(np.arctan2(n[1], n[0]))
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    w0 = np.array([c, np.exp(1j * phi) * s])
    w1 = np.array([-np.exp(-1j * phi) * s, c])
    return np.column_stack([w0, w1])


def test_bloch_basis_matches_the_angle_formula_bit_for_bit():
    # protocol bytes depend on these bases; poles and signed zeros included
    rng = np.random.default_rng(2000)
    vecs = [np.array(v, dtype=float) for v in itertools.product((0.0, -0.0, 1.0, -1.0), repeat=3)
            if any(v)]
    vecs += list(rng.normal(size=(2000, 3)))
    vecs += list(rng.normal(size=(500, 3)) * [1e-17, 1e-9, 1.0])  # near the poles
    vecs += [np.linalg.svd(rng.normal(size=(2, 3)))[2][2] for _ in range(500)]
    for n in vecs:
        got, ref = search_module._bloch_basis(n), _reference_bloch_basis(n)
        assert got.dtype == ref.dtype and got.strides == ref.strides
        assert got.tobytes() == ref.tobytes(), n


PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _cross_operator_stacks():
    """Seeded stacks of 0 to 12 traceless 2x2 operators, with the tolerance
    to solve them at: generic, Hermitian and anti-Hermitian ones (purely real
    and purely imaginary Pauli parts), all-zero ones, and parts whose norm
    lies exactly at, just below and just above the tolerance."""
    rng = np.random.default_rng(2002)
    for p in range(13):
        for kind in ("complex", "real", "imaginary", "zeros", "small"):
            x = rng.normal(size=(p, 3)) + 1j * rng.normal(size=(p, 3))
            if kind == "real":
                x = x.real + 0j
            elif kind == "imaginary":
                x = 1j * x.imag
            elif kind == "zeros":
                x[rng.random(p) < 0.5] = 0
            elif kind == "small":
                x *= rng.choice([1e-12, 1e-10, 1e-9, 1e-8, 1.0], size=(p, 1))
            mats = np.einsum("pk,kij->pij", x, PAULIS)
            yield mats, L.DEFAULT_TOL
            if p:
                part = rng.choice([x[0].real, x[0].imag])
                at = np.linalg.norm(part)
                if at > 0:
                    for tol in (at, np.nextafter(at, np.inf), np.nextafter(at, 0)):
                        yield mats, tol


def test_qubit_plane_bases_match_the_per_operator_loop():
    cases = 0
    for mats, tol in _cross_operator_stacks():
        got = search_module._qubit_plane_bases(mats, tol)
        ref = _reference_qubit_plane_bases(mats, tol)
        assert len(got) == len(ref)
        assert all(g.tobytes() == r.tobytes() for g, r in zip(got, ref))
        cases += 1
    assert cases > 150


# ---------------------------------------------------------------------------
# a qubit party's candidates: the qubit-plane bases alone


def _walgate_hardy_set(n, m, seed, qubit=ALICE):
    """``m`` states ``sqrt(w)|0>|u_a> + sqrt(1 - w) e^{i phi}|1>|v_b>`` in 2xn
    (their transpose, in nx2, when Bob holds the qubit), the ``a`` distinct
    and the ``b`` distinct across states, for seeded Haar bases ``u``, ``v``
    of the other party: the qubit's computational basis keeps every pair
    orthogonal, so the set is LOCC-distinguishable (Walgate & Hardy, PRL 89,
    147901 (2002))."""
    rng = np.random.default_rng([n, m, seed])
    u, v = haar_unitary(n, rng), haar_unitary(n, rng)
    a, b = rng.permutation(n)[:m], rng.permutation(n)[:m]
    w, phi = rng.uniform(0.05, 0.95, m), rng.uniform(0, 2 * np.pi, m)
    states = []
    for k in range(m):
        amp = np.array([np.sqrt(w[k]) * u[:, a[k]],
                        np.sqrt(1 - w[k]) * np.exp(1j * phi[k]) * v[:, b[k]]])
        states.append(L.make_state(2, n, amp, name=f"s{k}") if qubit == ALICE
                      else L.make_state(n, 2, amp.T, name=f"s{k}"))
    return make_ensemble(states)


def _walgate_hardy_sets():
    for n in (2, 3, 4):
        for m in range(2, n + 1):
            for seed in range(5):
                for qubit in (ALICE, BOB):
                    yield qubit, _walgate_hardy_set(n, m, seed, qubit)


def _qubit_plane_projectors(e, party, tol=L.DEFAULT_TOL):
    bases = search_module._qubit_plane_bases(cross_operators(e, party), tol)
    return list(search_module._outcomes(np.array(bases).reshape(-1, 2, 2))[1])


def _qubit_party_cases():
    yield ALICE, L.canned_example("bell2")  # a rank-1 constraint: two bases
    yield ALICE, _overlapping_bob_factors(1e-10)  # no constraint: the computational basis
    for n in (2, 3, 4):
        for m in (2, 3):
            yield ALICE, random_ensemble(2, n, m, seed=n)
            yield BOB, random_ensemble(n, 2, m, seed=n)
    yield from _walgate_hardy_sets()


def test_a_qubit_party_is_offered_exactly_its_qubit_plane_bases():
    counts = set()
    for party, e in _qubit_party_cases():
        got = [m.projector_stack for m in candidate_bases(e, party)]
        expected = _qubit_plane_projectors(e, party)
        assert [p.tobytes() for p in got] == [p.tobytes() for p in expected], (e, party)
        counts.add(len(got))
    assert counts == {0, 1, 2}


@pytest.mark.parametrize("seed", range(3))
def test_a_qubit_party_s_candidates_rotate_with_its_local_unitary(seed):
    # a qubit plane of one direction is one basis, whose projectors turn into
    # U P U^+ under U_A (x) U_B, in either order (the direction's sign is free)
    rng = np.random.default_rng(seed)
    cases = [(ALICE, random_ensemble(2, n, 2, seed=seed)) for n in (2, 3, 4)]
    cases += [(BOB, random_ensemble(n, 2, 2, seed=seed)) for n in (2, 3, 4)]
    cases += [(q, _walgate_hardy_set(n, n, seed, q)) for n in (2, 3, 4) for q in (ALICE, BOB)]
    for party, e in cases:
        ua, ub = haar_unitary(e.dim_a, rng), haar_unitary(e.dim_b, rng)
        rotated = make_ensemble([L.apply_local_unitary(s, ua, ub) for s in e.states])
        u = ua if party == ALICE else ub
        (before,), (after,) = candidate_bases(e, party), candidate_bases(rotated, party)
        turned = u @ before.projector_stack @ u.conj().T
        assert (np.allclose(after.projector_stack, turned, atol=1e-9)
                or np.allclose(after.projector_stack, turned[::-1], atol=1e-9)), (seed, party)


def test_walgate_hardy_sets_are_distinguished():
    # 2xn and nx2 sets whose qubit computational basis keeps every pair
    # orthogonal are always distinguishable (Walgate & Hardy, PRL 89, 147901
    # (2002)): the qubit measures a basis of its plane, then the other party
    # identifies the state
    count = 0
    for _, e in _walgate_hardy_sets():
        out = search_protocol(e)
        assert out.verdict == YES, e
        assert verify_protocol(out.protocol, e).ok
        count += 1
    assert count == 60


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


@pytest.mark.parametrize("projector", [np.zeros((2, 2, 1)), np.array(1.0), np.zeros((2, 0))])
def test_surviving_states_needs_a_nonempty_matrix_of_columns(bell2, projector):
    with pytest.raises(NotUnitary, match="each projector must be a nonempty matrix of columns"):
        surviving_states(bell2, ALICE, projector)


@pytest.mark.parametrize("block", [[[1, 1], [0, 1], [0, 0], [0, 0]],
                                   [[1, 1], [0, 0], [0, 0], [0, 0]]],
                         ids=["skewed-columns", "repeated-column"])
def test_surviving_states_needs_orthonormal_columns(six4x4, block):
    # skewed columns make two survivors overlap, which would blame the states;
    # a repeated column's q q^+ = 2|0><0| is no projector, yet looks like |0>
    with pytest.raises(NotUnitary, match=r"projector columns not orthonormal \(deviation 1\)"):
        surviving_states(six4x4, ALICE, np.array(block))


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


def test_an_admissible_candidate_whose_survivors_overlap_is_rejected(monkeypatch):
    # in 3x3, Alice's computational basis moves each pair overlap by 1e-10
    # (within tol, of opposite signs), but its outcome 1 keeps both states
    # with norm ~1e-2, so their renormalized survivors overlap by ~1e-6 >
    # tol: the candidate is admissible, and the survivor check rejects it
    eps, beta = 1e-2, 1e-8
    e = make_ensemble([L.make_state(3, 3, [[1, 0, 0], [eps, 0, 0], [0, 0, 0]], name="x"),
                       L.make_state(3, 3, [[-eps * beta, 1, 0], [beta, eps, 0], [0, 0, 0]],
                                    name="y")])
    peaks = []
    real = search_module.overlaps

    def overlaps(flat):
        out = real(flat)
        peaks.append(float(out.max()))
        return out

    monkeypatch.setattr(search_module, "overlaps", overlaps)
    out = search_protocol(e)
    assert (out.verdict, out.nodes_explored) == (YES, 1)
    assert peaks[0] > 1e-7
    assert out.protocol.measurement.party == BOB
    assert verify_protocol(out.protocol, e).ok


def _overlapping_bob_factors(overlap, tol=L.DEFAULT_TOL):
    # |+>|0> and |+>(overlap|0> + |1>): Alice's cross operator is ~overlap / 2
    return make_ensemble([product_state(2, 2, PLUS, [1, 0], name="x"),
                          product_state(2, 2, PLUS, [overlap, 1], name="y")], tol=tol)


def _record_children(monkeypatch):
    batches = []
    real = search_module._children
    monkeypatch.setattr(search_module, "_children",
                        lambda states, alive, sizes: batches.append(alive.copy())
                        or real(states, alive, sizes))
    return batches


def test_a_candidate_that_makes_no_progress_is_rejected(monkeypatch):
    # Bob's factors overlap by 1e-10, inside tol, so every candidate of
    # Alice's is admissible.  The root's Schmidt closure is declined here, so
    # that Alice's candidates are tried: her one candidate is her
    # computational basis (her cross operators are within tol, so the
    # qubit-plane solver returns it); it keeps both product states in both
    # outcomes, and no Schmidt rank can shrink
    e = _overlapping_bob_factors(1e-10)
    real = search_module._schmidt_closures

    def decline_the_root(kids, packed, factors, count, tol):
        if factors is None:  # the root, a batch of one: no closure, its own cross operators
            cross = search_module._cross(packed, ALICE, BOB)
            return {}, {0: {p: ops[0] for p, ops in cross.items()}}
        return real(kids, packed, factors, count, tol)

    monkeypatch.setattr(search_module, "_schmidt_closures", decline_the_root)
    batches = _record_children(monkeypatch)
    out = search_protocol(e)
    assert (out.verdict, out.nodes_explored) == (YES, 1)
    assert len(batches) == 1 and batches[0].all()
    assert out.protocol.measurement.party == BOB
    assert verify_protocol(out.protocol, e).ok


@pytest.mark.parametrize("overlap, tol", [(1e-10, L.DEFAULT_TOL), (1e-7, 1e-6)])
def test_cross_operators_within_tol_offer_the_root_its_schmidt_closure(overlap, tol, monkeypatch):
    # Alice's cross operators are within tol of zero, so the root is offered
    # Bob's Schmidt closure and closes in one round, before any candidate
    batches = _record_children(monkeypatch)
    e = _overlapping_bob_factors(overlap, tol)
    out = search_protocol(e, SearchConfig(tolerance=tol))
    assert (out.verdict, out.nodes_explored) == (YES, 1)
    assert batches == []
    assert out.protocol.measurement.party == BOB
    assert verify_protocol(out.protocol, e, tol=tol).ok


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
        if cls.verdict == YES:
            # a rule "yes" carries the search's own protocol
            assert protocol_to_dict(cls.protocol) == protocol_to_dict(out.protocol)


# ---------------------------------------------------------------------------
# the batched node: survivors and zero-diagonal bases


def _reference_survivors(e, party, q, tol=1e-9):
    """One outcome's survivors state by state: project, keep a squared norm
    above tol, normalize with make_state and validate with make_ensemble."""
    p = q @ q.conj().T
    states = []
    for s in e.states:
        mat = p @ s.amplitudes if party == ALICE else s.amplitudes @ p.T
        if np.linalg.norm(mat) ** 2 > tol:
            states.append(L.make_state(e.dim_a, e.dim_b, mat, name=s.name))
    if not states:
        raise EmptyOutcome("nothing survives")
    return make_ensemble(states, tol=tol)


def _outcome(fn):
    try:
        return fn()
    except (EmptyOutcome, L.NotOrthogonal) as exc:
        return type(exc)


def _tiny_pair(eps=2e-5):
    # projecting Alice onto |1> leaves "a" a squared norm of eps^2, in (tol/10, tol]
    return make_ensemble([L.make_state(2, 2, [[1, 0], [0, eps]], name="a"),
                          L.make_state(2, 2, [[eps, 0], [0, -1]], name="b")])


def _survivor_cases():
    yield _tiny_pair()
    for name in L.CANNED_EXAMPLES:
        yield L.canned_example(name)
    for dims in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4)):
        for kind in L.ensemble.RANDOM_KINDS:
            for m in (2, 3, dims[0] * dims[1] if kind == "product-basis" else 4):
                yield random_ensemble(dims[0], dims[1], m, seed=m, kind=kind)


def test_batched_survivors_agree_with_surviving_states():
    rng = np.random.default_rng(41)
    kinds = set()
    for e in _survivor_cases():
        labels = np.array(e.labels, dtype=object)
        for party in (ALICE, BOB):
            d = e.dim_a if party == ALICE else e.dim_b
            u = haar_unitary(d, rng)
            # the candidates, a Haar basis, and the Schmidt completion the
            # search offers before them, whose completing vectors may keep
            # no state
            completion = search_module._schmidt_completion(e.amplitudes, party, 1e-9)
            measurements = candidate_bases(e, party)
            for basis in (u, completion):
                measurements.append(ProjectiveMeasurement(party, tuple(basis[:, [k]]
                                                                       for k in range(d))))
            for meas in measurements:
                projs = np.array(meas.projector_matrices())
                alive, states, _ = search_module._project(e.amplitudes, party, projs, 1e-9)
                gram = L.ensemble.overlaps(states.reshape(*alive.shape, -1))
                for k, q in enumerate(meas.projectors):
                    ref = _outcome(lambda: _reference_survivors(e, party, q))
                    got = _outcome(lambda: surviving_states(e, party, q))
                    if isinstance(ref, type):
                        kinds.add(ref.__name__)
                        assert got is ref
                        if ref is EmptyOutcome:
                            assert not alive[k].any()
                        else:
                            assert gram[k].max() > 1e-9
                        continue
                    kinds.add("ok")
                    assert gram[k].max() <= 1e-9
                    assert got.labels == ref.labels == tuple(labels[alive[k]])
                    for a, b, c in zip(got.states, ref.states, states[k][alive[k]]):
                        assert np.allclose(a.amplitudes, b.amplitudes, rtol=0, atol=1e-13)
                        assert np.allclose(c, b.amplitudes, rtol=0, atol=1e-13)
                        assert a.normalization == pytest.approx(b.normalization, rel=1e-13)
    assert kinds == {"ok", "EmptyOutcome", "NotOrthogonal"}


def _traceless_hermitian(rng, d, spectrum, scale):
    u = haar_unitary(d, rng)
    h = (u * (scale * np.asarray(spectrum, dtype=float))) @ u.conj().T
    return (h + h.conj().T) / 2


@pytest.mark.parametrize("seed", range(40))
def test_zero_diagonal_bases_are_unitary_with_vanishing_diagonal(seed):
    rng = np.random.default_rng(seed)
    d = 3 + seed % 4
    for _ in range(12):
        # small integers with repeats and exact zeros, made traceless exactly
        spectrum = list(rng.choice([-2.0, -1.0, 0.0, 0.0, 1.0, 3.0], size=d - 1))
        spectrum.append(-sum(spectrum))
        scale = 10.0 ** rng.uniform(-12, 3)
        h = _traceless_hermitian(rng, d, spectrum, scale)
        scale *= np.abs(spectrum).max()
        w, v = np.linalg.eigh(h)
        basis = search_module._zero_diagonal_basis(w, v)
        assert np.abs(basis.conj().T @ basis - np.eye(d)).max() <= 1e-12
        assert np.abs(np.diag(basis.conj().T @ h @ basis)).max() <= 1e-10 * scale
        # eigenvectors of zero eigenvalue come first, as they are
        zeros = np.count_nonzero(np.abs(w) <= 1e-10 * np.abs(w).max())
        assert np.abs(h @ basis[:, :zeros]).max(initial=0.0) <= 1e-10 * scale


def _first_rotated(basis, evals):
    """The column of a ``_zero_diagonal_basis`` that its first rotation
    retires, right after the eigenvectors of zero eigenvalue, as a one-column
    basis; None when it starts with no rotation."""
    cut = L.RANK_CUTOFF * np.abs(evals).max()
    if not (evals[0] < -cut and evals[-1] > cut):
        return None
    k = np.count_nonzero(np.abs(evals) <= cut)
    return basis[np.newaxis, :, k:k + 1]


def _admissible(bases, sides, tol):
    d = sides.shape[-1]
    projs = search_module._outcomes(bases)[1]
    return search_module._admits(projs.reshape(-1, d, d), sides, tol).reshape(
        projs.shape[:2]).all(axis=1)


def _part_test_stacks(rng, d):
    """Stacks of one to three cross operators of dimension ``d``, by kind:
    traceless Hermitian with tied and zero eigenvalues (rank-deficient), real
    symmetric likewise, real (as real-valued states give) and complex, both
    traceless of low rank; then a complex one beside a Hermitian part
    whose eigenvalues are all at least 0, whose first step is no rotation;
    and last a Hermitian one alone whose eigenvalues are at most 5e-10 in
    magnitude, below the tolerance of 1e-9 the tests use, so that every
    vector is admissible."""
    def spectrum():
        values = list(rng.choice([-2.0, -1.0, 0.0, 0.0, 1.0, 1.0, 3.0], size=d - 1))
        return np.array(values + [-sum(values)])

    def low_rank(complex_entries):
        r = int(rng.integers(1, d))
        a, b = rng.standard_normal((d, r)), rng.standard_normal((r, d))
        if complex_entries:
            a, b = a + 1j * rng.standard_normal((d, r)), b + 1j * rng.standard_normal((r, d))
        g = a @ b
        return g - np.trace(g) / d * np.eye(d)

    def real_symmetric():
        o = np.linalg.qr(rng.standard_normal((d, d)))[0]
        return (o * spectrum()) @ o.T

    kinds = {
        "hermitian": lambda: _traceless_hermitian(rng, d, spectrum(), 1.0),
        "real-symmetric": real_symmetric,
        "real": lambda: low_rank(False),
        "complex": lambda: low_rank(True),
    }
    for kind, make in kinds.items():
        for n in (1, 2, 3):
            yield kind, np.array([make() for _ in range(n)], dtype=np.complex128)
    # its d diagonal entries sum to 2e-9 * d, so one is at least 2e-9, above tol
    positive = _traceless_hermitian(rng, d, [2e-9 * d] + [0.0] * (d - 1), 1.0)
    yield "no-rotation", np.array([kinds["complex"](), positive])
    tiny = _traceless_hermitian(rng, d, [1.0, -1.0] + [0.0] * (d - 2), 5e-10)
    yield "below-tol", np.array([tiny])


def _full_tier(sides, tol):
    """Every part's basis, with no part dropped: ``(evals, evecs, basis)``
    per Hermitian or anti-Hermitian part of largest eigenvalue magnitude
    above ``tol``."""
    evals, evecs = np.linalg.eigh(search_module._hermitian_parts(sides, tol))
    return [(w, v, search_module._zero_diagonal_basis(w, v))
            for w, v in zip(evals, evecs) if np.abs(w).max() > tol]


def test_zero_diagonal_tier_drops_only_bases_holding_an_inadmissible_vector():
    # a basis holding an inadmissible vector is itself inadmissible, so the
    # tier drops a part's basis when the vector of its first rotation fails;
    # every other part, and every admissible basis, is built, in part order
    tol = 1e-9
    seen = {"dropped": 0, "admissible": 0, "mixed": 0, "no-rotation": 0, "below-tol": 0,
            "empty": 0}
    for seed in range(24):
        rng = np.random.default_rng(2000 + seed)
        d = 3 + seed % 4
        for kind, sides in _part_test_stacks(rng, d):
            full = _full_tier(sides, tol)
            tier = search_module._zero_diagonal_tier(sides, tol)
            admissible = _admissible(np.array([b for *_, b in full]).reshape(-1, d, d), sides, tol)
            built = iter(tier)
            nxt = next(built, None)
            dropped = 0
            for (w, _, basis), ok in zip(full, admissible):
                if nxt is not None and np.array_equal(nxt, basis):
                    nxt = next(built, None)
                    continue
                assert not ok
                first = _first_rotated(basis, w)
                assert first is not None and not _admissible(first, sides, tol).any()
                dropped += 1
            assert nxt is None  # the tier is the full list, less the dropped bases
            if kind == "no-rotation":
                assert _first_rotated(full[-1][2], full[-1][0]) is None
                assert np.array_equal(tier[-1], full[-1][2])
                seen[kind] += 1
            if kind == "below-tol":  # a part with every entry within tol gives no basis
                assert len(search_module._hermitian_parts(sides, 1e-12)) == 1
                assert len(search_module._hermitian_parts(sides, tol)) == 0 and tier == []
                seen[kind] += 1
            seen["dropped"] += bool(dropped)
            seen["mixed"] += bool(dropped) and len(tier) > 0
            seen["empty"] += len(tier) == 0
            seen["admissible"] += bool(admissible.any())
    assert all(seen.values()), seen


@pytest.mark.parametrize("seed", range(20))
def test_zero_diagonal_bases_match_the_one_matrix_reference(seed):
    # the tier rotates and tests every part's first vector in one batch; one
    # part at a time, each part's basis is built and kept when the column its
    # first rotation retires is admissible, or when it starts with no rotation
    rng = np.random.default_rng(1000 + seed)
    d = 3 + seed % 4
    tol = 1e-9
    for _, sides in _part_test_stacks(rng, d):
        full = _full_tier(sides, tol)
        firsts = [_first_rotated(basis, w) for w, _, basis in full]
        # one batched rotation gives the column each basis retires first, bit for bit
        turns = [(w, v, first) for (w, v, _), first in zip(full, firsts) if first is not None]
        if turns:
            w, v, first = (np.array(x) for x in zip(*turns))
            batch = search_module._rotate(w[:, 0], w[:, -1], v[:, :, 0], v[:, :, -1])[0]
            assert np.array_equal(batch, first[:, 0, :, 0])
        refs = [basis for (*_, basis), first in zip(full, firsts)
                if first is None or _admissible(first, sides, tol).all()]
        tier = search_module._zero_diagonal_tier(sides, tol)
        assert len(tier) == len(refs)
        for basis, ref in zip(tier, refs):
            assert np.array_equal(basis, ref)


def _ungrouped_parts(sides, tol):
    """Every Hermitian and anti-Hermitian part of a ``(pairs, d, d)`` stack
    with an entry above ``tol``, in pair order, repeats kept."""
    d = sides.shape[-1]
    live = sides[np.abs(sides).max(axis=(1, 2)) > tol]
    adj = live.conj().transpose(0, 2, 1)
    parts = np.stack([(live + adj) / 2, (live - adj) / 2j], axis=1).reshape(-1, d, d)
    return parts[np.abs(parts).max(axis=(1, 2)) > tol]


def _ungrouped_tier(sides, tol):
    """The zero-diagonal tier built eagerly from every part, repeats kept:
    ``(parts, bases, built)``, with every part's ``_zero_diagonal_basis`` and
    the indices of the parts the prune keeps, by the vector that ``_rotate``
    retires first (a part with no rotation is kept)."""
    parts = _ungrouped_parts(sides, tol)
    evals, evecs = np.linalg.eigh(parts)
    lo, hi = evals[:, 0], evals[:, -1]
    cut = L.RANK_CUTOFF * np.abs(evals).max(axis=1)
    rot = (lo < -cut) & (hi > cut)
    first = search_module._rotate(np.where(rot, lo, -1.0), np.where(rot, hi, 1.0),
                                  evecs[:, :, 0], evecs[:, :, -1])[0]
    admitted = search_module._admits(first[:, :, np.newaxis] * first[:, np.newaxis].conj(),
                                     sides, tol)
    bases = [search_module._zero_diagonal_basis(w, v) for w, v in zip(evals, evecs)]
    return parts, bases, [int(k) for k in np.flatnonzero(~rot | admitted)]


def _computational_product_basis(dim_a, dim_b):
    eye_a, eye_b = np.eye(dim_a), np.eye(dim_b)
    return [product_state(dim_a, dim_b, eye_a[i], eye_b[j], name=f"s{i}{j}")
            for i in range(dim_a) for j in range(dim_b)]


def _product_sets_with_repeated_parts():
    """Product sets from 3x3 to 5x5, full and partial, in the computational
    basis and under a seeded ``U_A (x) U_B``, then ``domino9`` and three
    rotations: sets whose pairs share local factors, so their cross
    operators repeat."""
    for seed, (dim_a, dim_b) in enumerate(((3, 3), (3, 4), (4, 4), (3, 5), (4, 5), (5, 5))):
        basis = _computational_product_basis(dim_a, dim_b)
        for m in (dim_a * dim_b, dim_a * dim_b - dim_b + 1):
            yield make_ensemble(basis[:m])
            yield random_ensemble(dim_a, dim_b, m, seed=seed, kind="product-basis")
    domino = L.canned_example("domino9")
    yield domino
    for seed in range(3):
        rng = np.random.default_rng(300 + seed)
        ua, ub = haar_unitary(3, rng), haar_unitary(3, rng)
        yield make_ensemble([L.apply_local_unitary(s, ua, ub) for s in domino.states])


def test_grouped_zero_diagonal_tier_is_the_ungrouped_one_less_repeated_parts():
    # the tier keeps the first part of each group of agreeing parts; its
    # bases are the eager ungrouped tier's, bit for bit and in order, less
    # the bases of dropped parts, and each dropped part is within tol of
    # an earlier kept part in every entry.  A dropped part's own basis need
    # not be its twin's: near-twins with a degenerate kernel may get other
    # kernel vectors from eigh (about half the dropped parts of the rotated
    # product sets do).  On these sets each such basis has its twin's
    # admissibility, and the prune drops both, so every basis the ungrouped
    # tier builds for a dropped part is its twin's, bit for bit
    tol = 1e-9
    stacks = [cross_operators(e, party) for e in _product_sets_with_repeated_parts()
              for party in (ALICE, BOB)]
    rng = np.random.default_rng(31)
    for d in (3, 4):
        # two operators, each repeated with one entry moved by up to 6 tol,
        # so that parts agree to anywhere from 0 to 3 tol, among more pairs
        # whose operators vanish, as on a product set
        base = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
        base -= np.trace(base, axis1=1, axis2=2)[:, np.newaxis, np.newaxis] * np.eye(d) / d
        stack = base[np.arange(2 * d * d) % 2]
        stack[:, 0, 1] += rng.uniform(0.0, 6 * tol, size=len(stack))
        stacks.append(np.concatenate((stack, np.zeros_like(stack), stack[:1] * 0)))
    seen = {"dropped": 0, "dropped but built": 0, "built": 0, "close but kept": 0}
    for sides in stacks:
        parts, bases, built = _ungrouped_tier(sides, tol)
        kept, start = [], 0
        for part in search_module._hermitian_parts(sides, tol):
            k = next(k for k in range(start, len(parts)) if np.array_equal(parts[k], part))
            kept.append(k)
            start = k + 1
        admissible = _admissible(np.array(bases), sides, tol) if bases else []
        for k in sorted(set(range(len(parts))) - set(kept)):
            twin = min((j for j in kept if j < k), key=lambda j: np.abs(parts[k] - parts[j]).max())
            assert np.abs(parts[k] - parts[twin]).max() < tol
            assert admissible[k] == admissible[twin]
            assert (k in built) == (twin in built)
            if k in built:
                assert np.array_equal(bases[k], bases[twin])
                seen["dropped but built"] += 1
            seen["dropped"] += 1
        expected = [bases[k] for k in built if k in kept]
        tier = search_module._zero_diagonal_tier(sides, tol)
        assert len(tier) == len(expected)
        for basis, ref_basis in zip(tier, expected):
            assert np.array_equal(basis, ref_basis)
        seen["built"] += len(tier)
        seen["close but kept"] += any(0 < np.abs(parts[k] - parts[j]).max() < 3 * tol
                                      for j in kept for k in kept if j < k)
    assert all(seen.values()), seen


def test_a_5x5_product_basis_hands_eigh_its_20_distinct_parts(monkeypatch):
    e = random_ensemble(5, 5, 25, seed=4, kind="product-basis")
    assert len(_ungrouped_parts(cross_operators(e, ALICE), 1e-9)) == 100
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    search_protocol(e)
    assert shapes and set(shapes) == {(20, 5, 5)}, shapes


@pytest.mark.parametrize("case", ["no parts", "no pairs", "overflow"])
def test_zero_diagonal_tier_falls_back_to_the_ungrouped_parts(case):
    # an empty part stack, and a tol so small that part / tol overflows,
    # group nothing: the tier is the ungrouped one
    e = make_ensemble(_computational_product_basis(4, 4))
    tol, sides = 1e-9, cross_operators(e, ALICE)
    assert len(search_module._hermitian_parts(sides, tol)) == 12  # grouped, 48 parts
    if case == "no parts":
        sides = np.full_like(sides, 1e-10)
    elif case == "no pairs":
        sides = sides[:0]
    else:  # the operators that vanish at 1e-9 are exact zeros, so they still do
        tol = 1e-320
    parts, bases, built = _ungrouped_tier(sides, tol)
    assert len(parts) == (48 if case == "overflow" else 0)
    assert np.array_equal(search_module._hermitian_parts(sides, tol), parts)
    tier = search_module._zero_diagonal_tier(sides, tol)
    assert len(tier) == len(built)
    for basis, k in zip(tier, built):
        assert np.array_equal(basis, bases[k])


def test_search_raises_when_its_protocol_fails_verification(monkeypatch, bell2):
    def failing(tree, e, tol=L.DEFAULT_TOL):
        return L.VerificationReport(False, 0.0, {}, (), ("injected failure",), tol)

    monkeypatch.setattr(search_module, "verify_protocol", failing)
    with pytest.raises(RuntimeError, match="fails verification: injected failure"):
        search_protocol(bell2)
