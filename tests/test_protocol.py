import itertools
import re
import warnings

import numpy as np
import pytest
from treegen import random_tree

import loccdist as L
from loccdist import (
    ALICE,
    BOB,
    DimensionMismatch,
    Leaf,
    MalformedTree,
    Node,
    NotUnitary,
    ProjectiveMeasurement,
    UnknownProtocol,
    canned_protocol,
    completeness_check,
    enumerate_branches,
    make_ensemble,
    make_state,
    run_protocol,
    tree_depth,
    verify_protocol,
)
from loccdist.ensemble import haar_unitary

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


def z_basis(party, dim=2):
    return ProjectiveMeasurement(party, tuple(cols(dim, i) for i in range(dim)))


def x_basis(party):
    return ProjectiveMeasurement(party, (col(PLUS), col(MINUS)))


def alice_z_tree(labels):
    return Node(z_basis(ALICE), tuple(Leaf(l) for l in labels))


def zz_tree(labels2x2):
    bobs = [Node(z_basis(BOB), (Leaf(labels2x2[a][0]), Leaf(labels2x2[a][1])))
            for a in range(2)]
    return Node(z_basis(ALICE), tuple(bobs))


# ---------------------------------------------------------------------------
# measurement validation


def test_measurement_rejects_nonorthonormal_columns():
    with pytest.raises(NotUnitary):
        ProjectiveMeasurement(ALICE, (col([1, 1]), col([0, 1])))


def test_measurement_rejects_overlapping_subspaces():
    with pytest.raises(NotUnitary):
        ProjectiveMeasurement(ALICE, (col([1, 0]), col([1, 0])))


def test_measurement_rejects_incomplete_resolution():
    with pytest.raises(NotUnitary):
        ProjectiveMeasurement(ALICE, (cols(3, 0, 1),))


def test_measurement_rejects_nan_columns():
    # every comparison with NaN is False, so "dev > tol" alone would pass
    with pytest.raises(NotUnitary):
        ProjectiveMeasurement(ALICE, (col([np.nan, np.nan]), col([np.nan, np.nan])))
    with pytest.raises(NotUnitary):
        ProjectiveMeasurement(ALICE, (col([1, 0]), col([np.nan, 1])))


def _reference_measurement(projectors, tol=L.DEFAULT_TOL):
    """Per-block validation: one product per outcome and per pair of
    outcomes, in the order ``ProjectiveMeasurement`` reports faults.  Returns
    the projector stack, or the ``(type, message)`` of the fault."""
    blocks = []
    for q in projectors:
        q = np.asarray(q, dtype=complex)
        blocks.append(np.array(q[:, np.newaxis] if q.ndim == 1 else q, copy=True))
    dim = blocks[0].shape[0]
    total = 0
    adjoints = []
    for k, q in enumerate(blocks):
        if q.shape[0] != dim:
            return NotUnitary, "all projectors must act on the same local space"
        adjoints.append(q.conj().T)
        with np.errstate(all="ignore"):
            dev = np.abs(adjoints[k] @ q - np.eye(q.shape[1])).max()
        if not dev <= tol:
            return NotUnitary, f"outcome {k}: projector columns not orthonormal (deviation {dev:.3g})"
        total += q.shape[1]
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            with np.errstate(all="ignore"):
                dev = np.abs(adjoints[i] @ blocks[j]).max()
            if not dev <= tol:
                return NotUnitary, f"outcomes {i} and {j} are not orthogonal (overlap {dev:.3g})"
    if total != dim:
        return NotUnitary, f"projector ranks sum to {total}, expected the local dimension {dim}"
    stack = np.empty((len(blocks), dim, dim), dtype=complex)
    for q, adjoint, out in zip(blocks, adjoints, stack):
        np.matmul(q, adjoint, out=out)
    return stack


def _assert_validates_as_reference(projectors, tol=L.DEFAULT_TOL):
    expected = _reference_measurement(projectors, tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = ProjectiveMeasurement(ALICE, tuple(projectors), tol=tol).projector_stack
        except NotUnitary as exc:
            got = type(exc), str(exc)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray), got
        assert got.tobytes() == expected.tobytes()
    return got


def _split(u, ranks):
    return [u[:, s:s + r] for s, r in zip(np.cumsum([0, *ranks[:-1]]), ranks)]


def _measurement_cases():
    """Valid and faulty measurements, as lists of column blocks."""
    rng = np.random.default_rng(2026)
    for d in range(1, 7):
        for _ in range(6):
            ranks = []
            while sum(ranks) < d:
                ranks.append(int(rng.integers(1, d - sum(ranks) + 1)))
            u = haar_unitary(d, rng)
            blocks = _split(u, ranks)
            yield blocks
            yield [b[:, 0] if b.shape[1] == 1 else b for b in blocks]  # vectors
            yield [np.asfortranarray(b) for b in blocks]
            for k in range(len(blocks)):  # each outcome non-orthonormal in turn
                bad = list(blocks)
                bad[k] = bad[k] * 1.1
                yield bad
                nan = list(blocks)
                nan[k] = nan[k].copy()
                nan[k][0, 0] = np.nan
                yield nan
            if len(blocks) > 1:
                yield blocks[:-1]  # ranks short of the dimension
                for i, j in itertools.combinations(range(len(blocks)), 2):
                    twin = list(blocks)
                    twin[j] = twin[i]
                    yield twin
    # blocks of one width
    for d in range(1, 7):
        for width in (1, 2):
            if d % width:
                continue
            blocks = _split(haar_unitary(d, rng), [width] * (d // width))
            yield blocks
            yield [np.asfortranarray(b) for b in blocks]
            if width == 1:
                yield [b[:, 0] for b in blocks]  # vectors
            for k in range(len(blocks)):  # a fault at k, and another one after it
                bad = list(blocks)
                bad[k] = bad[k] * 1.1
                if k + 1 < len(blocks):
                    bad[-1] = bad[-1].copy()
                    bad[-1][0, 0] = np.nan
                yield bad
            if len(blocks) > 2:
                twin = list(blocks)
                twin[2] = twin[1]
                yield twin
                yield blocks[:-1]
    e = np.eye(4)
    # overlapping pairs (1, 2) and (0, 3): the first in row order is (0, 3)
    yield [e[:, :1], e[:, 1:2], e[:, 1:2], e[:, :1]]
    # overlaps that also break the ranks, and a block of the wrong length
    yield [e[:, :2], e[:, 1:3]]
    # mixed local dimensions: the earliest fault wins, dimensions before pairs
    z3 = np.eye(3)
    yield [e[:, :1], z3[:, :1]]
    yield [1.1 * e[:, :1], z3[:, :1]]
    yield [e[:, :1], 1.1 * e[:, 1:2], z3[:, :1], e[:, 2:]]
    yield [e[:, :1], e[:, 1:2], z3[:, :1], 1.1 * e[:, 2:]]
    yield [e[:, :1], e[:, :1], z3[:, :1]]
    yield [e[:, :1], np.full((4, 1), np.nan), z3[:, :1]]
    yield [[np.nan, np.nan], [np.nan, np.nan]]
    yield [[1e308, 1e308], [1, -1]]
    yield [np.array([1e308, 1e308]), np.array([1.0, -1.0])]
    for name in ("six4x4", "bell2-x"):  # every measurement of the canned protocols
        nodes = [canned_protocol(name)]
        for node in nodes:
            yield list(node.measurement.projectors)
            nodes += [c for c in node.children if isinstance(c, Node)]


def test_measurement_validation_matches_per_block_reference():
    kinds = ("not orthonormal", "not orthogonal", "ranks sum", "same local space")
    met = set()
    for blocks in _measurement_cases():
        got = _assert_validates_as_reference(blocks)
        if isinstance(got, tuple):
            met.update(kind for kind in kinds if kind in got[1])
    assert met == set(kinds)


def test_measurement_arrays_and_nested_lists_agree():
    # arrays of one shape and the same blocks as nested lists give equal
    # stacks bit for bit, or equal faults
    met = set()
    for blocks in _measurement_cases():
        if not all(isinstance(b, np.ndarray) for b in blocks) or len(
                {b.shape for b in blocks}) != 1:
            continue
        results = []
        for given in (tuple(blocks), tuple(b.tolist() for b in blocks)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    results.append(ProjectiveMeasurement(ALICE, given).projector_stack.tobytes())
                except NotUnitary as exc:
                    results.append(str(exc))
        assert results[0] == results[1], blocks
        if isinstance(results[0], str):
            met.update(kind for kind in ("not orthonormal", "not orthogonal", "ranks sum")
                       if kind in results[0])
    assert met == {"not orthonormal", "not orthogonal", "ranks sum"}


@pytest.mark.parametrize("blocks", [
    (np.zeros((2, 0)), np.zeros((2, 0))),
    (np.array(1.0), np.array(0.0)),
    (np.zeros((1, 2, 2)), np.zeros((1, 2, 2))),
    (np.eye(2)[:, :1], np.zeros((2, 0))),
    ([1.0], [[[0.0]]]),
    # blocks with no rows, as an empty projector column of a protocol file
    # gives: of one shape, then of mixed shapes
    (np.zeros((0, 1)),),
    (np.zeros((0, 1)), np.zeros((0, 1))),
    (np.zeros(0),),
    (np.zeros((0, 1)), np.eye(2)),
    ([], [[1.0], [0.0]]),
])
def test_measurement_blocks_must_be_nonempty_column_matrices(blocks):
    with pytest.raises(NotUnitary, match="each projector must be a nonempty matrix of columns"):
        ProjectiveMeasurement(ALICE, blocks)


def test_measurement_needs_an_outcome():
    with pytest.raises(NotUnitary, match="a measurement needs at least one outcome"):
        ProjectiveMeasurement(ALICE, ())


def test_measurement_of_one_shape_shares_one_read_only_copy():
    q = haar_unitary(3, np.random.default_rng(5))
    source = [q[:, k:k + 1].copy() for k in range(3)]
    meas = ProjectiveMeasurement(BOB, tuple(source))
    for block, original in zip(meas.projectors, source):
        assert not block.flags.writeable
        assert block.tobytes() == original.tobytes()
    source[0][0, 0] = 7.0  # the measurement holds a copy
    assert meas.projectors[0][0, 0] != 7.0


def test_measurement_of_mixed_widths_keeps_read_only_copies():
    u = haar_unitary(4, np.random.default_rng(6))
    source = [u[:, :1].copy(), u[:, 1:3].copy(), u[:, 3].copy()]  # ranks 1, 2, 1
    expected = _reference_measurement(source)
    meas = ProjectiveMeasurement(ALICE, tuple(source))
    assert [b.shape for b in meas.projectors] == [(4, 1), (4, 2), (4, 1)]
    for block, original in zip(meas.projectors, source):
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 7.0
        assert block.tobytes() == original.reshape(4, -1).tobytes()
    for original in source:  # the measurement holds a copy of every block
        original[0] = 7.0
    assert not any((block == 7.0).any() for block in meas.projectors)
    assert meas.projector_stack.tobytes() == expected.tobytes()


@pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
def test_measurement_validation_at_the_tolerance(factor):
    tol = 1e-9
    dev = tol * factor
    # a column whose norm^2 is off by dev, and a pair that overlaps by dev
    _assert_validates_as_reference([[np.sqrt(1 + dev), 0], [0, 1]], tol)
    _assert_validates_as_reference([[1, 0], [dev, np.sqrt(1 - dev * dev)]], tol)
    for t in (1e-12, 1e-6):
        _assert_validates_as_reference([[1, 0], [t * factor, 1]], t)


def test_measurement_overflow_reports_inf_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotUnitary, match=r"outcome 0: .* \(deviation inf\)"):
            ProjectiveMeasurement(ALICE, (col([1e308, 1e308]), col([1, -1])))


def test_branch_operator_with_nan_is_not_a_projector():
    nan = np.full((2, 2), np.nan)
    assert not L.BranchOperator(nan, np.eye(2), None, ()).is_projector()
    assert not L.BranchOperator(np.eye(2), nan, None, ()).is_projector()
    assert L.BranchOperator(np.eye(2), np.eye(2), None, ()).is_projector()


def test_node_child_count_must_match():
    with pytest.raises(MalformedTree):
        Node(z_basis(ALICE), (Leaf("a"),))
    with pytest.raises(MalformedTree, match="child of unexpected type str"):
        Node(z_basis(ALICE), (Leaf("a"), "b"))


# ---------------------------------------------------------------------------
# branch enumeration and completeness


def test_enumerate_branches_single_alice_z():
    tree = alice_z_tree(["p", "q"])
    branches = enumerate_branches(tree, (2, 2))
    assert [b.leaf_label for b in branches] == ["p", "q"]
    assert np.allclose(branches[0].op_a, [[1, 0], [0, 0]])
    assert np.allclose(branches[0].op_b, np.eye(2))
    assert np.allclose(branches[1].op_a, [[0, 0], [0, 1]])
    assert branches[0].path == ((ALICE, 0),)


def test_enumerate_branches_six4x4_first_round():
    tree = Node(
        ProjectiveMeasurement(ALICE, (cols(4, 0, 1), cols(4, 2, 3))),
        (Leaf("block01"), Leaf("block23")),
    )
    branches = enumerate_branches(tree, (4, 4))
    assert np.allclose(branches[0].op_a, np.diag([1, 1, 0, 0]))
    assert np.allclose(branches[1].op_a, np.diag([0, 0, 1, 1]))
    for b in branches:
        assert np.allclose(b.op_b, np.eye(4))
        assert b.is_projector()


def test_enumerate_branches_depth2_zz():
    tree = zz_tree([["00", "01"], ["10", "11"]])
    branches = enumerate_branches(tree, (2, 2))
    assert len(branches) == 4
    for b in branches:
        a = int(b.leaf_label[0])
        y = int(b.leaf_label[1])
        # independent oracle: the joint element is the diagonal unit at 2a + y
        expected = np.zeros((4, 4))
        expected[2 * a + y, 2 * a + y] = 1.0
        joint = np.kron(b.op_a.conj().T @ b.op_a, b.op_b.conj().T @ b.op_b)
        assert np.allclose(joint, expected, atol=1e-15)


def test_completeness_of_wellformed_trees():
    assert completeness_check(
        enumerate_branches(zz_tree([["a", "b"], ["c", "d"]]), (2, 2))) <= 1e-12
    assert completeness_check(
        enumerate_branches(canned_protocol("six4x4"), (4, 4))) <= 1e-12
    identity_tree = Node(ProjectiveMeasurement(ALICE, (np.eye(2),)), (Leaf("only"),))
    assert completeness_check(enumerate_branches(identity_tree, (2, 2))) == 0.0
    assert completeness_check(enumerate_branches(Leaf("bare"), (2, 2))) == 0.0


def test_completeness_detects_dropped_branch():
    branches = enumerate_branches(zz_tree([["a", "b"], ["c", "d"]]), (2, 2))
    deviation = completeness_check(branches[:-1])
    assert deviation > 0.9  # the dropped rank-one projector is missing entirely
    with pytest.raises(MalformedTree, match="no branches to check"):
        completeness_check([])


def test_enumerate_branches_dim_mismatch():
    with pytest.raises(MalformedTree):
        enumerate_branches(alice_z_tree(["p", "q"]), (3, 2))


# ---------------------------------------------------------------------------
# run_protocol


def test_run_protocol_deterministic_split():
    e = make_ensemble([make_state(2, 2, [[1, 0], [0, 0]], name="s0"),
                       make_state(2, 2, [[0, 0], [1, 0]], name="s1")])
    records = run_protocol(alice_z_tree(["s0", "s1"]), e)
    assert np.allclose(records[0].probabilities, [1.0, 0.0])
    assert np.allclose(records[1].probabilities, [0.0, 1.0])
    assert records[0].post_states[1] is None


def test_run_protocol_six4x4_psi3_split(six4x4):
    # (P_{01} (x) I)|psi3> keeps everything; refining Alice to |0> keeps the
    # single |0,1> term (1/3) and to |1> the |1,0>-|1,1> part (2/3)
    records = run_protocol(canned_protocol("six4x4"), six4x4)
    idx = six4x4.labels.index("psi3")
    probs = sorted(r.probabilities[idx] for r in records
                   if r.branch.leaf_label == "psi3")
    assert probs == [pytest.approx(1 / 3, abs=1e-12), pytest.approx(2 / 3, abs=1e-12)]
    totals = sum(r.probabilities for r in records)
    assert np.allclose(totals, np.ones(6), atol=1e-12)


def test_run_protocol_alice_x_posteriors(bell2):
    tree = Node(x_basis(ALICE), (Leaf("A1"), Leaf("A2")))
    records = run_protocol(tree, bell2)
    plus_record = records[0]
    assert np.allclose(plus_record.probabilities, [0.5, 0.5])
    # Bob posteriors after Alice outcome |+>: |+> for A1 and |-> for A2
    assert np.allclose(plus_record.post_states[0].amplitudes, np.outer(PLUS, PLUS),
                       atol=1e-12)
    assert np.allclose(plus_record.post_states[1].amplitudes, np.outer(PLUS, MINUS),
                       atol=1e-12)


def test_run_protocol_dimension_mismatch(six4x4):
    with pytest.raises(DimensionMismatch):
        run_protocol(alice_z_tree(["psi1", "psi2"]), six4x4)


# ---------------------------------------------------------------------------
# verify_protocol


def test_verify_canned_six4x4(six4x4):
    report = verify_protocol(canned_protocol("six4x4"), six4x4)
    assert report.ok
    assert report.completeness_deviation <= 1e-12
    assert all(abs(t - 1.0) <= 1e-12 for t in report.state_totals.values())


def test_verify_zz_on_bell2_fails_with_ambiguous_leaf(bell2):
    report = verify_protocol(zz_tree([["A1", "A2"], ["A1", "A2"]]), bell2)
    assert not report.ok
    assert any("A:0/B:0" in f for f in report.failures)


def test_verify_xx_on_bell2_succeeds(bell2):
    assert verify_protocol(canned_protocol("bell2-x"), bell2).ok


def test_verify_reports_elements_that_miss_the_identity(bell2):
    # columns 1e-4 off orthogonal pass a measurement validated at tol 1e-3;
    # at the default tolerance their elements miss the identity by 1e-4
    skewed = ProjectiveMeasurement(ALICE, ([1, 0], [1e-4, 1]), tol=1e-3)
    report = verify_protocol(Node(skewed, (Leaf("A1"), Leaf("A2"))), bell2)
    assert not report.ok
    assert report.completeness_deviation == pytest.approx(1e-4)
    assert report.failures[0] == ("branch elements do not resolve the identity "
                                  "(deviation 0.0001)")


def test_verify_fail_leaf_with_arrivals(bell2):
    tree = Node(x_basis(ALICE), (Leaf(None), Leaf(None)))
    report = verify_protocol(tree, bell2)
    assert not report.ok
    assert any("fail leaf" in f for f in report.failures)


# ---------------------------------------------------------------------------
# canned protocols


def test_canned_six4x4_shape():
    tree = canned_protocol("six4x4")
    assert tree_depth(tree) == 3
    assert tree.measurement.party == ALICE
    assert tree.measurement.outcomes == 2


def test_canned_bell2x_shape(bell2):
    tree = canned_protocol("bell2-x")
    leaves = [b.leaf_label for b in enumerate_branches(tree, (2, 2))]
    assert leaves == ["A1", "A2", "A2", "A1"]
    assert verify_protocol(tree, bell2).ok


def test_canned_protocol_unknown_name():
    with pytest.raises(UnknownProtocol):
        canned_protocol("nosuch")


# ---------------------------------------------------------------------------
# invariants


def test_sibling_permutation_invariance(six4x4):
    tree = canned_protocol("six4x4")
    meas = tree.measurement
    swapped = Node(ProjectiveMeasurement(meas.party, meas.projectors[::-1]),
                   tree.children[::-1])
    def signature(t):
        return sorted((r.branch.leaf_label or "", tuple(np.round(r.probabilities, 12)))
                      for r in run_protocol(t, six4x4))
    assert signature(tree) == signature(swapped)


def test_branch_operators_are_projectors_for_refining_trees(six4x4, bell2):
    for tree, dims in [(canned_protocol("six4x4"), (4, 4)),
                       (canned_protocol("bell2-x"), (2, 2))]:
        assert all(b.is_projector(1e-12) for b in enumerate_branches(tree, dims))
    rng = np.random.default_rng(3)
    e = L.random_ensemble(2, 3, 3, seed=1)
    for _ in range(25):
        tree = random_tree(rng, (2, 3), e.labels, depth=3, commuting=True)
        assert all(b.is_projector(1e-9) for b in enumerate_branches(tree, (2, 3)))


def test_random_trees_complete_and_conserve_probability():
    rng = np.random.default_rng(17)
    for k in range(40):
        dims = [(2, 2), (2, 3), (3, 3)][k % 3]
        e = L.random_ensemble(dims[0], dims[1], min(4, dims[0] * dims[1]),
                              seed=100 + k, kind="haar-orthogonal")
        tree = random_tree(rng, dims, e.labels, depth=3)
        assert completeness_check(enumerate_branches(tree, dims)) <= 1e-9
        records = run_protocol(tree, e)
        totals = sum(r.probabilities for r in records)
        assert np.abs(totals - 1.0).max() <= 1e-9


def _reference_verification(tree, e, tol=1e-9):
    """verify_protocol's checks written out from run_protocol's records, with
    each probability recomputed state by state from the leaf's branch."""
    records = run_protocol(tree, e, tol=tol)
    failures, totals = [], {lbl: 0.0 for lbl in e.labels}
    deviation = completeness_check([r.branch for r in records])
    if not deviation <= tol:
        failures.append(f"branch elements do not resolve the identity (deviation {deviation:.3g})")
    for r in records:
        b = r.branch
        probs = np.array([np.linalg.norm(b.op_a @ s.amplitudes @ b.op_b.T) ** 2
                          for s in e.states])
        probs[probs <= tol] = 0.0
        assert np.array_equal(probs, r.probabilities)
        for post, p, s in zip(r.post_states, probs, e.states):
            assert (post is None) == (p == 0.0)
            if post is not None:
                mat = b.op_a @ s.amplitudes @ b.op_b.T
                assert np.allclose(post.amplitudes, mat / np.linalg.norm(mat), atol=1e-13)
        reached = [lbl for lbl, p in zip(e.labels, probs) if p > tol]
        where = L.protocol.format_path(b.path)
        if b.leaf_label is None:
            if reached:
                failures.append(f"leaf {where}: fail leaf reached by {reached}")
            continue
        if b.leaf_label not in e.labels:
            failures.append(f"leaf {where}: unknown label {b.leaf_label!r}")
            continue
        totals[b.leaf_label] += probs[e.labels.index(b.leaf_label)]
        extra = [lbl for lbl in reached if lbl != b.leaf_label]
        if extra:
            failures.append(f"leaf {where}: labeled {b.leaf_label!r} but also reached by {extra}")
    for lbl, total in totals.items():
        if not abs(total - 1.0) <= tol:
            failures.append(f"state {lbl!r} is identified with total probability {total:.12g}")
    return failures, totals


def _masked(text):
    # numbers in failure messages are compared through the totals instead
    return re.sub(r"-?\d+\.\d+(e[-+]\d+)?", "#", text)


def test_verify_protocol_agrees_with_run_protocol_reference():
    rng = np.random.default_rng(29)
    # "a" reaches Alice's |1> outcome with probability 4e-10, which is floored
    tiny = make_ensemble([make_state(2, 2, [[1, 0], [0, 2e-5]], name="a"),
                          make_state(2, 2, [[2e-5, 0], [0, -1]], name="b")])
    cases = [(canned_protocol("six4x4"), L.canned_example("six4x4")),
             (canned_protocol("bell2-x"), L.canned_example("bell2")),
             (alice_z_tree(["a", "b"]), tiny), (zz_tree([["a", None], [None, "b"]]), tiny)]
    for k in range(60):
        dims = [(2, 2), (2, 3), (3, 3), (3, 4)][k % 4]
        kind = ("haar-orthogonal", "product-basis")[k % 2]
        e = L.random_ensemble(dims[0], dims[1], min(4, dims[0] * dims[1]), seed=300 + k,
                              kind=kind)
        labels = list(e.labels) + ["stranger"] * (k % 5 == 0)
        cases.append((random_tree(rng, dims, labels, depth=3, commuting=k % 3 == 0), e))
        found = L.search_protocol(e).protocol
        if found is not None:
            cases.append((found, e))
    oks = set()
    for tree, e in cases:
        report = verify_protocol(tree, e)
        failures, totals = _reference_verification(tree, e)
        assert report.ok == (not failures)
        assert [_masked(f) for f in report.failures] == [_masked(f) for f in failures]
        assert report.state_totals.keys() == totals.keys()
        for lbl, total in totals.items():
            assert report.state_totals[lbl] == pytest.approx(total, abs=1e-12)
        oks.add(report.ok)
    assert oks == {True, False}


# ---------------------------------------------------------------------------
# agreement with the per-leaf protocol layer
#
# The functions below are the per-leaf implementation the stacked protocol
# layer replaced: one ``q @ q^+`` per visit, one ``op_a @ stack @ op_b.T``
# and one ``np.kron`` per leaf.  The stacked layer must reproduce them bit
# for bit.


def _per_leaf_branches(tree, dims):
    out = []

    def walk(node, op_a, op_b, path):
        if isinstance(node, Leaf):
            out.append(L.BranchOperator(op_a, op_b, node.identify, path))
            return
        meas = node.measurement
        L.protocol._check_node_dims(meas, dims)
        for k, q in enumerate(meas.projectors):
            p = q @ q.conj().T
            if meas.party == ALICE:
                walk(node.children[k], p @ op_a, op_b, path + ((ALICE, k),))
            else:
                walk(node.children[k], op_a, p @ op_b, path + ((BOB, k),))

    walk(tree, np.eye(dims[0], dtype=complex), np.eye(dims[1], dtype=complex), ())
    return out


def _per_leaf_completeness(branches):
    da, db = branches[0].op_a.shape[0], branches[0].op_b.shape[0]
    total = np.zeros((da * db, da * db), dtype=complex)
    for b in branches:
        total += np.kron(b.op_a.conj().T @ b.op_a, b.op_b.conj().T @ b.op_b)
    return float(np.abs(total - np.eye(da * db)).max())


def _per_leaf_arrivals(tree, e, tol):
    for b in _per_leaf_branches(tree, e.dims):
        mats = b.op_a @ e.amplitudes @ b.op_b.T
        probs = np.float_power(L.states.frobenius_norms(mats), 2)
        probs[probs <= tol] = 0.0
        yield b, mats, probs


def _per_leaf_run(tree, e, tol):
    return [(b, probs, [make_state(e.dim_a, e.dim_b, m, name=s.name) if p > 0.0 else None
                        for m, p, s in zip(mats, probs, e.states)])
            for b, mats, probs in _per_leaf_arrivals(tree, e, tol)]


def _per_leaf_verify(tree, e, tol):
    arrivals = [(b, probs) for b, _, probs in _per_leaf_arrivals(tree, e, tol)]
    deviation = _per_leaf_completeness([b for b, _ in arrivals])
    failures = []
    if not deviation <= tol:
        failures.append(f"branch elements do not resolve the identity (deviation {deviation:.3g})")
    totals = {lbl: 0.0 for lbl in e.labels}
    rows = []
    for branch, leaf_probs in arrivals:
        probs = {lbl: float(p) for lbl, p in zip(e.labels, leaf_probs)}
        reached = [lbl for lbl, p in probs.items() if p > tol]
        rows.append((branch.path, branch.leaf_label, probs))
        where = L.protocol.format_path(branch.path)
        if branch.leaf_label is None:
            if reached:
                failures.append(f"leaf {where}: fail leaf reached by {reached}")
            continue
        if branch.leaf_label not in e.labels:
            failures.append(f"leaf {where}: unknown label {branch.leaf_label!r}")
            continue
        totals[branch.leaf_label] += probs[branch.leaf_label]
        extra = [lbl for lbl in reached if lbl != branch.leaf_label]
        if extra:
            failures.append(f"leaf {where}: labeled {branch.leaf_label!r} "
                            f"but also reached by {extra}")
    for lbl, total in totals.items():
        if not abs(total - 1.0) <= tol:
            failures.append(f"state {lbl!r} is identified with total probability {total:.12g}")
    return not failures, deviation, totals, tuple(rows), tuple(failures)


def _full_tree(rng, dims, labels, depth):
    # every node a rank-one Haar basis of alternating parties: dims[p] ** depth leaves
    def build(level):
        party = (ALICE, BOB)[level % 2]
        u = L.ensemble.haar_unitary(dims[level % 2], rng)
        meas = ProjectiveMeasurement(party, tuple(u[:, [i]] for i in range(u.shape[1])))
        kids = tuple(build(level + 1) if level + 1 < depth
                     else Leaf(labels[int(rng.integers(len(labels)))])
                     for _ in range(u.shape[1]))
        return Node(meas, kids)
    return build(0)


def _agreement_cases():
    rng = np.random.default_rng(41)
    tiny = make_ensemble([make_state(2, 2, [[1, 0], [0, 2e-5]], name="a"),
                          make_state(2, 2, [[2e-5, 0], [0, -1]], name="b")])
    six, bell2 = L.canned_example("six4x4"), L.canned_example("bell2")
    cases = [(canned_protocol("six4x4"), six), (canned_protocol("bell2-x"), bell2),
             (zz_tree([["A1", "A2"], ["A1", "A2"]]), bell2),
             (alice_z_tree(["a", "b"]), tiny), (zz_tree([["a", None], [None, "b"]]), tiny),
             (Leaf("psi1"), six), (Leaf(None), bell2)]
    e33 = L.random_ensemble(3, 3, 4, seed=5, kind="haar-orthogonal")
    big = _full_tree(rng, (3, 3), list(e33.labels) + [None], depth=4)
    assert len(enumerate_branches(big, (3, 3))) > L.protocol._LEAF_CHUNK
    cases.append((big, e33))
    for k in range(200):
        dims = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 2)][k % 5]
        kind = ("haar-orthogonal", "product-basis")[k % 2]
        e = L.random_ensemble(dims[0], dims[1], min(4, dims[0] * dims[1]), seed=500 + k,
                              kind=kind)
        labels = list(e.labels) + ["stranger"] * (k % 4 == 0)
        cases.append((random_tree(rng, dims, labels, depth=3 + k % 2,
                                  commuting=k % 3 == 0), e))
    return cases


def test_stacked_protocol_layer_matches_per_leaf_reference():
    oks = set()
    for tree, e in _agreement_cases():
        ref = _per_leaf_branches(tree, e.dims)
        got = enumerate_branches(tree, e.dims)
        assert [(b.leaf_label, b.path) for b in got] == [(b.leaf_label, b.path) for b in ref]
        for b, r in zip(got, ref):
            assert np.array_equal(b.op_a, r.op_a) and np.array_equal(b.op_b, r.op_b)
        assert completeness_check(got) == _per_leaf_completeness(ref)

        report = verify_protocol(tree, e)
        ok, deviation, totals, rows, failures = _per_leaf_verify(tree, e, 1e-9)
        assert report.ok == ok
        assert report.completeness_deviation == deviation
        assert report.state_totals == totals
        assert report.leaves == rows
        assert report.failures == failures
        oks.add(ok)

        records = run_protocol(tree, e)
        reference = _per_leaf_run(tree, e, 1e-9)
        assert len(records) == len(reference)
        for rec, (b, probs, posts) in zip(records, reference):
            assert rec.branch.path == b.path and rec.branch.leaf_label == b.leaf_label
            assert np.array_equal(rec.probabilities, probs)
            for post, ref_post in zip(rec.post_states, posts):
                assert (post is None) == (ref_post is None)
                if post is not None:
                    assert post.name == ref_post.name
                    assert np.array_equal(post.amplitudes, ref_post.amplitudes)
    assert oks == {True, False}


def test_projector_stack_is_cached_read_only_and_copied_out():
    meas = canned_protocol("six4x4").measurement
    stack = meas.projector_stack
    assert stack.shape == (2, 4, 4) and not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 5.0
    mats = meas.projector_matrices()
    assert all(np.array_equal(m, q @ q.conj().T) for m, q in zip(mats, meas.projectors))
    mats[0][0, 0] = 5.0
    assert stack[0, 0, 0] == 1.0
    assert all(m.flags.writeable for m in meas.projector_matrices())
    assert meas.projector_matrices()[0][0, 0] == 1.0
