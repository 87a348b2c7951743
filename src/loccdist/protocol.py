"""Protocol trees of local projective measurements with classical communication.

A protocol is a finite tree.  Each internal node holds a complete orthogonal
projective measurement performed by one party; the node has one child per
outcome, and descending into a child models the classical broadcast of that
outcome.  Leaves either announce an ensemble member (identify) or mark a dead
branch (fail).  Running a tree on an ensemble accumulates, per root-to-leaf
branch, the ordered product of the projectors each party applied; the
positive operator built from that product is the branch's measurement
element, and the elements of all branches resolve the identity.

The layer works on stacks.  A measurement holds one read-only copy of all
its blocks' columns, each block a slice of it, and its outcome projectors
as one read-only ``(k, d, d)`` array, built at construction (one batched
product when every block is one column).  One walk of the tree multiplies
each node's stack into the operator its party has accumulated, which
gives ``(L, dim_a, dim_a)`` and ``(L, dim_b, dim_b)`` branch stacks for
the ``L`` leaves in depth-first order.  The arrival of every state at
every leaf, and the completeness sum of the branch elements, come from
batched products over those stacks, taken ``_LEAF_CHUNK`` leaves at a
time so that memory does not grow with the tree.  Every product is the
one a leaf-by-leaf computation would make, and the completeness terms are
added in leaf order, so the results agree with it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .ensemble import Ensemble
from .errors import (
    DimensionMismatch,
    MalformedTree,
    NotUnitary,
    UnknownProtocol,
)
from .states import DEFAULT_TOL, _check_tolerance, _frozen, frobenius_norms, make_state

ALICE = "A"
BOB = "B"
PARTIES = (ALICE, BOB)

#: leaves whose arrivals and completeness terms are formed in one product
_LEAF_CHUNK = 64


def _check_party(party) -> None:
    if party not in PARTIES:
        raise MalformedTree(f"party must be one of {PARTIES}, got {party!r}")


def _local_dim(dims, party: str) -> int:
    """``party``'s local dimension in a space of ``(dim_a, dim_b)`` ``dims``."""
    return dims[0] if party == ALICE else dims[1]


@lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    """The read-only complex identity of dimension ``n``."""
    return _frozen(np.eye(n))


def _as_columns(block) -> np.ndarray:
    q = np.asarray(block, dtype=np.complex128)
    if q.ndim == 1:
        q = q[:, np.newaxis]
    if q.ndim != 2 or 0 in q.shape:
        raise NotUnitary("each projector must be a nonempty matrix of columns")
    return q


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Complete orthogonal projective measurement of one party's local space.

    Each outcome subspace is given as a matrix of orthonormal columns; the
    subspaces must be mutually orthogonal and their column counts must sum to
    the local dimension, so the outcome projectors resolve the identity.
    ``projector_stack`` holds the outcome projectors ``Q Q^+`` as one
    read-only ``(outcomes, d, d)`` array, built once at construction.  The
    columns of all blocks (a matrix, or a single vector as one column) are
    copied once into one read-only array, whose slices are the blocks of
    ``projectors``; one Gram product of them validates them all.  Block
    ``k``'s projector is the product of its columns with their adjoint
    rows: one batched product when every block is one column, else one
    product per block, whose sums a batched product would round otherwise.
    """

    party: str
    projectors: tuple[np.ndarray, ...]
    tol: float = DEFAULT_TOL
    projector_stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_party(self.party)
        if not self.projectors:
            raise NotUnitary("a measurement needs at least one outcome")
        blocks = [_as_columns(q) for q in self.projectors]
        dim = blocks[0].shape[0]
        # one Gram product of the columns of every block up to the first one
        # on another space checks them all; block maxima name the first fault
        fit = next((k for k, q in enumerate(blocks) if q.shape[0] != dim), len(blocks))
        offsets = list(accumulate((q.shape[1] for q in blocks[:fit]), initial=0))
        columns = np.concatenate(blocks[:fit], axis=1)  # a copy, whatever the caller holds
        columns.setflags(write=False)
        adjoint = columns.conj().T
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries give deviation inf
            dev = np.abs(adjoint @ columns - _identity(columns.shape[1]))
        if not dev.max() <= self.tol or fit < len(blocks):  # "not <=" also fails on NaN
            starts = offsets[:-1]
            peak = np.maximum.reduceat(np.maximum.reduceat(dev, starts, axis=0), starts, axis=1)
            for k in range(fit):
                if not peak[k, k] <= self.tol:
                    raise NotUnitary(f"outcome {k}: projector columns not orthonormal "
                                     f"(deviation {peak[k, k]:.3g})")
            if fit < len(blocks):
                raise NotUnitary("all projectors must act on the same local space")
            for i, j in zip(*np.triu_indices(fit, 1)):
                if not peak[i, j] <= self.tol:
                    raise NotUnitary(
                        f"outcomes {i} and {j} are not orthogonal (overlap {peak[i, j]:.3g})"
                    )
        if columns.shape[1] != dim:
            raise NotUnitary(f"projector ranks sum to {columns.shape[1]}, "
                             f"expected the local dimension {dim}")
        object.__setattr__(self, "projectors", tuple(
            columns[:, start:stop] for start, stop in zip(offsets, offsets[1:])))
        if len(blocks) == dim:  # one column each
            stack = np.matmul(columns.T[:, :, np.newaxis], adjoint[:, np.newaxis])
        else:
            stack = np.empty((len(blocks), dim, dim), dtype=np.complex128)
            for q, start, out in zip(self.projectors, offsets, stack):
                np.matmul(q, adjoint[start:start + q.shape[1]], out=out)
        stack.setflags(write=False)
        object.__setattr__(self, "projector_stack", stack)

    @property
    def local_dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def outcomes(self) -> int:
        return len(self.projectors)

    def projector_matrices(self) -> list[np.ndarray]:
        """Fresh, writable copies of the outcome projectors."""
        return list(self.projector_stack.copy())


@dataclass(frozen=True, eq=False)
class Leaf:
    """Terminal node: identify a state by label, or fail (identify=None)."""

    identify: str | None = None

    @property
    def is_fail(self) -> bool:
        return self.identify is None


@dataclass(frozen=True, eq=False)
class Node:
    """Internal node: one measurement, one child per outcome."""

    measurement: ProjectiveMeasurement
    children: tuple

    def __post_init__(self):
        children = tuple(self.children)
        if len(children) != self.measurement.outcomes:
            raise MalformedTree(
                f"{self.measurement.outcomes} outcomes but {len(children)} children"
            )
        for c in children:
            if not isinstance(c, (Leaf, Node)):
                raise MalformedTree(f"child of unexpected type {type(c).__name__}")
        object.__setattr__(self, "children", children)


#: a protocol tree is either a Leaf or a Node
ProtocolTree = Leaf | Node


def tree_depth(tree: ProtocolTree) -> int:
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(tree_depth(c) for c in tree.children)


@dataclass(frozen=True, eq=False)
class BranchOperator:
    """Accumulated per-party operator products along one root-to-leaf branch.

    For protocols whose later measurements refine earlier ones (all canned
    protocols and everything this package constructs), ``op_a`` and ``op_b``
    are orthogonal projectors.
    """

    op_a: np.ndarray
    op_b: np.ndarray
    leaf_label: str | None
    path: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "op_a", _frozen(self.op_a))
        object.__setattr__(self, "op_b", _frozen(self.op_b))

    def is_projector(self, tol: float = DEFAULT_TOL) -> bool:
        """Whether both accumulated operators satisfy P @ P = P = P^dagger."""
        for op in (self.op_a, self.op_b):
            # "not <=" so that a NaN entry fails
            if not (np.abs(op @ op - op).max() <= tol and np.abs(op - op.conj().T).max() <= tol):
                return False
        return True


def _check_node_dims(meas: ProjectiveMeasurement, dims) -> None:
    expected = _local_dim(dims, meas.party)
    if meas.local_dim != expected:
        raise MalformedTree(
            f"party {meas.party} measurement acts on dim {meas.local_dim}, "
            f"expected {expected}"
        )


def _branch_stacks(tree: ProtocolTree, dims):
    """Every leaf's accumulated operators as ``(L, dim_a, dim_a)`` and
    ``(L, dim_b, dim_b)`` stacks, with the leaf labels and paths, in
    depth-first order.  Each node multiplies its projector stack into the
    operator its party has accumulated in one product, ``stack @ op``."""
    leaves = []

    def walk(node, op_a, op_b, path):
        if isinstance(node, Leaf):
            leaves.append((op_a, op_b, node.identify, path))
            return
        meas = node.measurement
        _check_node_dims(meas, dims)
        if meas.party == ALICE:
            for k, (child, op) in enumerate(zip(node.children, meas.projector_stack @ op_a)):
                walk(child, op, op_b, path + ((ALICE, k),))
        else:
            for k, (child, op) in enumerate(zip(node.children, meas.projector_stack @ op_b)):
                walk(child, op_a, op, path + ((BOB, k),))

    walk(tree, _identity(dims[0]), _identity(dims[1]), ())
    ops_a, ops_b, labels, paths = zip(*leaves)
    return np.array(ops_a), np.array(ops_b), list(labels), list(paths)


def enumerate_branches(tree: ProtocolTree, dims) -> list[BranchOperator]:
    """One BranchOperator per leaf, in depth-first path order."""
    return [BranchOperator(*leaf) for leaf in zip(*_branch_stacks(tree, dims))]


def _completeness_deviation(ops_a: np.ndarray, ops_b: np.ndarray) -> float:
    """Max-magnitude entry of ``sum_l kron(A_l^+ A_l, B_l^+ B_l) - identity``
    over ``(L, da, da)`` and ``(L, db, db)`` branch stacks.  The Gram
    products and Kronecker products of ``_LEAF_CHUNK`` leaves come from one
    batched product and one broadcast multiply, and the terms are summed one
    leaf after the other from the first, as a running ``+=`` from zero would
    up to the sign of zero entries, which ``abs`` drops."""
    n = ops_a.shape[-1] * ops_b.shape[-1]
    total = None
    for i in range(0, len(ops_a), _LEAF_CHUNK):
        a, b = ops_a[i:i + _LEAF_CHUNK], ops_b[i:i + _LEAF_CHUNK]
        gram_a = a.conj().transpose(0, 2, 1) @ a
        gram_b = b.conj().transpose(0, 2, 1) @ b
        krons = (gram_a[:, :, None, :, None] * gram_b[:, None, :, None, :]).reshape(-1, n, n)
        # a reduction over the outer axis adds the rows in order
        terms = krons if total is None else np.concatenate((total, krons))
        total = np.add.reduce(terms, axis=0, keepdims=True)
    return float(np.abs(total[0] - _identity(n)).max())


def completeness_check(branches) -> float:
    """Max-magnitude entry of (sum of branch elements - identity).

    The element of a branch is ``kron(op_a^+ op_a, op_b^+ op_b)``.
    """
    branches = list(branches)
    if not branches:
        raise MalformedTree("no branches to check")
    return _completeness_deviation(np.array([b.op_a for b in branches]),
                                   np.array([b.op_b for b in branches]))


@dataclass(frozen=True, eq=False)
class OutcomeRecord:
    """Per-leaf arrival data: probabilities and renormalized post-states.

    ``probabilities`` follows the ensemble's state order; ``post_states``
    holds None where the arrival probability is at or below tolerance.
    """

    branch: BranchOperator
    probabilities: np.ndarray
    post_states: tuple

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float).copy()
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "post_states", tuple(self.post_states))


def _ensemble_branches(tree: ProtocolTree, e: Ensemble):
    try:
        return _branch_stacks(tree, e.dims)
    except MalformedTree as exc:
        raise DimensionMismatch(str(exc)) from exc


def _arrivals(ops_a: np.ndarray, ops_b: np.ndarray, e: Ensemble, tol: float, i: int):
    """For the ``c`` leaves of the chunk that starts at leaf ``i``: the
    post-measurement stack ``(c, m, dim_a, dim_b)``, one product ``(A_l @ C)
    @ B_l^T`` for every leaf and state, and the ``(c, m)`` probabilities from
    one batched norm; probabilities at or below ``tol`` are floored to
    exactly zero.  Chunks of ``_LEAF_CHUNK`` leaves bound the memory
    whatever the leaf count."""
    a, b = ops_a[i:i + _LEAF_CHUNK, None], ops_b[i:i + _LEAF_CHUNK, None]
    mats = (a @ e.amplitudes) @ b.transpose(0, 1, 3, 2)
    probs = np.float_power(frobenius_norms(mats), 2)  # pow, as norm ** 2 of one float
    probs[probs <= tol] = 0.0
    return mats, probs


def run_protocol(tree: ProtocolTree, e: Ensemble, tol: float = DEFAULT_TOL):
    """Propagate every ensemble member through the tree.

    Returns one OutcomeRecord per leaf in depth-first order; a state's
    post-measurement matrix at a leaf is ``op_a @ C @ op_b.T`` of the leaf's
    branch, and probabilities below ``tol`` are floored to exactly zero.
    Raises ``DimensionMismatch`` when a measurement does not fit the ensemble,
    and ``ValueError`` unless ``tol`` is a finite number > 0.
    """
    _check_tolerance(tol)
    ops_a, ops_b, leaf_labels, paths = _ensemble_branches(tree, e)
    leaves = zip(ops_a, ops_b, leaf_labels, paths)
    return [OutcomeRecord(BranchOperator(*leaf), probs, tuple(
                make_state(e.dim_a, e.dim_b, m, name=s.name) if p > 0.0 else None
                for m, p, s in zip(leaf_mats, probs, e.states)))
            for i in range(0, len(ops_a), _LEAF_CHUNK)
            for leaf_mats, probs, leaf in zip(*_arrivals(ops_a, ops_b, e, tol, i), leaves)]


def format_path(path) -> str:
    return "/".join(f"{party}:{k}" for party, k in path) or "(root)"


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of checking a protocol against an ensemble.

    Success requires (a) the branch elements to resolve the identity within
    tolerance, (b) every leaf with any arrival to identify exactly the single
    state arriving there, and (c) every state to reach leaves labeled with it
    with total probability 1.
    """

    ok: bool
    completeness_deviation: float
    state_totals: dict
    leaves: tuple
    failures: tuple
    tolerance: float = DEFAULT_TOL


def verify_protocol(tree: ProtocolTree, e: Ensemble, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check ``tree`` against ``e`` within ``tol`` (finite and > 0, else
    ``ValueError``); see ``VerificationReport`` for what must hold."""
    _check_tolerance(tol)
    ops_a, ops_b, leaf_labels, paths = _ensemble_branches(tree, e)
    arrivals = [row for i in range(0, len(ops_a), _LEAF_CHUNK)
                for row in _arrivals(ops_a, ops_b, e, tol, i)[1].tolist()]
    deviation = _completeness_deviation(ops_a, ops_b)
    failures = []
    if not deviation <= tol:  # also fails on NaN
        failures.append(f"branch elements do not resolve the identity (deviation {deviation:.3g})")

    labels = e.labels
    totals = {lbl: 0.0 for lbl in labels}
    rows = []
    for path, leaf_label, leaf_probs in zip(paths, leaf_labels, arrivals):
        probs = dict(zip(labels, leaf_probs))
        reached = [lbl for lbl, p in zip(labels, leaf_probs) if p > tol]
        rows.append((path, leaf_label, probs))
        if leaf_label is None:
            problem = f"fail leaf reached by {reached}" if reached else None
        elif leaf_label not in labels:
            problem = f"unknown label {leaf_label!r}"
        else:
            totals[leaf_label] += probs[leaf_label]
            extra = [lbl for lbl in reached if lbl != leaf_label]
            problem = f"labeled {leaf_label!r} but also reached by {extra}" if extra else None
        if problem:
            failures.append(f"leaf {format_path(path)}: {problem}")
    for lbl, total in totals.items():
        if not abs(total - 1.0) <= tol:
            failures.append(f"state {lbl!r} is identified with total probability {total:.12g}")

    return VerificationReport(
        ok=not failures,
        completeness_deviation=deviation,
        state_totals=totals,
        leaves=tuple(rows),
        failures=tuple(failures),
        tolerance=tol,
    )


def canned_protocol(name: str) -> ProtocolTree:
    """Named example protocols: "six4x4" and "bell2-x".

    "six4x4" pairs with the six-state 4x4 example ensemble: Alice first
    splits {0,1} vs {2,3}; inside the first block Alice refines to {|0>,|1>}
    and Bob finishes in the computational or +/- basis per branch; the second
    block mirrors this with the parties swapped.  Outcome subspaces no state
    can reach carry fail leaves.  "bell2-x" distinguishes the first two Bell
    states by X-basis measurements on both sides.
    """
    s2 = 1.0 / np.sqrt(2.0)
    if name == "six4x4":
        eye = _identity(4)

        def block(first, second, i, j, rest, labels):
            l1, l2, l3 = labels
            split = (eye[:, [i]], eye[:, [j]], eye[:, rest])
            plus, minus = (eye[:, i] + eye[:, j]) * s2, (eye[:, i] - eye[:, j]) * s2
            return Node(ProjectiveMeasurement(first, split), (
                Node(ProjectiveMeasurement(second, split), (Leaf(l1), Leaf(l3), Leaf(None))),
                Node(ProjectiveMeasurement(second, (plus, minus, eye[:, rest])),
                     (Leaf(l2), Leaf(l3), Leaf(None))),
                Leaf(None)))

        return Node(ProjectiveMeasurement(ALICE, (eye[:, [0, 1]], eye[:, [2, 3]])), (
            block(ALICE, BOB, 0, 1, [2, 3], ("psi1", "psi2", "psi3")),
            block(BOB, ALICE, 2, 3, [0, 1], ("psi4", "psi5", "psi6"))))

    if name == "bell2-x":
        plus = np.array([s2, s2])
        minus = np.array([s2, -s2])
        bob_x = ProjectiveMeasurement(BOB, (plus, minus))
        under_plus = Node(bob_x, (Leaf("A1"), Leaf("A2")))
        under_minus = Node(bob_x, (Leaf("A2"), Leaf("A1")))
        return Node(ProjectiveMeasurement(ALICE, (plus, minus)),
                    (under_plus, under_minus))

    raise UnknownProtocol(f"unknown protocol {name!r}; known: six4x4, bell2-x")
