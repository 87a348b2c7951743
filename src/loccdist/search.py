"""Bounded synthesis of projective discrimination protocols.

Depth-first search in which every node tries the candidate measurements
that ``_candidates`` generates for each party, cheap tiers first: Alice's
cheap tiers, then Bob's, then Alice's costly tier, then Bob's.  A
number counts as zero when its magnitude is within the tolerance ``tol``
(``SearchConfig.tolerance``); a rank counts the singular values, or
eigenvalue magnitudes, above ``RANK_CUTOFF`` times the largest.  Every node
is first offered the one-round Schmidt closure: when one party's cross
operators are all within ``tol``, the other party's local supports are
pairwise orthogonal, and the completion of its Schmidt vectors identifies
every state in one round (Bob's is offered when Alice's are, else Alice's
when Bob's are).  A candidate is admitted only if every outcome keeps the
surviving states pairwise orthogonal (every cross operator's per-outcome
diagonal within ``tol``), as reliable discrimination requires.  The search
is sound -- every returned protocol is re-verified -- but incomplete: an
exhausted search yields Unknown.

Every node works array-at-a-time.  It holds its states as one
``(m, dim_a, dim_b)`` amplitude stack with their labels and Schmidt ranks,
and each party's cross operators, for all pairs.  Nodes are closed in
batches, the root as a batch of one and the children of an admitted
candidate together, in one pass: one gather of the batch's state pairs and
one product per party give every node's cross operators, and for the nodes
offered the closure, one Gram product of their Schmidt vectors picks every
completion's vectors and one ``qr`` completes them all, the projected norms
alone give each outcome's reach, and one ``argmax`` names the state at every
leaf.  A node the closure does not end is searched with its cross
operators from that pass.  Candidates are generated tier by tier, only as
far as the search asks, and tried in build order.  A qubit's one tier, its
qubit-plane bases, is cheap; a larger party's standard tier is cheap and its
zero-diagonal tier costly.  The beam counts a party's candidates at a node
across both classes, and is checked before a tier is built, so no tier is
built once it is spent.  Each tier is one stack of outcome projectors,
which gives admissibility in one product ``vec(P) . vec(M^T)`` on the whole
stack, against the acting party's cross operators alone.  The zero-diagonal
tier takes each distinct part once and is pruned part by part before it is
built: each basis holds the vector its part retires first, and a basis
holding an inadmissible vector is itself inadmissible, so one ``_admits``
call on those vectors decides which parts' bases are built, one at a time.
An admitted candidate is applied to the whole stack at once: one batched
norm gives every survivor's mass, and a candidate that keeps states in
fewer than two outcomes is rejected from those alone; otherwise the
survivors are renormalised and one batched Gram product checks that each
outcome's survivors stay orthogonal.  Its children (the outcomes that keep
two or more states) are packed into one stack, whose one ``svd`` gives
their Schmidt ranks and Schmidt vectors, and are closed as one batch; the
root's ``svd`` is taken only when it is offered the closure.  Only the
candidate that enters the tree becomes a ``ProjectiveMeasurement``; no
node builds states or ensembles.  A measurement is fixed by its projectors
``|c><c|``, which do not depend on a column's phase, so every basis enters
the tree with its columns as they were built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain
from numbers import Integral

import numpy as np

from .ensemble import (
    PROVED_NO,
    UNKNOWN,
    YES,
    Ensemble,
    SearchOutcome,
    make_ensemble,
    overlaps,
    schmidt_sum_check,
)
from .errors import DimensionMismatch, EmptyOutcome
from .protocol import (
    ALICE,
    BOB,
    Leaf,
    Node,
    ProjectiveMeasurement,
    ProtocolTree,
    _as_columns,
    _check_party,
    _identity,
    _local_dim,
    verify_protocol,
)
from .states import (
    DEFAULT_TOL,
    RANK_CUTOFF,
    BipartiteState,
    _check_orthonormal,
    _check_tolerance,
    frobenius_norms,
    rank_counts,
    unit_norm_slack,
)

_PRODUCT_ENTRIES = 1 << 14
#: coefficients of a flattened 2x2 matrix on (sigma_x, sigma_y, sigma_z)
_PAULI = np.array([[0, 0, 0.5], [0.5, 0.5j, 0], [0.5, -0.5j, 0], [0, 0, -0.5]])
#: the order of ``dfs``'s ``_candidates`` classes: cheap (0), then costly (1)
_SCHEDULE = ((ALICE, 0), (BOB, 0), (ALICE, 1), (BOB, 1))


@dataclass(frozen=True)
class SearchConfig:
    """Bounds of the protocol search.

    ``max_depth`` (an integer >= 1) caps the rounds of measurement on any
    branch, ``tolerance`` (finite and > 0) is used by every numerical check,
    and ``beam_limit`` (an integer >= 1) caps the candidates one party tries
    at one node, counted across its cheap and costly tiers.
    """

    max_depth: int = 6
    tolerance: float = DEFAULT_TOL
    beam_limit: int = 64

    def __post_init__(self):
        _check_tolerance(self.tolerance)
        for name in ("max_depth", "beam_limit"):
            bound = getattr(self, name)
            if isinstance(bound, bool) or not isinstance(bound, Integral) or bound < 1:
                raise ValueError(f"{name} must be an integer >= 1")
            object.__setattr__(self, name, int(bound))  # a numpy integer is not JSON


#: the bounds of a search given no ``SearchConfig``
_DEFAULT_CONFIG = SearchConfig()


@cache
def _pairs(m: int):
    """Both indices of every pair j < l of ``m`` states, in
    ``itertools.combinations`` order, as read-only arrays ``(j, l)``."""
    k = np.arange(m)
    pairs = np.nonzero(k[:, np.newaxis] < k)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def _cross(stack: np.ndarray, *parties: str) -> dict:
    # every pair j < l of a (..., m, dim_a, dim_b) amplitude stack, gathered
    # once, in one product per party, (..., pairs, d, d); a zero-padded slot
    # gives zero operators
    j, l = _pairs(stack.shape[-3])
    later, earlier = stack[..., l, :, :], stack[..., j, :, :].conj()
    return {party: later @ earlier.swapaxes(-1, -2) if party == ALICE
            else later.swapaxes(-1, -2) @ earlier for party in parties}


def cross_operators(e: Ensemble, party: str) -> np.ndarray:
    """One party's side of every pairwise cross operator, stacked as ``(P, d, d)``.

    Entry ``p`` belongs to the p-th pair ``j < l`` in ``itertools.combinations``
    order.  For states with amplitude matrices ``C_j``, ``C_l`` the Alice side
    is ``C_l @ C_j^+`` and the Bob side is ``C_l^T @ conj(C_j)``, so that
    ``<Psi_j|(P (x) I)|Psi_l> = trace(P @ alice_side)`` and
    ``<Psi_j|(I (x) P)|Psi_l> = trace(P @ bob_side)``.  The trace of either
    side is the plain overlap, hence zero for ensemble members.  A single
    state has no pairs: the result then has shape ``(0, d, d)``.  A party
    other than ``"A"`` or ``"B"`` raises ``MalformedTree``.
    """
    _check_party(party)
    return _cross(e.amplitudes, party)[party]


def _admits(projs: np.ndarray, sides: np.ndarray, tol: float) -> np.ndarray:
    """Per projector of a ``(..., n, d, d)`` stack: whether ``tr(P M)``
    vanishes within ``tol`` for every cross operator ``M`` of the matching
    ``(..., pairs, d, d)`` stack, from products ``vec(P) . vec(M^T)`` taken
    ``_PRODUCT_ENTRIES`` at a time, which bounds their memory however many
    pairs there are."""
    d = projs.shape[-1]
    flat = sides.swapaxes(-1, -2).reshape(*sides.shape[:-3], -1, d * d).swapaxes(-1, -2)
    rows = projs.reshape(*projs.shape[:-3], -1, d * d)
    step = max(1, _PRODUCT_ENTRIES // max(1, flat.size // (d * d)))
    if step >= rows.shape[-2]:
        return (np.abs(rows @ flat) <= tol).all(axis=-1)
    return np.concatenate([(np.abs(rows[..., i:i + step, :] @ flat) <= tol).all(axis=-1)
                           for i in range(0, rows.shape[-2], step)], axis=-1)


def valid_measurement(e: Ensemble, meas: ProjectiveMeasurement,
                      tol: float = DEFAULT_TOL) -> bool:
    """Whether every outcome preserves pairwise orthogonality of survivors."""
    _check_tolerance(tol)
    expected = _local_dim(e.dims, meas.party)
    if meas.local_dim != expected:
        raise DimensionMismatch(
            f"measurement on dim {meas.local_dim}, ensemble side has dim {expected}")
    return bool(_admits(meas.projector_stack, cross_operators(e, meas.party), tol).all())


def _support_labels(stack: np.ndarray, party: str, tol: float) -> np.ndarray:
    """Component of every local basis index in the graph of indices coupled
    by any state's reduced density matrix, labelled by its least index."""
    if party == ALICE:
        rhos = stack @ stack.conj().transpose(0, 2, 1)
    else:
        rhos = stack.transpose(0, 2, 1) @ stack.conj()
    reach = (np.abs(rhos) > tol).any(axis=0) | np.eye(rhos.shape[-1], dtype=bool)
    for _ in range(rhos.shape[-1].bit_length()):
        reach = reach @ reach
    return reach.argmax(axis=1)


def _bloch_basis(n: np.ndarray) -> np.ndarray:
    """Orthonormal qubit basis whose first vector has Bloch vector ``n``, a
    float64 3-vector.  Plain arithmetic runs on Python floats; every
    elementary function stays a numpy ufunc, whose bits can differ from
    ``math``'s."""
    x, y, z = (n / math.sqrt(n @ n)).tolist()
    half = float(np.arccos(min(max(z, -1.0), 1.0))) / 2.0
    phi = float(np.arctan2(y, x))
    c, s = np.cos(half), np.sin(half)
    return np.array([[c, -np.exp(-1j * phi) * s], [np.exp(1j * phi) * s, c]])


def _qubit_plane_bases(side_mats, tol) -> list[np.ndarray]:
    """Exact qubit bases with zero diagonal for every cross operator at once.

    A basis vector with Bloch vector n has <w|M|w> = m . n for a traceless M
    with (complex) Pauli vector m, so the admissible n are the real unit
    vectors orthogonal to Re(m) and Im(m) of every pair: the null space of
    the stacked constraint matrix.  One basis per null direction.  A part of
    norm at most ``tol`` moves no diagonal entry past ``tol`` and constrains
    nothing; with no constraint left every basis works and the computational
    one is returned.  ``[]`` means no null direction passes the relative rank
    cutoff; that proves no ``tol``-admissible basis exists only when
    ``_no_traceless_room`` says so.
    """
    # the Pauli vector of every M_p = tr(M_p) / 2 I + m_p . sigma, as rows Re m_p, Im m_p
    parts = (np.reshape(side_mats, (-1, 4)) @ _PAULI).view(np.float64).reshape(-1, 3, 2)
    parts = parts.transpose(0, 2, 1).reshape(-1, 3)
    # the norm of every row as the product np.linalg.norm makes, bit for bit
    norms = np.sqrt(parts[:, np.newaxis] @ parts[:, :, np.newaxis])[:, 0]
    keep = norms[:, 0] > tol
    a = parts[keep] / norms[keep]
    if not len(a):
        return [np.eye(2, dtype=np.complex128)]
    _, sig, vt = np.linalg.svd(a)
    return [_bloch_basis(vt[k]) for k in range(int(rank_counts(sig)), 3)]


def _rotate(lo, hi, v_lo: np.ndarray, v_hi: np.ndarray):
    """One rotation of ``_zero_diagonal_basis``, in every row of arrays or on
    numpy scalars: the vectors of values ``lo < 0 < hi`` go to ``(retired,
    residual)``, where the retired vector has zero diagonal value and the
    residual has value ``hi + lo``."""
    theta = np.arctan(np.sqrt(hi / -lo))
    c, s = np.cos(theta)[..., np.newaxis], np.sin(theta)[..., np.newaxis]
    return c * v_hi + s * v_lo, -s * v_hi + c * v_lo


def _hermitian_parts(sides: np.ndarray, tol: float) -> np.ndarray:
    """The Hermitian part ``(M + M^+) / 2`` and the anti-Hermitian part, as
    the Hermitian ``(M - M^+) / 2i``, of every cross operator of a ``(pairs,
    d, d)`` stack, in pair order, less those with every entry within ``tol``.
    Where most operators are within ``tol`` (product bases) and the parts
    outnumber ``d^2``, only the first of each group of parts whose entries'
    real and imaginary parts round to the same multiples of ``tol / 2`` is
    kept; a dropped part may differ from it in the last bits, and so may its
    basis (``eigh`` picks a degenerate kernel's vectors).  Nothing is grouped
    elsewhere, where it costs what it saves, nor once an entry reaches
    ``1e300 tol``, where ``part / tol`` could overflow."""
    d = sides.shape[-1]
    # skip the operators within tol, whose parts are too: most, on product sets
    live = sides[np.abs(sides).max(axis=(1, 2)) > tol]
    adj = live.conj().transpose(0, 2, 1)
    parts = np.stack([(live + adj) / 2, (live - adj) / 2j], axis=1).reshape(-1, d, d)
    mags = np.abs(parts).max(axis=(1, 2))
    parts = parts[mags > tol]
    if len(parts) > d * d and 2 * len(live) < len(sides) and mags.max() < 1e300 * tol:
        keys = (np.rint(parts.view(np.float64) / (tol / 2)) + 0.0).reshape(len(parts), -1)
        first = {}  # each part's key (+0.0 for -0.0) as bytes, to its first part
        for k, key in enumerate(keys.view(f"V{keys.shape[1] * 8}")[:, 0].tolist()):
            first.setdefault(key, k)
        parts = parts.take(list(first.values()), axis=0)
    return parts


def _zero_diagonal_tier(sides: np.ndarray, tol: float) -> list[np.ndarray]:
    """The zero-diagonal tier of a party of dimension 3 or more, from its
    ``(pairs, d, d)`` cross operators: one ``_zero_diagonal_basis`` per
    ``_hermitian_parts`` matrix, in part order (each has an eigenvalue above
    ``tol`` in magnitude, as ``|H_ij| <= ||H||_2``), one per distinct part.

    A basis holding an inadmissible vector is itself inadmissible.  A part
    whose eigenvalues reach below ``-cut`` and above ``cut`` (``RANK_CUTOFF``
    times its largest magnitude) starts with a rotation of eigenvectors 0
    and ``d - 1`` (``eigh`` sorts its values in ascending order), and its
    basis holds the vector retired there, bit for bit.  One ``_rotate`` call
    gives every such vector and one ``_admits`` call tests them all, each by
    its projector ``v v^+``; only the parts whose vector keeps every
    ``tr(P M)`` within ``tol``, or that start with no rotation, are built.
    No basis is built when ``_no_traceless_room`` proves that none is
    admissible.
    """
    parts = _hermitian_parts(sides, tol)
    if _no_traceless_room(parts, tol):
        return []
    evals, evecs = np.linalg.eigh(parts)
    lo, hi, cut = evals[:, 0], evals[:, -1], RANK_CUTOFF * np.abs(evals).max(axis=1)
    rot = (lo < -cut) & (hi > cut)
    # a part with no rotation gets a stand-in one, whose vector is not used
    first = _rotate(np.where(rot, lo, -1.0), np.where(rot, hi, 1.0),
                    evecs[:, :, 0], evecs[:, :, -1])[0]
    admitted = _admits(first[:, :, np.newaxis] * first[:, np.newaxis].conj(), sides, tol)
    return [_zero_diagonal_basis(evals[k], evecs[k]) for k in np.flatnonzero(~rot | admitted)]


@cache
def _traceless_frame(d: int) -> np.ndarray:
    """``(d^2, d^2 - 1)``, read-only: ``vec(H) @`` it gives the real
    coordinates of a Hermitian ``H``'s traceless part in an orthonormal basis
    of the traceless Hermitian matrices (the Helmert diagonals, then
    ``(E_ij + E_ji) / sqrt 2`` and ``i (E_ji - E_ij) / sqrt 2`` for i < j);
    column k is the conjugate of the k-th basis matrix, flattened."""
    basis = [np.diag([1.0] * k + [-k] + [0.0] * (d - 1 - k)) / math.sqrt(k * (k + 1))
             for k in range(1, d)]
    for i, j in zip(*np.triu_indices(d, 1)):
        for entry in (1.0, -1j):  # entry (i, j); entry (j, i) is its conjugate
            off = np.zeros((d, d), dtype=np.complex128)
            off[i, j], off[j, i] = entry, np.conj(entry)
            basis.append(off / math.sqrt(2))
    frame = np.array(basis, dtype=np.complex128).reshape(-1, d * d).conj().T
    frame.setflags(write=False)
    return frame


def _no_traceless_room(parts: np.ndarray, tol: float) -> bool:
    """Whether a ``(n, d, d)`` stack of ``_hermitian_parts`` proves that no
    projector ``P`` of rank 1 to ``d - 1`` keeps every ``|tr(P M)|`` within
    ``tol``, so that no measurement of two or more outcomes is admissible.

    ``E = P - (r / d) I`` is traceless with ``||E||_F^2 = r (1 - r / d) >=
    (d - 1) / d``, and ``|tr(E H)| <= |tr(P M)| + (r / d) |tr M| <= 2 tol``
    for each part ``H`` of a cross operator ``M``, whose trace is an overlap,
    within ``tol`` at every node.  For a qubit, ``E = (P - (I - P)) / 2``
    with both outcomes within ``tol``, so ``|tr(E H)| <= tol`` whatever
    ``tr M`` is: the bound also holds at a ``tol`` below the one the
    ensemble was validated at, as ``classify_2x2`` may use.  So with ``R``
    the parts' coordinates in ``_traceless_frame``, ``sigma_min(R) sqrt((d
    - 1) / d) <= ||R e|| <= 2 tol sqrt(n)``: a least singular value above
    ``2 tol sqrt(n d / (d - 1))`` rules every such ``P`` out; for a qubit
    with ``P`` pairs, all live, that is ``4 tol sqrt(P)``.  Parts dropped by
    grouping or by ``tol`` only drop rows, which keeps the bound.  Tested
    only when the parts can span the ``d^2 - 1`` coordinates, ``n >= d^2 -
    1``; else no proof."""
    n, d = len(parts), parts.shape[-1]
    if n < d * d - 1:
        return False
    coords = (parts.reshape(n, d * d) @ _traceless_frame(d)).real
    return bool(np.linalg.svd(coords, compute_uv=False)[-1] > 2 * tol * math.sqrt(n * d / (d - 1)))


def _zero_diagonal_basis(evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """A basis with vanishing diagonal for a traceless Hermitian matrix, given
    its eigendecomposition ``(evals, evecs)`` from ``eigh``, its columns in
    the order they retire.

    Eigenvectors of zero eigenvalue (at most ``RANK_CUTOFF`` times the
    largest magnitude) retire first, as they are.  Then, repeatedly, the
    most negative and the most positive active values (a stable sort of the
    active list, a rotation's residual appended at its end) are rotated by
    the angle that zeroes the diagonal of one vector, which retires, while
    the other stays active with the sum of the two values.  Cross terms
    between active vectors stay zero throughout, so each rotation retires
    one vector.  When one active vector is left, or all active values share
    a sign up to the cutoff, the active vectors retire in value order.
    """
    cut = RANK_CUTOFF * np.abs(evals).max()
    active = [(w, evecs[:, k]) for k, w in enumerate(evals)]
    done = [v for w, v in active if abs(w) <= cut]
    active = [a for a in active if abs(a[0]) > cut]
    while len(active) > 1:
        active.sort(key=lambda a: a[0])
        (lo, v_lo), (hi, v_hi) = active[0], active[-1]
        if hi <= cut or lo >= -cut:
            break
        retired, residual = _rotate(lo, hi, v_lo, v_hi)
        done.append(retired)
        active = active[1:-1] + [(hi + lo, residual)]
    return np.column_stack(done + [v for _, v in active])


def _schmidt_completion(stack: np.ndarray, party: str, tol: float,
                        factors: tuple | None = None) -> np.ndarray:
    """Orthonormal completion of a maximal mutually orthogonal set of the
    party's Schmidt vectors of an amplitude stack (taken greedily, state by
    state, each state's vectors in Schmidt order; as in
    ``schmidt_decompose``, the vectors are kets, so neither side is
    conjugated).

    A ``(..., m, dim_a, dim_b)`` stack gives one completion per amplitude
    stack of its leading axes, ``(..., d, d)``, from one ``svd`` (or its
    ``factors``, when the caller has them).  One Gram product of every
    stack's Schmidt vectors, read back as Python bools ``|<w|v>| > tol``,
    drives the greedy choice, and one stacked ``qr`` orthonormalises the
    first ``d`` columns of every ``[chosen | I]``, on which alone its Q
    depends.  A zero matrix has rank 0 and adds no vector, so stacks may be
    zero-padded.
    """
    u, sig, vh = np.linalg.svd(stack) if factors is None else factors
    kets = u.swapaxes(-1, -2) if party == ALICE else vh
    *lead, m, d, _ = kets.shape
    kets = kets.reshape(-1, m * d, d)  # row i: vector i % d of state i // d
    clash = (np.abs(kets.conj() @ kets.swapaxes(-1, -2)) > tol).tolist()
    eye = kets.size // d  # rows of the identity follow every stack's vectors
    picks = []
    for b, (ranks, pair_clash) in enumerate(zip(rank_counts(sig).reshape(-1, m).tolist(), clash)):
        chosen = []
        for i in range(m * d):
            if i % d < ranks[i // d] and not any(pair_clash[j][i] for j in chosen):
                chosen.append(i)
        picks.append(([b * m * d + i for i in chosen] + list(range(eye, eye + d)))[:d])
    rows = np.concatenate((kets.reshape(-1, d), _identity(d)))[picks]
    return np.linalg.qr(rows.swapaxes(-1, -2))[0].reshape(*lead, d, d)


def _outcomes(bases: np.ndarray):
    """The columns of every basis of a ``(n, d, k)`` stack of ``k``
    orthonormal columns as one-column blocks, ``(n, k, d, 1)`` with column j
    of basis i at ``[i, j]``, and their outcome projectors, ``(n, k, d, d)``."""
    cols = np.ascontiguousarray(bases.transpose(0, 2, 1))[..., np.newaxis]
    return cols, cols @ cols.conj().swapaxes(-1, -2)


def _children(states: np.ndarray, alive: np.ndarray, sizes: np.ndarray):
    """The outcomes of a candidate that keep two or more states (its child
    nodes), from its ``_renormalise`` output and survivor counts.

    Returns ``(kids, packed, factors, ranks)``: the children's outcomes;
    their states as one zero-padded ``(children, s, dim_a, dim_b)`` stack,
    each child's survivors first and in order; its ``svd``; and the Schmidt
    rank of every child's states, shaped as ``alive`` (0 elsewhere).
    """
    kids = np.flatnonzero(sizes > 1)
    slots = np.argsort(~alive[kids], axis=1, kind="stable")[:, :sizes.max()]
    packed = states[kids[:, np.newaxis], slots]  # dead states are zero
    factors = np.linalg.svd(packed)
    ranks = np.zeros(alive.shape, dtype=int)
    ranks[kids[:, np.newaxis], slots] = rank_counts(factors[1])
    return kids, packed, factors, ranks


def _schmidt_closures(kids, packed: np.ndarray, factors, count, tol: float):
    """Close every node of a batch at once where the one-round Schmidt
    closure ends it: Bob's when the node's Alice cross operators are all
    within ``tol``, else Alice's when its Bob cross operators are.  The other
    party's local supports, and its Schmidt vectors of different states, are
    then pairwise orthogonal, so their completion identifies every state.

    Takes a zero-padded ``(nodes, s, dim_a, dim_b)`` stack, each node's
    states first and in order, as ``_children`` packs a candidate's children
    (the root is a batch of one), with each node's key in the sequence
    ``kids``, the stack's ``svd`` ``factors`` (None for a batch of one: its
    ``svd`` is then taken only if it is offered the closure) and each node's
    state count in the sequence ``count``.  One gather of the pairs and one
    product per party give every node's cross operators; Bob's are tested
    only when some node's Alice operators do not vanish, as only such a node
    is offered Alice's closure.  The completions, and their projectors,
    admissibility and reach (from the projected norms alone), come from one
    call each, read back as lists.  Returns ``(closures, cross_ops)``:
    ``closures`` maps each node that closes with no child node of its own to
    ``(party, blocks, slots)``, the completion's columns as one-column
    blocks and, per outcome, the node's slot of the one state it keeps or
    None; ``cross_ops`` maps every other node to its cross operators per
    party, as ``_cross`` builds them.
    """
    cross = _cross(packed, ALICE, BOB)
    quiet = np.abs(cross[ALICE]).max(axis=(1, 2, 3)) <= tol
    offers = [(BOB, quiet)]
    if not quiet.all():
        offers.append((ALICE, ~quiet & (np.abs(cross[BOB]).max(axis=(1, 2, 3)) <= tol)))
    closures = {}
    for party, offered in offers:
        at = offered.nonzero()[0]
        if not len(at):
            continue
        if len(at) == len(offered):  # every node is offered: nothing to slice
            stacks, parts, sides = packed, factors, cross[party]
        else:
            stacks, parts, sides = packed[at], tuple(f[at] for f in factors), cross[party][at]
        bases = _schmidt_completion(stacks, party, tol, parts)
        cols, projs = _outcomes(bases)
        reach = _reach(stacks, party, projs, tol)[2].tolist()
        admitted = _admits(projs, sides, tol).tolist()
        for i, (node, rows, fits) in enumerate(zip(at.tolist(), reach, admitted)):
            kept = [sum(row) for row in rows]
            # every outcome keeps at most one state and two or more keep one:
            # no child node is left, and survivor orthogonality and the
            # progress test hold exactly, as in ``dfs``
            if all(fits) and max(kept) <= 1 and sum(kept) >= 2:
                closures[kids[node]] = party, tuple(cols[i]), [
                    row.index(True) if n else None for n, row in zip(kept, rows)]
    width = packed.shape[1]
    later = _pairs(width)[1]  # a node's own pairs, in their order
    return closures, {kid: {party: ops[c] if n == width else ops[c][later < n]
                            for party, ops in cross.items()}
                      for c, (kid, n) in enumerate(zip(kids, count))
                      if kid not in closures}


@cache
def _computational(d: int):
    """The identity of dimension ``d``, its columns as one-column blocks, and
    their projector stack ``(d, d, d)``, all read-only."""
    eye, rows = np.eye(d, dtype=np.complex128), np.eye(d, dtype=bool)
    blocks = tuple(eye[:, row] for row in rows)
    projs = rows[:, np.newaxis, :] * eye
    for a in (eye, projs, *blocks):
        a.setflags(write=False)
    return eye, blocks, projs


def _candidates(stack: np.ndarray, party: str, sides: np.ndarray, cfg: SearchConfig):
    """``candidate_bases`` of an amplitude stack as two iterators ``(cheap,
    costly)`` of ``(blocks, projectors, admissible)`` triples, given
    ``sides``, the party's ``(pairs, d, d)`` cross operators: a qubit's
    qubit-plane bases and nothing, else the standard and the zero-diagonal
    tier.  A tier is built only when its iterator is asked for it, and
    ``beam_limit``, counted across both classes, is checked first, so no
    tier is built once it is spent.  Each tier is one stack of outcome
    projectors, whose admissibility comes from one product."""
    d = _local_dim(stack.shape[1:], party)
    tol = cfg.tolerance
    left = cfg.beam_limit

    def columns(bases):
        if not bases:
            return [], None
        cols, projs = _outcomes(np.array(bases).reshape(-1, d, d))
        return list(cols), projs.reshape(-1, d, d)

    def standard():
        eye, basis, projs = _computational(d)
        labels = _support_labels(stack, party, tol)
        roots = np.flatnonzero(labels == np.arange(d))
        if not 2 <= len(roots) < d:
            return [basis], projs
        # one boolean row per support block: the basis indices it projects onto
        groups = labels == roots[:, np.newaxis]
        return ([basis, tuple(eye[:, row] for row in groups)],
                np.concatenate((projs, groups[:, np.newaxis, :] * eye)))

    def tier(build):
        nonlocal left
        if left < 1:
            return
        cands, projs = build()
        if not cands:
            return
        starts = list(accumulate(map(len, cands), initial=0))
        admitted = _admits(projs, sides, tol).tolist()
        for i, blocks in enumerate(cands[:left]):
            left -= 1
            yield (tuple(blocks), projs[starts[i]:starts[i + 1]],
                   all(admitted[starts[i]:starts[i + 1]]))

    if d == 2:
        return tier(lambda: columns(_qubit_plane_bases(sides, tol))), ()
    return tier(standard), tier(lambda: columns(_zero_diagonal_tier(sides, tol)))


def candidate_bases(e: Ensemble, party: str, cfg: SearchConfig | None = None):
    """Deterministic candidate measurements for one party.

    The party's local dimension picks the tiers.  A qubit's one tier is its
    qubit-plane bases, one per Bloch direction in which every cross operator
    (``cross_operators``) has vanishing diagonal (the computational basis
    when none constrains it); in 2 x n any such basis, then the other
    party's measurement, identifies the states (Walgate & Hardy, PRL 89,
    147901 (2002)).  A party of dimension 3 or more has the standard tier
    (the computational basis and, when the states' local supports split the
    basis indices into 2 to d - 1 components, the block-coarsened
    measurement onto them), then the zero-diagonal tier (one basis per
    Hermitian or anti-Hermitian part of each cross operator, in which that
    part has vanishing diagonal, save those ``_zero_diagonal_tier`` prunes).
    The list is each tier in build order, cut at ``beam_limit``, repeats
    kept (each of ``six4x4``'s zero-diagonal bases for Alice is her
    computational basis, permuted).  The search runs it lazily, in the same
    order, but tries both parties' cheap tiers before either costly
    (zero-diagonal) tier, with one beam per party across both.  Here the
    party's cross operators come from the ensemble, in the search from each
    node's batch.  The search offers every node its one-round Schmidt
    closure, which is not on this list, before these.
    """
    cfg = cfg or _DEFAULT_CONFIG
    return [ProjectiveMeasurement(party, blocks) for blocks, _, _
            in chain(*_candidates(e.amplitudes, party, cross_operators(e, party), cfg))]


def _reach(stack: np.ndarray, party: str, projs: np.ndarray, tol: float):
    """``(mats, norms, alive)`` for ``_renormalise``: the projected matrices,
    their norms, and whether each keeps a squared norm above ``tol``."""
    projs, stack = projs[..., np.newaxis, :, :], stack[..., np.newaxis, :, :, :]
    if party == ALICE:
        mats = projs @ stack
    else:
        mats = stack @ projs.swapaxes(-1, -2)
    norms = frobenius_norms(mats)
    return mats, norms, np.float_power(norms, 2) > tol  # pow, as norm ** 2 of one float


def _renormalise(mats: np.ndarray, norms: np.ndarray, alive: np.ndarray):
    """Every outcome of a ``(k, d, d)`` projector stack on a whole ``(m,
    dim_a, dim_b)`` amplitude stack, from ``_reach``'s ``(mats, norms, alive)``.

    Returns ``(alive, states, scale)``: ``alive[k, j]`` says whether state j
    keeps a squared norm above ``tol`` under projector k, ``states[k, j]`` is
    its post-measurement matrix renormalized as ``make_state`` would (left
    undivided within ``unit_norm_slack`` of unit norm) and zero where not
    alive, and ``scale[k, j]`` is the divisor applied.  Leading axes of both
    stacks pair up: ``(..., k, d, d)`` projectors on ``(..., m, dim_a,
    dim_b)`` states give ``(..., k, m)`` results.
    """
    slack = unit_norm_slack(mats.shape[-2] * mats.shape[-1])
    scale = np.where(alive & (np.abs(norms - 1.0) > slack), norms, 1.0)
    states = mats / scale[..., np.newaxis, np.newaxis]
    states[~alive] = 0.0
    return alive, states, scale


def surviving_states(e: Ensemble, party: str, projector,
                     tol: float = DEFAULT_TOL) -> Ensemble:
    """Ensemble of renormalized states that survive one outcome projector.

    ``projector`` is a matrix of orthonormal columns (or a single vector) in
    the acting party's local space.  States with post-measurement norm^2 at
    or below ``tol`` are dropped.  When the parent measurement preserved
    orthogonality the survivors form a valid ensemble; raises
    ``EmptyOutcome`` when nothing survives and ``NotOrthogonal`` when two
    survivors overlap by more than ``tol``; ``NotUnitary`` when
    ``projector`` is not a nonempty vector or matrix whose columns are
    orthonormal within ``tol``, ``DimensionMismatch`` when its rows do not
    match the party's dimension, ``MalformedTree`` for a party other than
    ``"A"`` or ``"B"``, and ``ValueError`` unless ``tol`` is a finite
    number > 0.
    """
    _check_party(party)
    _check_tolerance(tol)
    q = _as_columns(projector)
    d = _local_dim(e.dims, party)
    if q.shape[0] != d:
        raise DimensionMismatch(f"projector acts on dim {q.shape[0]}, party {party} has dim {d}")
    _check_orthonormal(q, tol, "projector columns not orthonormal")
    alive, states, scale = _renormalise(
        *_reach(e.amplitudes, party, (q @ q.conj().T)[np.newaxis], tol))
    survivors = [BipartiteState(e.dim_a, e.dim_b, states[0, j], name=e.states[j].name,
                                normalization=float(scale[0, j]))
                 for j in np.flatnonzero(alive[0])]
    if not survivors:
        raise EmptyOutcome("no ensemble member survives this outcome")
    return make_ensemble(survivors, tol=tol)


def search_protocol(e: Ensemble, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Depth-first synthesis of a discrimination protocol.

    Short-circuits through the Schmidt-sum necessary condition, then offers
    the root its one-round Schmidt closure, then explores candidate
    measurements in deterministic order, recursing on each outcome's
    surviving states; a branch closes when a single state survives.
    A candidate must preserve orthogonality in every outcome and must make
    progress: at least two outcomes with different survivor sets, or some
    survivor's support rank strictly shrinking.  Any returned protocol has
    passed ``verify_protocol``.
    """
    cfg = cfg or _DEFAULT_CONFIG
    tol = cfg.tolerance
    report = schmidt_sum_check(e)
    if report.violates:
        return SearchOutcome(PROVED_NO, None, report, reason=report.reason)

    depth_limit = min(cfg.max_depth, 2 * (e.dim_a + e.dim_b))
    stats = {"nodes": 0}

    def closed(closure, labels) -> Node:
        # a node that its Schmidt closure ends in one round
        stats["nodes"] += 1
        party, blocks, slots = closure
        return Node(ProjectiveMeasurement(party, blocks), tuple(
            Leaf(None if slot is None else labels[slot]) for slot in slots))

    def dfs(stack: np.ndarray, labels: np.ndarray, ranks: np.ndarray,
            depth: int, cross_ops: dict | None) -> ProtocolTree | None:
        # one node: the (m, dim_a, dim_b) amplitude stack of its states, their
        # labels, their Schmidt ranks and its cross operators per party, from
        # its batch's closure pass (None at the depth limit, which has none)
        stats["nodes"] += 1
        if depth >= depth_limit:
            return None
        # a party's candidates are made only when its first class is reached
        tiers = {}
        for party, costly in _SCHEDULE:
            if party not in tiers:
                tiers[party] = _candidates(stack, party, cross_ops[party], cfg)
            for blocks, projs, admissible in tiers[party][costly]:
                if not admissible:
                    continue
                reach = _reach(stack, party, projs, tol)
                sizes = reach[2].sum(axis=1)
                if np.count_nonzero(sizes) < 2:  # no progress, whatever the survivors
                    continue
                alive, states, _ = _renormalise(*reach)
                if overlaps(states.reshape(*alive.shape, -1)).max() > tol:
                    continue
                # ranks are needed only for a child node, and for the progress
                # test when every outcome keeps every state (each outcome is
                # then a child); one-state outcomes alone always make progress
                closures, child_cross = {}, {}
                if sizes.max() > 1:
                    kids, packed, factors, child_ranks = _children(states, alive, sizes)
                    if alive[sizes > 0].all() and not (child_ranks < ranks)[alive].any():
                        continue
                    if depth + 1 < depth_limit:  # children at the limit close nothing
                        closures, child_cross = _schmidt_closures(
                            kids.tolist(), packed, factors, sizes[kids].tolist(), tol)
                children = []
                for k, row in enumerate(alive):
                    idx = np.flatnonzero(row)
                    if len(idx) < 2:
                        children.append(Leaf(labels[idx[0]] if len(idx) else None))
                        continue
                    if k in closures:  # the child node closes in one round
                        subtree = closed(closures[k], labels[idx])
                    else:
                        subtree = dfs(states[k, idx], labels[idx], child_ranks[k, idx],
                                      depth + 1, child_cross.get(k))
                    if subtree is None:
                        break
                    children.append(subtree)
                else:
                    return Node(ProjectiveMeasurement(party, blocks), tuple(children))
        return None

    if e.m == 1:  # Alice's trivial measurement identifies the one state
        tree = Node(ProjectiveMeasurement(ALICE, (_identity(e.dim_a),)), (Leaf(e.labels[0]),))
    else:  # the root is closed as a batch of one, or searched
        labels = np.array(e.labels, dtype=object)
        closures, cross = _schmidt_closures((0,), e.amplitudes[np.newaxis], None, (e.m,), tol)
        tree = closed(closures[0], labels) if closures else dfs(
            e.amplitudes, labels, np.array(report.schmidt_numbers), 0, cross[0])
    if tree is None:
        return SearchOutcome(UNKNOWN, None, report, depth_limit, stats["nodes"])
    verification = verify_protocol(tree, e, tol=tol)
    if not verification.ok:  # soundness guard
        raise RuntimeError(
            "internal error: search returned a protocol that fails verification: "
            + "; ".join(verification.failures))
    return SearchOutcome(YES, tree, report, depth_limit, stats["nodes"])
