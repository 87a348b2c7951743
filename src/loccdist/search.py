"""Bounded synthesis of projective discrimination protocols.

Depth-first search in which, at every node, Alice and then Bob try the
candidate measurements of one fixed generator (``candidate_bases``).  A
candidate is admitted only if every outcome keeps the surviving states
pairwise orthogonal (the per-outcome diagonal of every cross operator must
vanish), which is necessary for reliable discrimination to remain possible.
Each node computes both parties' cross-operator stacks once; candidates are
tuples of column blocks, generated tier by tier only as far as the search
asks, and only the one that enters the tree becomes a
``ProjectiveMeasurement``.  The search is sound -- every returned protocol
is re-verified -- but incomplete: an exhausted search yields Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .ensemble import Ensemble, make_ensemble
from .errors import DimensionMismatch, EmptyOutcome, NotOrthogonal
from .protocol import (
    ALICE,
    BOB,
    Leaf,
    Node,
    ProjectiveMeasurement,
    ProtocolTree,
    _cols,
    verify_protocol,
)
from .states import DEFAULT_TOL, make_state, schmidt_decompose, schmidt_number

YES = "yes"
PROVED_NO = "proved-no"
UNKNOWN = "unknown"

_DUST = 1e-12


@dataclass(frozen=True)
class SearchConfig:
    """Bounds of the protocol search.

    ``max_depth`` caps the rounds of measurement on any branch,
    ``tolerance`` is used by every numerical check, and ``beam_limit`` caps
    the candidates one party tries at one node.
    """

    max_depth: int = 6
    tolerance: float = DEFAULT_TOL
    beam_limit: int = 64

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.beam_limit < 1:
            raise ValueError("beam_limit must be >= 1")


def _local_dim(e: Ensemble, party: str) -> int:
    return e.dim_a if party == ALICE else e.dim_b


def cross_operators(e: Ensemble, party: str) -> np.ndarray:
    """One party's side of every pairwise cross operator, stacked as ``(P, d, d)``.

    Entry ``p`` belongs to the p-th pair ``j < l`` in ``itertools.combinations``
    order.  For states with amplitude matrices ``C_j``, ``C_l`` the Alice side
    is ``C_l @ C_j^+`` and the Bob side is ``C_l^T @ conj(C_j)``, so that
    ``<Psi_j|(P (x) I)|Psi_l> = trace(P @ alice_side)`` and
    ``<Psi_j|(I (x) P)|Psi_l> = trace(P @ bob_side)``.  The trace of either
    side is the plain overlap, hence zero for ensemble members.  A single
    state has no pairs: the result then has shape ``(0, d, d)``.
    """
    amps = [s.amplitudes for s in e.states]
    if party == ALICE:
        sides = [cl @ cj.conj().T for cj, cl in combinations(amps, 2)]
    else:
        sides = [cl.T @ cj.conj() for cj, cl in combinations(amps, 2)]
    d = _local_dim(e, party)
    return np.array(sides, dtype=np.complex128).reshape(len(sides), d, d)


def _admissible(sides: np.ndarray, blocks, tol: float) -> bool:
    """Whether every outcome block zeroes the diagonal of every cross operator."""
    for q in blocks:
        p = q @ q.conj().T
        if np.any(np.abs(np.einsum("ij,pji->p", p, sides)) > tol):
            return False
    return True


def valid_measurement(e: Ensemble, meas: ProjectiveMeasurement,
                      tol: float = DEFAULT_TOL) -> bool:
    """Whether every outcome preserves pairwise orthogonality of survivors."""
    expected = _local_dim(e, meas.party)
    if meas.local_dim != expected:
        raise DimensionMismatch(
            f"measurement on dim {meas.local_dim}, ensemble side has dim {expected}")
    return _admissible(cross_operators(e, meas.party), meas.projectors, tol)


def _support_blocks(e: Ensemble, party: str, tol: float) -> list[list[int]]:
    """Connected components of the local basis indices coupled by any state."""
    d = _local_dim(e, party)
    adj = np.zeros((d, d), dtype=bool)
    for s in e.states:
        c = s.amplitudes
        rho = c @ c.conj().T if party == ALICE else c.T @ c.conj()
        adj |= np.abs(rho) > tol
    blocks = []
    seen = set()
    for start in range(d):
        if start in seen:
            continue
        stack, comp = [start], []
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            comp.append(i)
            stack.extend(j for j in range(d) if adj[i, j] and j not in seen)
        blocks.append(sorted(comp))
    return sorted(blocks, key=lambda b: b[0])


def _pauli_vector(m: np.ndarray) -> np.ndarray:
    # coefficients of a 2x2 matrix on (sigma_x, sigma_y, sigma_z)
    return np.array([
        (m[0, 1] + m[1, 0]) / 2,
        1j * (m[0, 1] - m[1, 0]) / 2,
        (m[0, 0] - m[1, 1]) / 2,
    ])


def _bloch_basis(n: np.ndarray) -> np.ndarray:
    """Orthonormal qubit basis whose first vector has Bloch vector ``n``."""
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n)
    theta = np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = float(np.arctan2(n[1], n[0]))
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    w0 = np.array([c, np.exp(1j * phi) * s])
    w1 = np.array([-np.exp(-1j * phi) * s, c])
    return np.column_stack([w0, w1])


def _qubit_plane_bases(side_mats, tol) -> list[np.ndarray]:
    """Exact qubit bases with zero diagonal for every cross operator at once.

    A basis vector with Bloch vector n has <w|M|w> = m . n for a traceless M
    with (complex) Pauli vector m, so the admissible n are the real unit
    vectors orthogonal to Re(m) and Im(m) of every pair: the null space of
    the stacked constraint matrix.  One basis per null direction.  A part of
    norm at most ``tol`` moves no diagonal entry past ``tol`` and constrains
    nothing; with no constraint left every basis works and the computational
    one is returned, so ``[]`` means no basis exists.
    """
    rows = []
    for m in side_mats:
        pv = _pauli_vector(m)
        for part in (pv.real, pv.imag):
            norm = np.linalg.norm(part)
            if norm > tol:
                rows.append(part / norm)
    if not rows:
        return [np.eye(2, dtype=np.complex128)]
    a = np.array(rows)
    _, sig, vt = np.linalg.svd(a)
    rank = int(np.count_nonzero(sig > 1e-8))
    return [_bloch_basis(vt[k]) for k in range(rank, 3)]


def _zero_diagonal_basis(evals, evecs, tol) -> np.ndarray | None:
    """Basis with vanishing diagonal for a traceless Hermitian matrix, given
    its eigendecomposition ``(evals, evecs)``.

    Works in the eigenbasis, repeatedly rotating a positive-diagonal vector
    against a negative-diagonal one by the angle that zeroes one of the two;
    cross terms between the active vectors stay zero throughout, so each
    rotation retires at least one vector.
    """
    scale = float(np.abs(evals).max())
    if scale <= tol:
        return None
    cut = 1e-10 * scale
    done = []
    active = [[float(evals[k]), evecs[:, k]] for k in range(len(evals))]
    active, zeroed = [a for a in active if abs(a[0]) > cut], [a for a in active
                                                              if abs(a[0]) <= cut]
    done.extend(v for _, v in zeroed)
    while active:
        if len(active) == 1:
            done.append(active[0][1])
            break
        active.sort(key=lambda a: a[0])
        lo, hi = active[0], active[-1]
        if hi[0] <= cut or lo[0] >= -cut:
            done.extend(v for _, v in active)
            break
        theta = np.arctan(np.sqrt(hi[0] / -lo[0]))
        c, s = np.cos(theta), np.sin(theta)
        done.append(c * hi[1] + s * lo[1])
        residual = [hi[0] + lo[0], -s * hi[1] + c * lo[1]]
        active = active[1:-1] + [residual]
    return np.column_stack(done)


def _phased_columns(basis: np.ndarray) -> tuple[np.ndarray, ...]:
    """One-column blocks of ``basis``, each phased so its largest entry is positive."""
    blocks = []
    for k in range(basis.shape[1]):
        col = basis[:, [k]]
        pivot = col[np.argmax(np.abs(col)), 0]
        blocks.append(col * (abs(pivot) / pivot) if abs(pivot) > _DUST else col)
    return tuple(blocks)


def _schmidt_completion(e: Ensemble, party: str, tol: float) -> np.ndarray:
    """Orthonormal completion of a maximal mutually orthogonal set of the
    party's Schmidt vectors (taken greedily; the rows of ``alice_vectors`` and
    ``bob_vectors`` are kets, so neither side is conjugated)."""
    chosen = []
    for s in e.states:
        dec = schmidt_decompose(s)
        for v in (dec.alice_vectors if party == ALICE else dec.bob_vectors):
            if all(abs(np.vdot(u, v)) <= tol for u in chosen):
                chosen.append(v)
    q, _ = np.linalg.qr(np.column_stack(chosen + [np.eye(_local_dim(e, party))]))
    return q


def _measurement_keys(cands) -> list[tuple[bytes, ...]]:
    """Dedupe key of every candidate: its sorted, rounded outcome projectors.

    One rounding of the float64 view covers every projector of ``cands``;
    adding 0.0 folds negative zeros so equal projectors share a key.
    """
    if not cands:
        return []
    projs = np.array([q @ q.conj().T for c in cands for q in c]).view(np.float64)
    rows = iter([p.tobytes() for p in projs.round(6) + 0.0])
    return [tuple(sorted(islice(rows, len(c)))) for c in cands]


def _candidates(e: Ensemble, party: str, sides: np.ndarray, other: np.ndarray,
                cfg: SearchConfig):
    """``candidate_bases`` as tuples of column blocks, given both parties'
    cross operators (``sides`` for the acting party, ``other`` for the other).
    Lazy: a tier is built only when the caller asks past the one before it."""
    d = _local_dim(e, party)
    tol = cfg.tolerance

    def standard():
        cands = [tuple(_cols(d, i) for i in range(d))]
        blocks = _support_blocks(e, party, tol)
        if len(blocks) >= 2 and any(len(b) > 1 for b in blocks):
            cands.append(tuple(_cols(d, *b) for b in blocks))
        return cands

    def zero_diagonal():
        if d == 2:
            bases = _qubit_plane_bases(sides, tol)
        else:
            live = sides[np.abs(sides).max(axis=(1, 2)) > _DUST]
            adj = live.conj().transpose(0, 2, 1)
            parts = np.stack([(live + adj) / 2, (live - adj) / 2j], axis=1).reshape(-1, d, d)
            evals, evecs = np.linalg.eigh(parts[np.abs(parts).max(axis=(1, 2)) > _DUST])
            bases = [b for b in (_zero_diagonal_basis(w, v, tol) for w, v in zip(evals, evecs))
                     if b is not None]
        return [_phased_columns(b) for b in bases]

    def schmidt():
        if np.abs(other).max(initial=0.0) > _DUST:
            return []
        # the other party's cross operators all vanish, so this party's local
        # supports, and its Schmidt vectors of different states, are pairwise
        # orthogonal: their completion identifies every state in one round
        return [_phased_columns(_schmidt_completion(e, party, tol))]

    seen = set()
    for tier in (standard, zero_diagonal, schmidt):
        cands = tier()
        for key, cand in sorted(zip(_measurement_keys(cands), cands), key=lambda kc: kc[0]):
            if key not in seen:
                seen.add(key)
                yield cand
                if len(seen) == cfg.beam_limit:
                    return


def candidate_bases(e: Ensemble, party: str, cfg: SearchConfig | None = None):
    """Deterministic, duplicate-free candidate measurements for one party.

    Up to three fixed tiers, in this order.  The standard tier is the
    computational basis and, when the states' local supports split the basis
    indices into nontrivial components, the block-coarsened measurement onto
    those components.  The zero-diagonal tier holds bases in which the
    party's cross operators (``cross_operators``) have vanishing diagonal:
    for a qubit party every exact solution for all cross operators at once
    (the Bloch-plane solver), otherwise one basis per Hermitian or
    anti-Hermitian part of each cross operator, built by pairing
    opposite-sign eigenvalues.  The fallback tier is offered only when every
    cross operator of the *other* party vanishes, that is, when this party's
    local supports of different states are pairwise orthogonal: the
    orthonormal completion of a maximal mutually orthogonal set of the
    party's Schmidt vectors, which then identifies every state in one round.
    Each tier is sorted by projector key, duplicates are dropped, and the list
    is truncated at ``beam_limit``.  The search runs the same generator on the
    cross operators it computes once per node, lazily: a tier is built only
    when the search asks past the end of the one before it, so the order is
    the same as this list's.
    """
    cfg = cfg or SearchConfig()
    sides = {p: cross_operators(e, p) for p in (ALICE, BOB)}
    other = BOB if party == ALICE else ALICE
    return [ProjectiveMeasurement(party, blocks)
            for blocks in _candidates(e, party, sides[party], sides[other], cfg)]


def surviving_states(e: Ensemble, party: str, projector,
                     tol: float = DEFAULT_TOL) -> Ensemble:
    """Ensemble of renormalized states that survive one outcome projector.

    ``projector`` is a matrix of orthonormal columns (or a single vector) in
    the acting party's local space.  States with post-measurement norm^2 at
    or below ``tol`` are dropped.  When the parent measurement preserved
    orthogonality the survivors form a valid ensemble; raises
    ``EmptyOutcome`` when nothing survives.
    """
    q = np.asarray(projector, dtype=np.complex128)
    if q.ndim == 1:
        q = q[:, np.newaxis]
    if q.shape[0] != _local_dim(e, party):
        raise DimensionMismatch(
            f"projector acts on dim {q.shape[0]}, party {party} has dim "
            f"{_local_dim(e, party)}")
    p = q @ q.conj().T
    survivors = []
    for s in e.states:
        mat = p @ s.amplitudes if party == ALICE else s.amplitudes @ p.T
        if float(np.linalg.norm(mat) ** 2) > tol:
            survivors.append(make_state(e.dim_a, e.dim_b, mat, name=s.name))
    if not survivors:
        raise EmptyOutcome("no ensemble member survives this outcome")
    return make_ensemble(survivors, tol=tol)


@dataclass(frozen=True, eq=False)
class SearchOutcome:
    """Result of a protocol search.

    ``verdict`` is "yes" (verified protocol attached), "proved-no" (the
    Schmidt-sum necessary condition fails; report attached), or "unknown"
    (candidates exhausted at ``max_depth``).
    """

    verdict: str
    protocol: ProtocolTree | None
    schmidt_report: object
    max_depth: int
    nodes_explored: int


def _single_state_tree(e: Ensemble) -> ProtocolTree:
    eye = np.eye(e.dim_a, dtype=np.complex128)
    meas = ProjectiveMeasurement(ALICE, (eye,))
    return Node(meas, (Leaf(e.states[0].name),))


def search_protocol(e: Ensemble, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Depth-first synthesis of a discrimination protocol.

    Short-circuits through the Schmidt-sum necessary condition, then explores
    candidate measurements in deterministic order, recursing on each
    outcome's surviving states; a branch closes when a single state survives.
    A candidate must preserve orthogonality in every outcome and must make
    progress: at least two outcomes with different survivor sets, or some
    survivor's support rank strictly shrinking.  Any returned protocol has
    passed ``verify_protocol``.
    """
    from .criteria import schmidt_sum_check  # deferred: criteria builds on this module

    cfg = cfg or SearchConfig()
    tol = cfg.tolerance
    report = schmidt_sum_check(e)
    if report.violates:
        return SearchOutcome(PROVED_NO, None, report, 0, 0)

    depth_limit = min(cfg.max_depth, 2 * (e.dim_a + e.dim_b))
    stats = {"nodes": 0}

    def dfs(sub: Ensemble, depth: int) -> ProtocolTree | None:
        stats["nodes"] += 1
        if depth >= depth_limit:
            return None
        ranks = {s.name: schmidt_number(s) for s in sub.states}
        full = frozenset(sub.labels)
        sides = {p: cross_operators(sub, p) for p in (ALICE, BOB)}
        for party, other in ((ALICE, BOB), (BOB, ALICE)):
            for blocks in _candidates(sub, party, sides[party], sides[other], cfg):
                if not _admissible(sides[party], blocks, tol):
                    continue
                children_ens = []
                usable = True
                for q in blocks:
                    try:
                        children_ens.append(surviving_states(sub, party, q, tol))
                    except EmptyOutcome:
                        children_ens.append(None)
                    except NotOrthogonal:
                        usable = False
                        break
                if not usable:
                    continue
                firing = [c for c in children_ens if c is not None]
                if len(firing) < 2:
                    continue
                survivor_sets = {frozenset(c.labels) for c in firing}
                shrinks = any(
                    schmidt_number(s) < ranks[s.name]
                    for c in firing for s in c.states
                )
                if survivor_sets == {full} and not shrinks:
                    continue
                children = []
                failed = False
                for c in children_ens:
                    if c is None:
                        children.append(Leaf(None))
                    elif c.m == 1:
                        children.append(Leaf(c.states[0].name))
                    else:
                        subtree = dfs(c, depth + 1)
                        if subtree is None:
                            failed = True
                            break
                        children.append(subtree)
                if failed:
                    continue
                return Node(ProjectiveMeasurement(party, blocks), tuple(children))
        return None

    if e.m == 1:
        tree = _single_state_tree(e)
    else:
        tree = dfs(e, 0)
    if tree is None:
        return SearchOutcome(UNKNOWN, None, report, depth_limit, stats["nodes"])
    verification = verify_protocol(tree, e, tol=tol)
    if not verification.ok:  # pragma: no cover - soundness guard
        raise RuntimeError(
            "internal error: search returned a protocol that fails verification: "
            + "; ".join(verification.failures))
    return SearchOutcome(YES, tree, report, depth_limit, stats["nodes"])
