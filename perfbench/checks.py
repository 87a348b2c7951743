"""Independent correctness checks for the benchmark.

Nothing here calls loccdist.  A protocol is read only through its public
data (the measuring party, the projector columns of each outcome and the
leaf labels), either from a tree object or from a protocol file's JSON, and
walked with plain numpy.  Truth for an ensemble comes from the singular
values of its amplitude matrices.
"""

from __future__ import annotations

import numpy as np

#: tolerance of the protocol walker (looser than loccdist's default 1e-9, so
#: rounding in a correct protocol never trips it)
WALK_TOL = 1e-8

#: a singular value counts toward the Schmidt rank above this share of the
#: largest one; seeded inputs sit far from it (product states ~1e-16,
#: Haar-random states ~1e-2)
RANK_SHARE = 1e-6


def schmidt_rank(mat: np.ndarray) -> int:
    sig = np.linalg.svd(mat, compute_uv=False)
    return int(np.count_nonzero(sig > RANK_SHARE * sig[0]))


def rank_sum_violated(mats) -> bool:
    """Whether the Schmidt ranks sum to more than the joint dimension."""
    dim_a, dim_b = mats[0].shape
    return sum(schmidt_rank(m) for m in mats) > dim_a * dim_b


def two_qubit_rule(mats) -> bool:
    """The complete 2x2 classification: one or two states are always
    distinguishable, three iff at most one is entangled, four iff all are
    product states."""
    entangled = sum(schmidt_rank(m) > 1 for m in mats)
    if len(mats) <= 2:
        return True
    if len(mats) == 3:
        return entangled <= 1
    return entangled == 0


# A neutral tree: ("leaf", label-or-None) or ("node", party, [Q_k], [child_k]),
# where Q_k is the matrix of orthonormal columns spanning outcome k.

def tree_from_object(tree):
    """Neutral tree from a loccdist Leaf/Node object (public attributes only)."""
    if hasattr(tree, "identify"):
        return ("leaf", tree.identify)
    meas = tree.measurement
    return ("node", meas.party, [np.asarray(q, dtype=complex) for q in meas.projectors],
            [tree_from_object(c) for c in tree.children])


def tree_from_json(data):
    """Neutral tree from the protocol file format."""
    if "fail" in data or "identify" in data:
        return ("leaf", None if data.get("fail") else data["identify"])
    blocks, children = [], []
    for outcome in data["outcomes"]:
        cols = [[complex(re, im) for re, im in col] for col in outcome["projector_columns"]]
        blocks.append(np.array(cols, dtype=complex).T)
        children.append(tree_from_json(outcome["child"]))
    return ("node", data["party"], blocks, children)


def protocol_problems(tree, states: dict, tol: float = WALK_TOL) -> list[str]:
    """Walk a neutral tree over ``states`` (label -> amplitude matrix).

    Returns every problem found; an empty list means the protocol identifies
    each state with certainty: every measurement is a complete orthogonal
    projective measurement, each reached leaf is reached only by the state it
    names, no fail leaf is reached, and each state's probability summed over
    the leaves naming it is 1.
    """
    dim_a, dim_b = next(iter(states.values())).shape
    problems: list[str] = []
    totals = {label: 0.0 for label in states}

    def visit(node, mats, path):
        where = path or "(root)"
        if node[0] == "leaf":
            label = node[1]
            probs = {lbl: float(np.vdot(m, m).real) for lbl, m in mats.items()}
            reached = sorted(lbl for lbl, p in probs.items() if p > tol)
            if label is None:
                if reached:
                    problems.append(f"{where}: fail leaf reached by {reached}")
            elif label not in states:
                problems.append(f"{where}: unknown label {label!r}")
            else:
                if any(lbl != label for lbl in reached):
                    problems.append(f"{where}: leaf {label!r} reached by {reached}")
                totals[label] += probs[label]
            return
        _, party, blocks, children = node
        dim = dim_a if party == "A" else dim_b
        if party not in ("A", "B") or len(blocks) != len(children):
            problems.append(f"{where}: malformed node")
            return
        resolved = np.zeros((dim, dim), dtype=complex)
        for k, q in enumerate(blocks):
            if q.ndim != 2 or q.shape[0] != dim:
                problems.append(f"{where}: outcome {k} acts on the wrong dimension")
                return
            if np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() > tol:
                problems.append(f"{where}: outcome {k} columns are not orthonormal")
            resolved += q @ q.conj().T
        if np.abs(resolved - np.eye(dim)).max() > tol:
            problems.append(f"{where}: measurement does not resolve the identity")
        for k, (q, child) in enumerate(zip(blocks, children)):
            p = q @ q.conj().T
            nxt = {lbl: (p @ m if party == "A" else m @ p.T) for lbl, m in mats.items()}
            visit(child, nxt, f"{path}/{party}:{k}")

    visit(tree, states, "")
    for label, total in totals.items():
        if abs(total - 1.0) > tol:
            problems.append(f"state {label!r} identified with total probability {total:.12g}")
    return problems
