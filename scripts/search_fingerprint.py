#!/usr/bin/env python3
"""Print one fingerprint line per search instance, to compare two versions.

Each line is ``name verdict nodes_explored depth_limit sha256``, where the
hash covers ``json.dumps(protocol_to_dict(protocol))`` (``-`` when no
protocol is found).  Running this script on two checkouts and diffing the
outputs shows every instance whose verdict, search effort or protocol bytes
changed.  Every instance comes from loccdist's own seeded generators:

- the canned examples;
- ``six4x4`` and ``domino9`` under seeded local rotations ``U_A (x) U_B``;
- the 200 seeded two-qubit ensembles of the search-vs-classification test;
- seeded product-basis and Haar ensembles from 2x2 to 5x5;
- product pairs ``|a0 b0>, |a1 b1>`` orthogonal on both sides;
- real-valued inputs, which only the zero-diagonal tier solves: seeded real
  orthogonal pairs in 3x3 to 5x5, and ``d + 1`` members of a product basis
  under a seeded real rotation ``O_A (x) O_B`` in 3x3 and 4x4;
- maximally entangled sets: all 455 Pauli 4-sets ``{I(x)I, P1, P2, P3}`` in
  4x4, with amplitude matrix ``P / 2`` for each two-qubit Pauli product
  ``P`` (numbered in ``itertools.combinations`` order of the 15 products
  other than ``I(x)I``), and for d = 3, 4, 5 twelve seeded triples of
  generalized Bell states, amplitude matrix ``X^a Z^b / sqrt(d)``, each as is
  and under a seeded local rotation ``U_A (x) U_B``.

Usage: PYTHONPATH=src python3 scripts/search_fingerprint.py > fingerprint.txt

``protocol_shape`` gives a protocol's parties, outcome ranks and leaf
labels without its numbers; ``tests/test_search_verdicts.py`` pins it per
instance.  ``search_ab.py`` compares it and ``protocol_digest`` between two
trees.
"""

import hashlib
import itertools
import json

import numpy as np

import loccdist as L
from loccdist.cli import protocol_to_dict


def rotated(e, seed):
    rng = np.random.default_rng(seed)
    ua, ub = L.haar_unitary(e.dim_a, rng), L.haar_unitary(e.dim_b, rng)
    return L.make_ensemble([L.apply_local_unitary(s, ua, ub) for s in e.states])


def orthogonal_product_pair(dim_a, dim_b, seed):
    rng = np.random.default_rng(seed)
    ua, ub = L.haar_unitary(dim_a, rng), L.haar_unitary(dim_b, rng)
    return L.make_ensemble([L.product_state(dim_a, dim_b, ua[:, k], ub[:, k], name=f"p{k}")
                            for k in range(2)])


def real_orthogonal_pair(dim_a, dim_b, seed):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((dim_a * dim_b, 2)))[0]
    return L.make_ensemble([L.make_state(dim_a, dim_b, q[:, k].reshape(dim_a, dim_b), name=f"r{k}")
                            for k in range(2)])


def real_rotated_product_set(dim, seed):
    rng = np.random.default_rng(seed)
    oa, ob = (np.linalg.qr(rng.standard_normal((dim, dim)))[0] for _ in range(2))
    picks = sorted(rng.choice(dim * dim, size=dim + 1, replace=False).tolist())
    return L.make_ensemble([L.product_state(dim, dim, oa[:, k // dim], ob[:, k % dim],
                                            name=f"p{k}") for k in picks])


_PAULIS = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
           "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}


def pauli_sets():
    """Every ``{I(x)I, P1, P2, P3}`` of two-qubit Pauli products in 4x4, in
    ``itertools.combinations`` order of the other 15 products."""
    products = {a + b: np.kron(_PAULIS[a], _PAULIS[b]) / 2
                for a, b in itertools.product(_PAULIS, repeat=2)}
    ident = [("II", products.pop("II"))]
    for triple in itertools.combinations(products.items(), 3):
        yield L.make_ensemble([L.make_state(4, 4, mat, name=name)
                               for name, mat in ident + list(triple)])


def bell_triple(dim, seed):
    """Three distinct generalized Bell states ``X^a Z^b / sqrt(dim)``, picked
    by a seeded draw of ``(a, b)``."""
    rng = np.random.default_rng(seed)
    shift = np.roll(np.eye(dim), 1, axis=0)
    omega = np.exp(2j * np.pi * np.arange(dim) / dim)
    picks = sorted(rng.choice(dim * dim, size=3, replace=False).tolist())
    return L.make_ensemble([
        L.make_state(dim, dim, np.linalg.matrix_power(shift, k // dim) * omega ** (k % dim)
                     / np.sqrt(dim), name=f"b{k // dim}{k % dim}") for k in picks])


def instances():
    for name in L.CANNED_EXAMPLES:
        yield name, L.canned_example(name)
    for name in ("six4x4", "domino9"):
        for seed in range(5):
            yield f"{name}-rot{seed}", rotated(L.canned_example(name), seed)
    for seed in range(200):
        kind = "product-basis" if seed % 2 else "haar-orthogonal"
        m = 2 + seed % 3
        yield f"sweep2x2-{seed}", L.random_ensemble(2, 2, m, seed=7000 + seed, kind=kind)
    for dim_a in range(2, 6):
        for dim_b in range(dim_a, 6):
            for kind in L.ensemble.RANDOM_KINDS:
                sizes = {2, 3, min(dim_a, dim_b) + 1}
                if kind == "product-basis":
                    sizes.add(dim_a * dim_b)
                for m in sorted(sizes):
                    for seed in range(3):
                        e = L.random_ensemble(dim_a, dim_b, m, seed=seed, kind=kind)
                        yield f"{kind}-{dim_a}x{dim_b}-m{m}-s{seed}", e
    for dim_a, dim_b in ((2, 2), (2, 3), (3, 3)):
        for seed in range(5):
            yield f"orthpair-{dim_a}x{dim_b}-s{seed}", orthogonal_product_pair(dim_a, dim_b, seed)
    for dim in (3, 4, 5):
        for seed in range(3):
            yield f"realpair-{dim}x{dim}-s{seed}", real_orthogonal_pair(dim, dim, seed)
    for dim in (3, 4):
        for seed in range(3):
            yield f"realprod-{dim}x{dim}-m{dim + 1}-s{seed}", real_rotated_product_set(dim, seed)
    for index, e in enumerate(pauli_sets()):
        yield f"pauli-4x4-m4-s{index}", e
    for dim in (3, 4, 5):
        for seed in range(12):
            e = bell_triple(dim, seed)
            yield f"gbell-{dim}x{dim}-m3-s{seed}", e
            yield f"gbell-{dim}x{dim}-m3-rot-s{seed}", rotated(e, seed)


def protocol_shape(tree) -> str:
    """Parties, outcome ranks and leaf labels of a protocol tree, depth
    first.  A node is its party and its outcomes in brackets, each outcome
    its rank, a colon and its child; a leaf is the label it identifies, or
    ``-`` when it fails."""
    if isinstance(tree, L.Leaf):
        return "-" if tree.is_fail else tree.identify
    outcomes = " ".join(f"{q.shape[1]}:{protocol_shape(child)}"
                        for q, child in zip(tree.measurement.projectors, tree.children))
    return f"{tree.measurement.party}[{outcomes}]"


def protocol_digest(protocol) -> str:
    """The sha256 of ``json.dumps(protocol_to_dict(protocol))``, ``-`` when
    there is no protocol."""
    if protocol is None:
        return "-"
    return hashlib.sha256(json.dumps(protocol_to_dict(protocol)).encode()).hexdigest()


def main():
    for name, e in instances():
        out = L.search_protocol(e)
        print(name, out.verdict, out.nodes_explored, out.max_depth, protocol_digest(out.protocol))


if __name__ == "__main__":
    main()
