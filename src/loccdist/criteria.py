"""Decision criteria for local distinguishability.

Three layers: a cheap necessary condition (the Schmidt ranks of a reliably
distinguishable ensemble sum to at most the joint dimension), certificate
checking (each state written as a superposition of its own share of a
locally distinguishable orthogonal product-vector set), and the complete
classification for two-qubit ensembles by the search's qubit-plane solver
on Alice's cross operators.  The decisions return the search's own
``SearchOutcome``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .ensemble import Ensemble, make_ensemble
from .errors import (
    BadAssignment,
    EmptyOutcome,
    NotOrthogonal,
    ProductSetNotDistinguishable,
    ReconstructionFailure,
    VectorsNotOrthogonal,
    WrongDimensions,
    ZeroState,
)
from .protocol import (
    ALICE,
    BOB,
    Leaf,
    Node,
    ProjectiveMeasurement,
    ProtocolTree,
    VerificationReport,
    verify_protocol,
)
from .search import (
    PROVED_NO,
    YES,
    SearchConfig,
    SearchOutcome,
    _phased_columns,
    _qubit_plane_bases,
    _schmidt_completion,
    cross_operators,
    search_protocol,
    surviving_states,
)
from .states import DEFAULT_TOL, RANK_CUTOFF, product_state, schmidt_number

@dataclass(frozen=True)
class SchmidtSumReport:
    """Schmidt ranks of the ensemble members against the joint capacity.

    ``violates`` (the total exceeds the capacity) proves the ensemble cannot
    be reliably distinguished by local measurements and classical
    communication; the converse does not hold.
    """

    schmidt_numbers: tuple[int, ...]
    total: int
    capacity: int

    @property
    def violates(self) -> bool:
        return self.total > self.capacity


def schmidt_sum_check(e: Ensemble) -> SchmidtSumReport:
    """Necessary condition: sum of Schmidt ranks must not exceed dim_a*dim_b."""
    numbers = tuple(schmidt_number(s) for s in e.states)
    return SchmidtSumReport(numbers, int(sum(numbers)), e.dim_a * e.dim_b)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Product-decomposition certificate of distinguishability.

    ``product_vectors`` is a list of (alice, bob) local-vector pairs that are
    pairwise orthogonal as joint vectors; ``assignment`` maps every ensemble
    label to a disjoint nonempty tuple of vector indices; ``coefficients``
    gives, per label and in assignment order, the superposition coefficients
    that rebuild the state from its assigned vectors.
    """

    product_vectors: tuple
    assignment: dict
    coefficients: dict


def product_set_distinguishable(vectors, dims, cfg: SearchConfig | None = None,
                                tol: float = DEFAULT_TOL) -> SearchOutcome:
    """Search for a protocol identifying each product vector.

    ``vectors`` is a sequence of (alice, bob) pairs, pairwise orthogonal as
    joint vectors (``NotOrthogonal`` otherwise).  The vector ``k`` is
    labelled ``v<k>``.  An "unknown" verdict only means the bounded search
    was exhausted, not impossibility.
    """
    dim_a, dim_b = dims
    states = [product_state(dim_a, dim_b, a, b, name=f"v{k}")
              for k, (a, b) in enumerate(vectors)]
    return search_protocol(make_ensemble(states, tol=tol), cfg)


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Successful certificate validation, with the protocols it induces."""

    labels: tuple[str, ...]
    vector_count: int
    max_pairwise_overlap: float
    reconstruction_errors: dict
    product_protocol: ProtocolTree
    ensemble_protocol: ProtocolTree
    verification: VerificationReport


def _relabel_leaves(tree: ProtocolTree, owner: dict) -> ProtocolTree:
    if isinstance(tree, Leaf):
        if tree.identify is None:
            return tree
        return Leaf(owner.get(tree.identify))
    return Node(tree.measurement,
                tuple(_relabel_leaves(c, owner) for c in tree.children))


def certificate_check(e: Ensemble, cert: Certificate,
                      cfg: SearchConfig | None = None,
                      tol: float = DEFAULT_TOL) -> CertificateReport:
    """Validate a certificate; success proves the ensemble distinguishable.

    Checks, in order: the assignment structure (``BadAssignment``), pairwise
    joint orthogonality of the product vectors (``VectorsNotOrthogonal``),
    reconstruction of every state from its assigned vectors
    (``ReconstructionFailure``), and local distinguishability of the vector
    set (``ProductSetNotDistinguishable``).  On success the product-set
    protocol is relabeled into an ensemble protocol and re-verified.
    """
    n = len(cert.product_vectors)
    labels = set(e.labels)
    if set(cert.assignment) != labels:
        missing = labels - set(cert.assignment)
        extra = set(cert.assignment) - labels
        raise BadAssignment(f"assignment labels mismatch (missing {sorted(missing)}, "
                            f"unknown {sorted(extra)})")
    seen: dict[int, str] = {}
    for label, indices in cert.assignment.items():
        if not indices:
            raise BadAssignment(f"state {label!r} has an empty assignment")
        for idx in indices:
            if not 0 <= idx < n:
                raise BadAssignment(f"state {label!r} references vector {idx} "
                                    f"out of range 0..{n - 1}")
            if idx in seen:
                raise BadAssignment(f"vector {idx} assigned to both {seen[idx]!r} "
                                    f"and {label!r}")
            seen[idx] = label
        coeffs = cert.coefficients.get(label)
        if coeffs is None or len(coeffs) != len(indices):
            raise BadAssignment(f"state {label!r} needs one coefficient per "
                                f"assigned vector")

    vecs = []
    for k, (a, b) in enumerate(cert.product_vectors):
        a = np.asarray(a, dtype=np.complex128).reshape(-1)
        b = np.asarray(b, dtype=np.complex128).reshape(-1)
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na < 1e-12 or nb < 1e-12:
            raise ZeroState(f"product vector {k} has a zero factor")
        vecs.append((a / na, b / nb))

    max_overlap = 0.0
    for i, j in combinations(range(n), 2):
        overlap = abs(np.vdot(vecs[i][0], vecs[j][0]) * np.vdot(vecs[i][1], vecs[j][1]))
        max_overlap = max(max_overlap, overlap)
        if overlap > tol:
            raise VectorsNotOrthogonal(
                f"product vectors {i} and {j} overlap ({overlap:.3g} > {tol:.3g})",
                pair=(i, j), overlap=overlap)

    errors = {}
    for label, indices in cert.assignment.items():
        target = e.state(label).amplitudes
        rebuilt = np.zeros_like(target)
        for idx, coeff in zip(indices, cert.coefficients[label]):
            a, b = vecs[idx]
            rebuilt += complex(coeff) * np.outer(a, b)
        err = float(np.linalg.norm(rebuilt - target))
        errors[label] = err
        if err > tol:
            raise ReconstructionFailure(
                f"state {label!r} not reproduced by its assigned vectors "
                f"(error {err:.3g})")

    result = product_set_distinguishable(vecs, e.dims, cfg, tol=tol)
    if result.verdict != YES:
        raise ProductSetNotDistinguishable(
            f"no protocol found for the certificate's product set "
            f"(search exhausted at depth {result.max_depth}, "
            f"{result.nodes_explored} nodes)")

    owner = {f"v{idx}": label for idx, label in seen.items()}
    refined = _relabel_leaves(result.protocol, owner)
    verification = verify_protocol(refined, e, tol=tol)
    if not verification.ok:  # pragma: no cover - guaranteed by the checks above
        raise RuntimeError("internal error: relabeled certificate protocol fails "
                           "verification: " + "; ".join(verification.failures))
    return CertificateReport(
        labels=e.labels,
        vector_count=n,
        max_pairwise_overlap=max_overlap,
        reconstruction_errors=errors,
        product_protocol=result.protocol,
        ensemble_protocol=refined,
        verification=verification,
    )


def _borderline_warnings(e: Ensemble) -> tuple[str, ...]:
    out = []
    for s in e.states:
        sig = np.linalg.svd(s.amplitudes, compute_uv=False)
        cut = RANK_CUTOFF * sig[0]
        smallest = sig[-1]
        if cut / 10 < smallest <= 10 * cut:
            out.append(f"state {s.name!r}: smallest singular value {smallest:.3g} "
                       f"is within 10x of the rank cutoff {cut:.3g}")
    return tuple(out)


def classify_2x2(e: Ensemble, *, tol: float = DEFAULT_TOL) -> SearchOutcome:
    """Complete classification of two-qubit ensembles (Walgate & Hardy, PRL 89,
    147901 (2002)).

    The states are distinguishable ("yes") iff Alice has a qubit basis in
    which every cross operator (``cross_operators``) has zero diagonal; the
    Bloch-plane solver of the search finds all such bases at once.  Parts of
    a cross operator of norm at most ``tol`` are ignored, since they move no
    diagonal entry past it, so "proved-no" is a proof up to that tolerance;
    its ``reason`` names the entangled states.  A "yes" carries the
    two-round protocol from the first basis if it passes ``verify_protocol``,
    else None: Alice measures in that basis, and Bob separates each
    outcome's product survivors, whose Bob factors are pairwise orthogonal,
    in their completion.  ``warnings`` lists states whose smallest singular
    value sits near the rank cutoff (a borderline product/entangled call).
    """
    if e.dims != (2, 2):
        raise WrongDimensions(f"classify_2x2 needs a 2x2 ensemble, got "
                              f"{e.dim_a}x{e.dim_b}")
    report = schmidt_sum_check(e)
    warnings = _borderline_warnings(e)
    bases = _qubit_plane_bases(cross_operators(e, ALICE), tol)
    if not bases:
        entangled = [s.name for s, n in zip(e.states, report.schmidt_numbers) if n > 1]
        return SearchOutcome(PROVED_NO, None, report, warnings=warnings, reason=(
            f"no basis of Alice's qubit keeps every pair of states orthogonal; "
            f"entangled: {', '.join(entangled)}"))
    return SearchOutcome(YES, _two_round_protocol(e, bases[0], tol), report,
                         warnings=warnings)


def _two_round_protocol(e: Ensemble, basis: np.ndarray, tol: float) -> ProtocolTree | None:
    """Alice measures in ``basis``; Bob separates each outcome's product
    survivors in their Schmidt completion, one column per survivor in state
    order.  None when an outcome's survivors overlap past ``tol`` or the tree
    fails ``verify_protocol``."""
    alice, children = _phased_columns(basis), []
    for q in alice:
        try:
            sub = surviving_states(e, ALICE, q, tol)
        except EmptyOutcome:
            children.append(Leaf(None))
            continue
        except NotOrthogonal:
            return None
        if sub.m == 1:
            children.append(Leaf(sub.states[0].name))
            continue
        bob = _phased_columns(_schmidt_completion(sub, BOB, tol))
        children.append(Node(ProjectiveMeasurement(BOB, bob),
                             tuple(Leaf(s.name) for s in sub.states)))
    protocol = Node(ProjectiveMeasurement(ALICE, alice), tuple(children))
    return protocol if verify_protocol(protocol, e, tol=tol).ok else None
