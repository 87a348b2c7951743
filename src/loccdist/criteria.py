"""Decision criteria for local distinguishability.

Three layers: a cheap necessary condition (the Schmidt ranks of a reliably
distinguishable ensemble sum to at most the joint dimension; defined in
``ensemble`` and bound here), certificate checking (each state written as a
superposition of its own share of a locally distinguishable orthogonal
product-vector set, built once as the ensemble the search decides), and
the classification of two-qubit ensembles from Alice's cross operators,
complete outside a margin, whose "yes" carries the search's verified
protocol.  The decisions return the search's own
``SearchOutcome``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .ensemble import (
    PROVED_NO,
    UNKNOWN,
    YES,
    Ensemble,
    SearchOutcome,
    make_ensemble,
    schmidt_sum_check,
)
from .errors import (
    BadAssignment,
    NotOrthogonal,
    ProductSetNotDistinguishable,
    ReconstructionFailure,
    ShapeMismatch,
    TooManyStates,
    VectorsNotOrthogonal,
    WrongDimensions,
    ZeroState,
)
from .protocol import ALICE, Leaf, Node, ProtocolTree, VerificationReport, verify_protocol
from .search import (
    SearchConfig,
    _hermitian_parts,
    _no_traceless_room,
    _qubit_plane_bases,
    cross_operators,
    search_protocol,
)
from .states import DEFAULT_TOL, RANK_CUTOFF, _check_tolerance, frobenius_norms, product_state


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


def _product_ensemble(vectors, dims, tol: float) -> Ensemble:
    """The product states ``|a>|b>`` of (alice, bob) vector pairs, the k-th
    labelled ``v<k>``, as one ensemble validated by ``make_ensemble`` at
    ``tol``."""
    dim_a, dim_b = dims
    return make_ensemble([product_state(dim_a, dim_b, a, b, name=f"v{k}")
                          for k, (a, b) in enumerate(vectors)], tol=tol)


def product_set_distinguishable(vectors, dims, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Search for a protocol identifying each product vector.

    ``vectors`` is a sequence of (alice, bob) pairs, pairwise orthogonal as
    joint vectors within ``cfg.tolerance`` (``NotOrthogonal`` otherwise).
    The vector ``k`` is labelled ``v<k>``.  An "unknown" verdict only means
    the bounded search was exhausted, not impossibility.
    """
    cfg = cfg or SearchConfig()
    return search_protocol(_product_ensemble(vectors, dims, cfg.tolerance), cfg)


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
                      cfg: SearchConfig | None = None) -> CertificateReport:
    """Validate a certificate; success proves the ensemble distinguishable.

    Checks, in order: the assignment structure (``BadAssignment``: every
    label maps to a nonempty sequence of distinct integer indices in range,
    with as many coefficients, each a number); per
    vector, a factor of the wrong length (``ShapeMismatch``) or of norm below
    ``1e-12`` (``ZeroState``), each naming the vector; pairwise joint
    orthogonality of the product vectors (``VectorsNotOrthogonal``, also with
    more vectors than the joint dimension); reconstruction of every state
    from its assigned vectors (``ReconstructionFailure``, also when the
    error is NaN or infinite); and local
    distinguishability of the vector set, searched with ``cfg``
    (``ProductSetNotDistinguishable``); every step uses ``cfg.tolerance``.
    The vectors are normalized and checked once, as one ensemble
    (``_product_ensemble``) that also rebuilds the states and is searched.
    On success the product-set protocol is relabeled and re-verified.
    """
    cfg = cfg or SearchConfig()
    tol = cfg.tolerance
    n = len(cert.product_vectors)
    labels = set(e.labels)
    if set(cert.assignment) != labels:
        missing = labels - set(cert.assignment)
        extra = set(cert.assignment) - labels
        raise BadAssignment(f"assignment labels mismatch (missing {sorted(missing)}, "
                            f"unknown {sorted(extra)})")
    seen: dict[int, str] = {}
    coefficients = np.zeros((len(cert.assignment), n), dtype=np.complex128)
    for row, (label, indices) in enumerate(cert.assignment.items()):
        try:
            indices = tuple(indices)
        except TypeError:
            indices = ()
        if not indices:
            raise BadAssignment(f"state {label!r} needs a nonempty sequence of vector indices")
        for idx in indices:
            if isinstance(idx, bool) or not isinstance(idx, Integral):
                raise BadAssignment(f"state {label!r} references {idx!r}, not a vector index")
            if not 0 <= idx < n:
                raise BadAssignment(f"state {label!r} references vector {idx} "
                                    f"out of range 0..{n - 1}")
            if idx in seen:
                raise BadAssignment(f"vector {idx} assigned to both {seen[idx]!r} "
                                    f"and {label!r}")
            seen[idx] = label
        try:  # a missing entry is None, which gives a 0-d array
            coeffs = np.asarray(cert.coefficients.get(label), dtype=np.complex128)
        except (TypeError, ValueError):
            coeffs = None
        if coeffs is None or coeffs.shape != (len(indices),):
            raise BadAssignment(f"state {label!r} needs one coefficient per "
                                f"assigned vector")
        coefficients[row, list(indices)] = coeffs

    for k, pair in enumerate(cert.product_vectors):
        factors = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in pair]
        if tuple(f.size for f in factors) != e.dims:
            raise ShapeMismatch(f"product vector {k} needs factors of lengths {e.dims}")
        if min(np.linalg.norm(f) for f in factors) < 1e-12:
            raise ZeroState(f"product vector {k} has a zero factor")
    try:
        products = _product_ensemble(cert.product_vectors, e.dims, tol)
    except TooManyStates as exc:
        raise VectorsNotOrthogonal(f"{n} product vectors cannot be pairwise orthogonal "
                                   f"in a {e.dim_a}x{e.dim_b} space") from exc
    except NotOrthogonal as exc:
        i, j = (int(name[1:]) for name in exc.pair)
        raise VectorsNotOrthogonal(
            f"product vectors {i} and {j} overlap ({exc.overlap:.3g} > {tol:.3g})",
            pair=(i, j), overlap=exc.overlap) from exc

    targets = np.array([e.state(label).amplitudes for label in cert.assignment])
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite coefficients give NaN
        rebuilt = np.tensordot(coefficients, products.amplitudes, axes=1)
        errors = dict(zip(cert.assignment, frobenius_norms(rebuilt - targets).tolist()))
    for label, err in errors.items():
        if not err <= tol:  # "not <=" also fails on NaN
            raise ReconstructionFailure(
                f"state {label!r} not reproduced by its assigned vectors "
                f"(error {err:.3g})")

    result = search_protocol(products, cfg)
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
        max_pairwise_overlap=products.max_overlap,
        reconstruction_errors=errors,
        product_protocol=result.protocol,
        ensemble_protocol=refined,
        verification=verification,
    )


def _borderline_warnings(e: Ensemble) -> tuple[str, ...]:
    out = []
    for s, sig in zip(e.states, np.linalg.svd(e.amplitudes, compute_uv=False)):
        cut = RANK_CUTOFF * sig[0]
        smallest = sig[-1]
        if cut / 10 < smallest <= 10 * cut:
            out.append(f"state {s.name!r}: smallest singular value {smallest:.3g} "
                       f"is within 10x of the rank cutoff {cut:.3g}")
    return tuple(out)


def classify_2x2(e: Ensemble, *, tol: float = DEFAULT_TOL) -> SearchOutcome:
    """Classification of two-qubit ensembles (Walgate & Hardy, PRL 89, 147901
    (2002)), complete outside a margin.

    The states are distinguishable iff Alice has a qubit basis in which every
    cross operator (``cross_operators``) has zero diagonal.  "proved-no",
    whose ``reason`` names the entangled states, needs the search's
    Bloch-plane solver to find no basis and ``_no_traceless_room`` to prove
    that none keeps every ``tr(P M)`` within ``tol``.  Otherwise
    ``search_protocol`` runs with the default bounds and ``tol``: its "yes"
    carries a verified protocol, and anything else is "unknown".
    ``warnings`` lists states whose smallest singular value sits near the
    rank cutoff (a borderline product/entangled call).  ``tol`` must be
    finite and > 0 (``ValueError`` otherwise).
    """
    _check_tolerance(tol)
    if e.dims != (2, 2):
        raise WrongDimensions(f"classify_2x2 needs a 2x2 ensemble, got "
                              f"{e.dim_a}x{e.dim_b}")
    warnings = _borderline_warnings(e)
    sides = cross_operators(e, ALICE)
    if not _qubit_plane_bases(sides, tol) and _no_traceless_room(_hermitian_parts(sides, tol), tol):
        report = schmidt_sum_check(e)
        entangled = [s.name for s, n in zip(e.states, report.schmidt_numbers) if n > 1]
        return SearchOutcome(PROVED_NO, None, report, warnings=warnings, reason=(
            f"no basis of Alice's qubit keeps every pair of states orthogonal; "
            f"entangled: {', '.join(entangled)}"))
    found = search_protocol(e, SearchConfig(tolerance=tol))
    return SearchOutcome(YES if found.verdict == YES else UNKNOWN, found.protocol,
                         found.schmidt_report, warnings=warnings)
