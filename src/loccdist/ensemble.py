"""Ensembles of mutually orthogonal states, the Schmidt-sum necessary condition,
the outcome of every decision, canned examples, and generators."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyEnsemble,
    LoccdistError,
    NonFinite,
    NotOrthogonal,
    TooManyStates,
    UnknownExample,
)
from .states import DEFAULT_TOL, BipartiteState, _check_tolerance, make_state, schmidt_ranks

if TYPE_CHECKING:  # protocol imports this module
    from .protocol import ProtocolTree

CANNED_EXAMPLES = ("bell4", "bell3", "bell2", "six4x4", "domino9")

RANDOM_KINDS = ("product-basis", "haar-orthogonal")


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Ordered list of mutually orthogonal states on a shared bipartite space.

    ``max_overlap`` reports the largest pairwise overlap magnitude found at
    validation time.
    """

    dim_a: int
    dim_b: int
    states: tuple[BipartiteState, ...]
    max_overlap: float = 0.0

    @property
    def m(self) -> int:
        return len(self.states)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_a, self.dim_b)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.states)

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """The states' amplitude matrices as one read-only ``(m, dim_a, dim_b)``
        stack, built on first access."""
        stack = np.array([s.amplitudes for s in self.states],
                         dtype=np.complex128).reshape(self.m, self.dim_a, self.dim_b)
        stack.setflags(write=False)
        return stack

    def state(self, label: str) -> BipartiteState:
        for s in self.states:
            if s.name == label:
                return s
        raise KeyError(label)

    def __repr__(self):
        return f"Ensemble({self.dim_a}x{self.dim_b}, m={self.m}, {list(self.labels)})"


def make_ensemble(states, tol: float = DEFAULT_TOL) -> Ensemble:
    """Validate and build an ensemble from a list of states.

    States without a name get a positional one ("s0", "s1", ...).  Raises
    ``EmptyEnsemble``, ``DimensionMismatch``, ``TooManyStates``, ``NonFinite``
    (a NaN or infinite amplitude), or ``NotOrthogonal`` (with the offending
    pair and overlap attached), and ``ValueError`` unless ``tol`` is a finite
    number > 0.
    """
    _check_tolerance(tol)
    states = list(states)
    if not states:
        raise EmptyEnsemble("an ensemble needs at least one state")
    dims = states[0].dims
    for s in states[1:]:
        if s.dims != dims:
            raise DimensionMismatch(f"state dims {s.dims} != ensemble dims {dims}")
    if len(states) > dims[0] * dims[1]:
        raise TooManyStates(
            f"{len(states)} orthogonal states cannot fit in a {dims[0]}x{dims[1]} space"
        )

    named = []
    seen = set()
    for k, s in enumerate(states):
        name = s.name if s.name is not None else f"s{k}"
        if name in seen:
            raise LoccdistError(f"duplicate state label {name!r}")
        seen.add(name)
        if name != s.name:
            s = BipartiteState(s.dim_a, s.dim_b, s.amplitudes, name=name,
                               normalization=s.normalization)
        named.append(s)

    flat = np.array([s.amplitudes for s in named]).reshape(len(named), -1)
    if not np.isfinite(flat).all():
        bad = next(s for s in named if not np.isfinite(s.amplitudes).all())
        raise NonFinite(f"state {bad.name!r} has non-finite amplitudes")
    overlap = overlaps(flat)
    max_overlap = float(overlap.max())
    if max_overlap > tol:
        i, j = np.argwhere(np.triu(overlap > tol))[0]
        raise NotOrthogonal(
            f"states {named[i].name!r} and {named[j].name!r} overlap "
            f"({overlap[i, j]:.3g} > {tol:.3g})",
            pair=(named[i].name, named[j].name),
            overlap=float(overlap[i, j]),
        )
    return Ensemble(dims[0], dims[1], tuple(named), max_overlap=max_overlap)


def overlaps(flat: np.ndarray) -> np.ndarray:
    """``|<j|l>|`` for every pair of rows of a ``(..., m, n)`` stack of flattened
    states, from one Gram product: an ``(..., m, m)`` stack with zero diagonal."""
    g = np.abs(flat.conj() @ np.swapaxes(flat, -1, -2))
    k = np.arange(flat.shape[-2])
    g[..., k, k] = 0.0
    return g


@dataclass(frozen=True)
class SchmidtSumReport:
    """Schmidt ranks of the ensemble members against the joint capacity.

    ``violates`` (the total exceeds the capacity) proves the ensemble cannot
    be reliably distinguished by local measurements and classical
    communication; the converse does not hold.  ``reason`` states that
    proof, and is None when there is none.
    """

    schmidt_numbers: tuple[int, ...]
    total: int
    capacity: int

    @property
    def violates(self) -> bool:
        return self.total > self.capacity

    @property
    def reason(self) -> str | None:
        return (f"Schmidt ranks sum to {self.total} > capacity {self.capacity}"
                if self.violates else None)


#: the verdicts of a ``SearchOutcome``
YES = "yes"
PROVED_NO = "proved-no"
UNKNOWN = "unknown"


@dataclass(frozen=True, eq=False)
class SearchOutcome:
    """Result of every decision: search, ``classify_2x2``, product sets.

    ``verdict`` is "yes" (verified protocol attached), "proved-no" (``reason``
    names the proof), or "unknown" (no candidate of the root, searched to at
    most ``max_depth`` rounds, led to a protocol; ``nodes_explored`` is 1
    when the root rejected them all; depth and ``nodes_explored`` stay 0
    when no search ran).  Every "yes" carries a protocol that
    ``verify_protocol`` accepts.  ``warnings`` lists numerically borderline
    states.
    """

    verdict: str
    protocol: ProtocolTree | None
    schmidt_report: object
    max_depth: int = 0
    nodes_explored: int = 0
    reason: str | None = None
    warnings: tuple[str, ...] = ()


def schmidt_sum_check(e: Ensemble) -> SchmidtSumReport:
    """Necessary condition: sum of Schmidt ranks must not exceed dim_a*dim_b."""
    numbers = tuple(schmidt_ranks(e.amplitudes).tolist())
    return SchmidtSumReport(numbers, sum(numbers), e.dim_a * e.dim_b)


def _mat(dim_a, dim_b, entries):
    out = np.zeros((dim_a, dim_b), dtype=np.complex128)
    for (x, y), v in entries.items():
        out[x, y] = v
    return out


def bell_states() -> list[BipartiteState]:
    """The four maximally entangled two-qubit states A1..A4."""
    specs = [
        ("A1", {(0, 0): 1, (1, 1): 1}),
        ("A2", {(0, 0): 1, (1, 1): -1}),
        ("A3", {(0, 1): 1, (1, 0): 1}),
        ("A4", {(0, 1): 1, (1, 0): -1}),
    ]
    return [make_state(2, 2, _mat(2, 2, d), name=n) for n, d in specs]


def _six4x4_states() -> list[BipartiteState]:
    # Two mirrored three-state blocks: each block holds |i,i>, |j>(|i>+|j>),
    # and |i,j> + |j>(|i>-|j>), for (i, j) = (0, 1) and (2, 3).
    specs = [
        ("psi1", {(0, 0): 1}),
        ("psi2", {(1, 0): 1, (1, 1): 1}),
        ("psi3", {(0, 1): 1, (1, 0): 1, (1, 1): -1}),
        ("psi4", {(2, 2): 1}),
        ("psi5", {(2, 3): 1, (3, 3): 1}),
        ("psi6", {(3, 2): 1, (2, 3): 1, (3, 3): -1}),
    ]
    return [make_state(4, 4, _mat(4, 4, d), name=n) for n, d in specs]


def _domino9_states() -> list[BipartiteState]:
    # The standard 3x3 "domino" orthogonal product basis (literature-derived
    # stress input; included because it defeats naive protocol search).
    s = 1.0
    specs = [
        ("d1", {(1, 1): s}),
        ("d2", {(0, 0): s, (0, 1): s}),
        ("d3", {(0, 0): s, (0, 1): -s}),
        ("d4", {(2, 1): s, (2, 2): s}),
        ("d5", {(2, 1): s, (2, 2): -s}),
        ("d6", {(1, 0): s, (2, 0): s}),
        ("d7", {(1, 0): s, (2, 0): -s}),
        ("d8", {(0, 2): s, (1, 2): s}),
        ("d9", {(0, 2): s, (1, 2): -s}),
    ]
    return [make_state(3, 3, _mat(3, 3, d), name=n) for n, d in specs]


def canned_example(name: str) -> Ensemble:
    """Named example ensembles: bell4, bell3, bell2, six4x4, domino9."""
    if name == "bell4":
        return make_ensemble(bell_states())
    if name == "bell3":
        return make_ensemble(bell_states()[:3])
    if name == "bell2":
        return make_ensemble(bell_states()[:2])
    if name == "six4x4":
        return make_ensemble(_six4x4_states())
    if name == "domino9":
        return make_ensemble(_domino9_states())
    raise UnknownExample(f"unknown example {name!r}; known: {', '.join(CANNED_EXAMPLES)}")


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases[np.newaxis, :]


def random_state(dim_a, dim_b, rng: np.random.Generator, name=None) -> BipartiteState:
    """Haar-random pure state on the joint space."""
    g = rng.standard_normal((dim_a, dim_b)) + 1j * rng.standard_normal((dim_a, dim_b))
    return make_state(dim_a, dim_b, g, name=name)


def random_ensemble(dim_a, dim_b, m, seed, kind: str = "haar-orthogonal",
                    tol: float = DEFAULT_TOL) -> Ensemble:
    """Deterministic random ensemble for a given seed.

    kind "product-basis": the first ``m`` members of a random local product
    basis ``U_A (x) U_B`` applied to the standard basis (every state has
    Schmidt rank 1).  kind "haar-orthogonal": ``m`` orthonormal Haar-random
    vectors of the joint space.
    """
    if m < 1:
        raise EmptyEnsemble(f"m={m}: an ensemble needs at least one state")
    if m > dim_a * dim_b:
        raise TooManyStates(f"m={m} exceeds capacity {dim_a * dim_b}")
    if kind not in RANDOM_KINDS:
        raise LoccdistError(f"unknown random-ensemble kind {kind!r}; known: {RANDOM_KINDS}")
    rng = np.random.default_rng(seed)
    states = []
    if kind == "product-basis":
        ua = haar_unitary(dim_a, rng)
        ub = haar_unitary(dim_b, rng)
        pairs = [(i, j) for i in range(dim_a) for j in range(dim_b)][:m]
        for k, (i, j) in enumerate(pairs):
            states.append(make_state(dim_a, dim_b, np.outer(ua[:, i], ub[:, j]), name=f"s{k}"))
    else:
        u = haar_unitary(dim_a * dim_b, rng)
        for k in range(m):
            states.append(make_state(dim_a, dim_b, u[:, k].reshape(dim_a, dim_b), name=f"s{k}"))
    return make_ensemble(states, tol=tol)
