"""Bipartite pure states and their Schmidt structure.

Convention: a pure state of an ``Na x Nb`` system is stored as the complex
matrix ``C`` of shape ``(Na, Nb)`` whose entry ``(x, y)`` multiplies
``|x>_A |y>_B``.  Local maps then act by matrix multiplication: ``(U (x) V)``
sends ``C`` to ``U @ C @ V.T``, an Alice-side projector ``P`` sends ``C`` to
``P @ C``, and a Bob-side projector sends it to ``C @ P.T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionFailure, NonFinite, NotUnitary, ShapeMismatch, ZeroState

#: default absolute tolerance for orthogonality / normalization checks
DEFAULT_TOL = 1e-9

#: a singular value counts toward the Schmidt rank iff it exceeds
#: ``RANK_CUTOFF`` times the largest singular value
RANK_CUTOFF = 1e-9


def _complex_matrix(amplitudes) -> np.ndarray:
    mat = np.asarray(amplitudes, dtype=np.complex128)
    if mat.ndim != 2:
        raise ShapeMismatch(f"amplitudes must be a matrix, got ndim={mat.ndim}")
    return mat


def unit_norm_slack(size: int) -> float:
    """Largest ``|norm - 1|`` that ``make_state`` treats as already normalized.

    The slack is 8 float64 epsilons times ``sqrt(size)``.  Rounding in a
    division by the norm, and in recomputing the norm, grows with the entry
    count roughly like ``sqrt(size)`` (a divided 1000x1000 matrix can sit 27
    epsilons off unit norm), so a divided matrix lands well inside it.
    """
    return 8.0 * float(np.finfo(np.float64).eps) * float(np.sqrt(size))


def _frozen(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Unit-norm pure state on an ``dim_a x dim_b`` bipartite space.

    ``normalization`` records the Frobenius norm of the raw input the state
    was built from; it is exactly 1.0 when the input was already normalized
    (norm within ``unit_norm_slack`` of 1) and so was stored undivided.
    Instances are immutable; the amplitude array is stored read-only.
    """

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray
    name: str | None = None
    normalization: float = 1.0

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ShapeMismatch("local dimensions must be positive")
        mat = _complex_matrix(self.amplitudes)
        if mat.shape != (self.dim_a, self.dim_b):
            raise ShapeMismatch(
                f"amplitude shape {mat.shape} != declared ({self.dim_a}, {self.dim_b})"
            )
        object.__setattr__(self, "amplitudes", _frozen(mat))

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_a, self.dim_b)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self):
        tag = self.name or "?"
        return f"BipartiteState({tag}, {self.dim_a}x{self.dim_b})"


def make_state(dim_a, dim_b, amplitudes, name=None) -> BipartiteState:
    """Build a normalized state, recording the applied normalization factor.

    Normalization is a bitwise fixed point: a matrix whose Frobenius norm is
    within ``unit_norm_slack(dim_a * dim_b)`` (8 epsilons times the square
    root of the entry count) of 1 is kept unchanged, with
    ``normalization == 1.0``; any other matrix is divided by its norm, which
    lands it inside that slack.  Hence
    ``make_state(.., make_state(.., x).amplitudes)`` reproduces the
    amplitudes of ``make_state(.., x)`` bit for bit, and a stored state reads
    back exactly.  A matrix of finite entries whose norm overflows is first
    divided by its largest real or imaginary part.

    Raises ``ZeroState`` for an all-zero matrix, ``NonFinite`` when an entry
    is NaN or infinite, and ``ShapeMismatch`` when the matrix does not have
    shape ``(dim_a, dim_b)``.
    """
    mat = _complex_matrix(amplitudes)
    if mat.shape != (dim_a, dim_b):
        raise ShapeMismatch(f"amplitude shape {mat.shape} != declared ({dim_a}, {dim_b})")
    norm, scale = float(np.linalg.norm(mat)), 1.0
    if not math.isfinite(norm) and np.isfinite(mat).all():
        scale = float(np.max(np.abs([mat.real, mat.imag])))
        mat = mat / scale
        norm = float(np.linalg.norm(mat))
    if not math.isfinite(norm):
        raise NonFinite("amplitudes must be finite numbers")
    if norm < 1e-12:
        raise ZeroState("cannot normalize an all-zero amplitude matrix")
    if scale == 1.0 and abs(norm - 1.0) <= unit_norm_slack(mat.size):
        return BipartiteState(dim_a, dim_b, mat, name=name)
    return BipartiteState(dim_a, dim_b, mat / norm, name=name, normalization=norm * scale)


def product_state(dim_a, dim_b, alice_vector, bob_vector, name=None) -> BipartiteState:
    """State ``|a>|b>`` from local vectors; sides are normalized jointly."""
    a = np.asarray(alice_vector, dtype=np.complex128).reshape(-1)
    b = np.asarray(bob_vector, dtype=np.complex128).reshape(-1)
    if a.shape != (dim_a,) or b.shape != (dim_b,):
        raise ShapeMismatch("local vector lengths do not match the declared dimensions")
    return make_state(dim_a, dim_b, np.outer(a, b), name=name)


def inner_product(s: BipartiteState, t: BipartiteState) -> complex:
    """Hermitian inner product ``<s|t>`` (conjugates the first argument)."""
    if s.dims != t.dims:
        raise ShapeMismatch(f"dimension mismatch: {s.dims} vs {t.dims}")
    return complex(np.vdot(s.amplitudes, t.amplitudes))


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Schmidt form of a bipartite pure state.

    ``weights`` are the squared retained singular values in descending order
    and sum to 1.  ``alice_vectors`` / ``bob_vectors`` hold the corresponding
    orthonormal local vectors as rows, so the amplitude matrix equals
    ``sum_i sqrt(w_i) * outer(alice_vectors[i], bob_vectors[i])``.
    """

    weights: tuple[float, ...]
    alice_vectors: np.ndarray  # (l, dim_a)
    bob_vectors: np.ndarray  # (l, dim_b)

    def __post_init__(self):
        object.__setattr__(self, "alice_vectors", _frozen(self.alice_vectors))
        object.__setattr__(self, "bob_vectors", _frozen(self.bob_vectors))

    @property
    def schmidt_number(self) -> int:
        return len(self.weights)

    def reconstruct(self) -> np.ndarray:
        """Amplitude matrix rebuilt from the decomposition."""
        coeff = np.sqrt(np.asarray(self.weights))
        return np.einsum("i,ia,ib->ab", coeff, self.alice_vectors, self.bob_vectors)


def schmidt_decompose(s: BipartiteState) -> SchmidtDecomposition:
    """SVD-based Schmidt decomposition; keeps singular values above the rank cutoff."""
    try:
        u, sig, vh = np.linalg.svd(s.amplitudes)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise DecompositionFailure(str(exc)) from exc
    keep = sig > RANK_CUTOFF * sig[0]
    rank = int(np.count_nonzero(keep))
    weights = tuple(float(x) for x in sig[:rank] ** 2)
    return SchmidtDecomposition(weights, u[:, :rank].T, vh[:rank, :])


def schmidt_number(s: BipartiteState) -> int:
    """Schmidt rank of the state (1 = product state): the count of singular
    values ``schmidt_decompose`` keeps, computed without the local vectors."""
    sig = np.linalg.svd(s.amplitudes, compute_uv=False)
    return int(np.count_nonzero(sig > RANK_CUTOFF * sig[0]))


def assert_unitary(u: np.ndarray, dim: int, tol: float = DEFAULT_TOL, what="matrix") -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (dim, dim):
        raise NotUnitary(f"{what} has shape {u.shape}, expected ({dim}, {dim})")
    dev = np.abs(u.conj().T @ u - np.eye(dim)).max()
    if dev > tol:
        raise NotUnitary(f"{what} is not unitary (deviation {dev:.3g})")
    return u


def apply_local_unitary(s: BipartiteState, u_a, u_b, tol: float = DEFAULT_TOL) -> BipartiteState:
    """Apply ``U_A (x) U_B``; the result keeps the state's name."""
    ua = assert_unitary(u_a, s.dim_a, tol, "u_a")
    ub = assert_unitary(u_b, s.dim_b, tol, "u_b")
    return BipartiteState(s.dim_a, s.dim_b, ua @ s.amplitudes @ ub.T, name=s.name)
