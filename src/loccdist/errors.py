"""Exception types and the default tolerance, shared across the package.

This module imports nothing, so the command line can read ``DEFAULT_TOL``
for its option defaults without loading numpy.
"""

#: default absolute tolerance for orthogonality / normalization checks
DEFAULT_TOL = 1e-9


class LoccdistError(Exception):
    """Base class for every error raised by this package."""


class ZeroState(LoccdistError):
    """A state was constructed from an all-zero amplitude matrix."""


class NonFinite(LoccdistError):
    """A number that must be finite is NaN or infinite."""


class ShapeMismatch(LoccdistError):
    """Amplitude or operator shape differs from the declared dimensions."""


class NotUnitary(LoccdistError):
    """A matrix expected to be unitary / orthonormal is not, within tolerance."""


class DecompositionFailure(LoccdistError):
    """Numerical factorization (SVD) failed to converge."""


class DimensionMismatch(LoccdistError):
    """Objects defined on different local dimensions were combined."""


class EmptyEnsemble(LoccdistError):
    """An ensemble needs at least one state."""


class NotOrthogonal(LoccdistError):
    """A pair of states (or product vectors) has a nonzero overlap.

    Carries the offending pair and the overlap magnitude when known.
    """

    def __init__(self, message, pair=None, overlap=None):
        super().__init__(message)
        self.pair = pair
        self.overlap = overlap


class TooManyStates(LoccdistError):
    """More mutually orthogonal states were requested than the space holds."""


class UnknownExample(LoccdistError):
    """Unknown canned-ensemble name."""


class UnknownProtocol(LoccdistError):
    """Unknown canned-protocol name."""


class MalformedTree(LoccdistError):
    """A protocol tree violates its structural invariants."""


class WrongDimensions(LoccdistError):
    """An operation restricted to specific local dimensions got something else."""


class EmptyOutcome(LoccdistError):
    """No ensemble member survives a measurement outcome."""


class BadAssignment(LoccdistError):
    """Certificate assignment is not a disjoint family of nonempty subsets."""


class ReconstructionFailure(LoccdistError):
    """Certificate coefficients do not reproduce the claimed state."""


class VectorsNotOrthogonal(LoccdistError):
    """Certificate product vectors are not pairwise orthogonal as joint vectors."""

    def __init__(self, message, pair=None, overlap=None):
        super().__init__(message)
        self.pair = pair
        self.overlap = overlap


class ProductSetNotDistinguishable(LoccdistError):
    """No discrimination protocol was found for the certificate's product set."""


class ParseError(LoccdistError):
    """A file could not be parsed; carries a location string."""

    def __init__(self, message, location=None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location
