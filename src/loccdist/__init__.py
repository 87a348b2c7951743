"""Local distinguishability of finite ensembles of orthogonal bipartite pure states.

Decides, certifies, or refutes whether the members of an orthogonal ensemble
can be identified reliably by local projective measurements and classical
communication: Schmidt-structure tooling, a protocol-tree verifier, a
Schmidt-rank-sum necessary condition, product-decomposition certificates, the
two-qubit classification, and a bounded protocol search.

``import loccdist`` loads no submodule and no numpy.  The first access to a
public name imports the submodule that defines it and binds the name in this
namespace, so every later lookup is a plain attribute read of the value the
submodule held at that first access.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the public names it defines
_EXPORTS = {
    "errors": ("DEFAULT_TOL", "BadAssignment", "DecompositionFailure", "DimensionMismatch",
               "EmptyEnsemble", "EmptyOutcome", "LoccdistError", "MalformedTree", "NonFinite",
               "NotOrthogonal", "NotUnitary", "ParseError", "ProductSetNotDistinguishable",
               "ReconstructionFailure", "ShapeMismatch", "TooManyStates", "UnknownExample",
               "UnknownProtocol", "VectorsNotOrthogonal", "WrongDimensions", "ZeroState"),
    "states": ("BipartiteState", "SchmidtDecomposition", "apply_local_unitary",
               "make_state", "product_state", "schmidt_decompose", "schmidt_number"),
    "ensemble": ("CANNED_EXAMPLES", "Ensemble", "SchmidtSumReport", "SearchOutcome",
                 "bell_states", "canned_example", "haar_unitary",
                 "make_ensemble", "random_ensemble", "random_state", "schmidt_sum_check"),
    "protocol": ("ALICE", "BOB", "BranchOperator", "Leaf", "Node", "OutcomeRecord",
                 "ProjectiveMeasurement", "ProtocolTree", "VerificationReport",
                 "canned_protocol", "completeness_check", "enumerate_branches", "run_protocol",
                 "tree_depth", "verify_protocol"),
    "search": ("SearchConfig", "candidate_bases", "cross_operators", "search_protocol",
               "surviving_states", "valid_measurement"),
    "criteria": ("Certificate", "CertificateReport", "certificate_check", "classify_2x2",
                 "product_set_distinguishable"),
    "cli": (),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
