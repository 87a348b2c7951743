"""Local distinguishability of finite ensembles of orthogonal bipartite pure states.

Decides, certifies, or refutes whether the members of an orthogonal ensemble
can be identified reliably by local projective measurements and classical
communication: Schmidt-structure tooling, a protocol-tree verifier, a
Schmidt-rank-sum necessary condition, product-decomposition certificates, the
complete two-qubit classification, and a bounded protocol search.
"""

from .errors import (
    BadAssignment,
    DecompositionFailure,
    DimensionMismatch,
    EmptyEnsemble,
    EmptyOutcome,
    LoccdistError,
    MalformedTree,
    NonFinite,
    NotOrthogonal,
    NotUnitary,
    ParseError,
    ProductSetNotDistinguishable,
    ReconstructionFailure,
    ShapeMismatch,
    TooManyStates,
    UnknownExample,
    UnknownProtocol,
    VectorsNotOrthogonal,
    WrongDimensions,
    ZeroState,
)
from .states import (
    DEFAULT_TOL,
    RANK_CUTOFF,
    BipartiteState,
    SchmidtDecomposition,
    apply_local_unitary,
    inner_product,
    make_state,
    product_state,
    schmidt_decompose,
    schmidt_number,
)
from .ensemble import (
    CANNED_EXAMPLES,
    Ensemble,
    SchmidtSumReport,
    bell_states,
    canned_example,
    gram_matrix,
    haar_unitary,
    make_ensemble,
    random_ensemble,
    random_state,
    schmidt_sum_check,
)
from .protocol import (
    ALICE,
    BOB,
    BranchOperator,
    Leaf,
    Node,
    OutcomeRecord,
    ProjectiveMeasurement,
    ProtocolTree,
    VerificationReport,
    canned_protocol,
    completeness_check,
    enumerate_branches,
    run_protocol,
    tree_depth,
    verify_protocol,
)
from .search import (
    SearchConfig,
    SearchOutcome,
    candidate_bases,
    cross_operators,
    search_protocol,
    surviving_states,
    valid_measurement,
)
from .criteria import (
    Certificate,
    CertificateReport,
    certificate_check,
    classify_2x2,
    product_set_distinguishable,
)

__version__ = "0.1.0"
