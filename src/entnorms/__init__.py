"""Entanglement norms for bipartite operators: certified bounds for the
Schmidt-restricted operator norm, the restricted numerical radius, the
projective tensor norm and robustness, plus realignment-based
Schmidt-number detection, generation of seeded test ensembles, and a
command line front end."""

import types

from .criteria import (
    DetectionReport,
    FilterResult,
    cross_norm_test,
    detect_schmidt_number,
    local_filter,
    pure_state_sr_test,
    realignment_value,
    weak_realignment,
)
from .dualnorms import (
    ConjectureProbe,
    Decomposition,
    SnCertification,
    Witness,
    best_gamma_witness,
    build_decomposition,
    certified_upper_from_decomposition,
    conjecture_probe,
    decomposition_from_mixture,
    decomposition_oracle,
    gamma_bounds,
    gamma_pure,
    gamma_rank_one,
    robustness_bounds,
    robustness_to_entanglement,
    sn_certify,
)
from .errors import (
    DegenerateInputError,
    DimensionError,
    EntnormsError,
    InfeasibleError,
    NumericalError,
    ParameterError,
    PreconditionError,
)
from .kyfan import BreakIndexResult, break_index, k2_dual, k2_norm
from .linalg import (
    BipartiteOperator,
    MatrixNorms,
    bipartite,
    eig_hermitian,
    hs_inner,
    is_hermitian,
    kron,
    matrix_norms,
    partial_trace,
    partial_transpose,
    realign,
    realign_inverse,
    svd,
    swap_operator,
)
from .schmidt import (
    PureState,
    SchmidtDecomposition,
    pure_state,
    s_k_dual,
    s_k_norm,
    schmidt_decompose,
    schmidt_rank,
    schmidt_truncate,
)
from .sknorm import (
    BlockPositivityResult,
    NormInterval,
    SeeSawResult,
    block_positivity_check,
    prod_radius_bisect,
    prod_radius_bounds,
    seesaw_lower,
    sk_bounds,
    sk_elementary,
    sk_pure,
)
from .states import KINDS, EnsembleSpec, generate, haar_unitary, sn_bounded_ensemble

__version__ = "0.1.0"

# Every public name imported above, and no submodule.
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
