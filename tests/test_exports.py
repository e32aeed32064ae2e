"""The package exports every public name it imports, and no submodule."""

import types

import entnorms

EXPORTED = {
    "BipartiteOperator", "BlockPositivityResult", "BreakIndexResult", "ConjectureProbe",
    "Decomposition", "DegenerateInputError", "DetectionReport", "DimensionError",
    "EnsembleSpec", "EntnormsError", "FilterResult", "InfeasibleError", "KINDS",
    "MatrixNorms", "NormInterval", "NumericalError", "ParameterError",
    "PreconditionError", "PureState", "SchmidtDecomposition", "SeeSawResult",
    "SnCertification", "Witness", "best_gamma_witness", "bipartite",
    "block_positivity_check", "break_index", "build_decomposition",
    "certified_upper_from_decomposition", "conjecture_probe", "cross_norm_test",
    "decomposition_from_mixture", "decomposition_oracle", "detect_schmidt_number",
    "eig_hermitian", "gamma_bounds", "gamma_pure", "gamma_rank_one", "generate",
    "haar_unitary", "hs_inner", "is_hermitian", "k2_dual", "k2_norm", "kron",
    "local_filter", "matrix_norms", "partial_trace", "partial_transpose",
    "prod_radius_bisect", "prod_radius_bounds", "pure_state", "pure_state_sr_test",
    "realign", "realign_inverse", "realignment_value", "robustness_bounds",
    "robustness_to_entanglement", "s_k_dual", "s_k_norm", "schmidt_decompose",
    "schmidt_rank", "schmidt_truncate", "seesaw_lower", "sk_bounds", "sk_elementary",
    "sk_pure", "sn_bounded_ensemble", "sn_certify", "svd", "swap_operator",
    "weak_realignment",
}


def test_all_lists_the_public_api():
    assert len(entnorms.__all__) == len(EXPORTED) == 72
    assert set(entnorms.__all__) == EXPORTED
    assert all(not isinstance(getattr(entnorms, name), types.ModuleType) for name in entnorms.__all__)

