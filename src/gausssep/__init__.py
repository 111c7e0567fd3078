"""Separability and P-representability of bipartite Gaussian states."""

from .core import (
    GaussianParams,
    Verdict,
    build_covariance,
    classify,
    classify_batch,
    decompose_blocks,
    min_eigenvalue_hermitian,
    params_from_covariance,
    partial_transpose,
    schur_complement,
)
from .symplectic import (
    InvariantFormResult,
    LocalSymplectic,
    SymplecticInvariants,
    apply_local,
    invariants,
    make_local_symplectic,
    random_local_symplectic,
    random_physical_state,
    random_physical_states,
    reduce_to_invariant_form,
)

__all__ = [
    "GaussianParams",
    "InvariantFormResult",
    "LocalSymplectic",
    "SymplecticInvariants",
    "Verdict",
    "apply_local",
    "build_covariance",
    "classify",
    "classify_batch",
    "decompose_blocks",
    "invariants",
    "make_local_symplectic",
    "min_eigenvalue_hermitian",
    "params_from_covariance",
    "partial_transpose",
    "random_local_symplectic",
    "random_physical_state",
    "random_physical_states",
    "reduce_to_invariant_form",
    "schur_complement",
]

__version__ = "0.1.0"
