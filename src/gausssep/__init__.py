"""Separability and P-representability of bipartite Gaussian states."""

from .core import (
    GaussianParams,
    Verdict,
    build_covariance,
    classify,
    classify_batch,
    params_from_covariance,
)
from .symplectic import (
    InvariantFormResult,
    LocalSymplectic,
    SymplecticInvariants,
    apply_local,
    invariants,
    make_local_symplectic,
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
    "invariants",
    "make_local_symplectic",
    "params_from_covariance",
    "random_physical_states",
    "reduce_to_invariant_form",
]

__version__ = "0.1.0"
