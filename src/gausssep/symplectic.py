"""Local Sp(2,R) x Sp(2,R) machinery: transforms, invariants, invariant forms.

Local single-mode squeezing-plus-phase operations act on the covariance
matrix as V -> S+ V S with block-diagonal S = S1 (+) S2 and the symplectic
condition S^-1 = E S+ E.  They preserve physicality and separability but
not P-representability, which is the whole point of the invariant-form
analysis: only on the two invariant forms (V1, V2 proportional to the
identity, cross block carrying a single correlation) do separability and
P-representability coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import GaussianParams, Z, build_covariance, params_from_covariance
from .errors import DomainError, PrescriptionInapplicableError, SamplingBudgetError

FORM1 = "form1"
FORM2 = "form2"


@dataclass(frozen=True, eq=False)
class LocalSymplectic:
    """S = S1 (+) S2 with S_i = [[e^{i phi} ch, e^{i vphi} sh],
    [e^{-i vphi} sh, e^{-i phi} ch]] (ch = cosh theta, sh = sinh theta)."""

    theta1: float
    phi1: float
    vphi1: float
    theta2: float
    phi2: float
    vphi2: float
    realized: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        S = np.zeros((4, 4), dtype=complex)
        S[:2, :2] = _single_mode_block(self.theta1, self.phi1, self.vphi1)
        S[2:, 2:] = _single_mode_block(self.theta2, self.phi2, self.vphi2)
        object.__setattr__(self, "realized", S)


def _single_mode_block(theta: float, phi: float, vphi: float) -> np.ndarray:
    ch, sh = math.cosh(theta), math.sinh(theta)
    return np.array(
        [
            [np.exp(1j * phi) * ch, np.exp(1j * vphi) * sh],
            [np.exp(-1j * vphi) * sh, np.exp(-1j * phi) * ch],
        ],
        dtype=complex,
    )


def make_local_symplectic(
    theta1: float,
    phi1: float = 0.0,
    vphi1: float = 0.0,
    theta2: float = 0.0,
    phi2: float = 0.0,
    vphi2: float = 0.0,
) -> LocalSymplectic:
    for v in (theta1, phi1, vphi1, theta2, phi2, vphi2):
        if not math.isfinite(v):
            raise DomainError(f"symplectic parameters must be finite, got {v!r}")
    return LocalSymplectic(theta1, phi1, vphi1, theta2, phi2, vphi2)


def _conjugate(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M+ V M, symmetrized as W/2 + W+/2 against the last-bit Hermiticity loss
    of the two products; halving before adding keeps entries near the float
    limit finite, where (W + W+)/2 would overflow."""
    W = M.conj().T @ V @ M
    W *= 0.5
    return W + W.conj().T


@np.errstate(over="ignore", invalid="ignore")
def apply_local(S: LocalSymplectic, V: np.ndarray) -> np.ndarray:
    """Transformed covariance S+ V S (blockwise V_i -> S_i+ V_i S_i, C -> S1+ C S2);
    OverflowError if an entry is not finite."""
    W = _conjugate(S.realized, np.asarray(V, dtype=complex))
    if not np.isfinite(W).all():
        raise OverflowError("local symplectic transform overflows")
    return W


@dataclass(frozen=True)
class SymplecticInvariants:
    """det V1, det V2, det C and Tr[V1 Z C Z V2 Z C+ Z]; all real and fixed
    under local symplectic conjugation."""

    i1: float
    i2: float
    i3: float
    i4: float


@np.errstate(over="ignore", invalid="ignore")
def invariants(V: np.ndarray) -> SymplecticInvariants:
    """I1..I4 of V; OverflowError if any of them is not finite."""
    V1, V2, C = core.decompose_blocks(V)
    i1 = np.linalg.det(V1).real
    i2 = np.linalg.det(V2).real
    i3 = np.linalg.det(C).real
    i4 = np.trace(V1 @ Z @ C @ Z @ V2 @ Z @ C.conj().T @ Z).real
    if not all(map(math.isfinite, (i1, i2, i3, i4))):
        raise OverflowError("symplectic invariants overflow")
    return SymplecticInvariants(i1=float(i1), i2=float(i2), i3=float(i3), i4=float(i4))


@dataclass(frozen=True, eq=False)
class InvariantFormResult:
    """Outcome of a successful reduction to invariant form 1 or 2."""

    form: str
    nu1: float
    nu2: float
    mu: complex
    transform: LocalSymplectic
    residual: float

    def reduced_params(self) -> GaussianParams:
        return _form_params(self.form, self.nu1, self.nu2, self.mu)


def _form_params(form: str, nu1: float, nu2: float, mu: complex) -> GaussianParams:
    """Invariant form ``form``: V1 = nu1 I, V2 = nu2 I and the one cross
    correlation mu, mc in form 1 and ms in form 2."""
    return GaussianParams(n1=nu1, n2=nu2, **{"mc" if form == FORM1 else "ms": mu})


def _squeeze_angles(m: complex, n: float) -> tuple[float, float]:
    """(theta, phi) for one mode: tanh 2 theta = |m|/n, phi = -mu + pi with
    e^{-i mu} = m/|m|; m = 0 means no squeezing is needed."""
    r = abs(m)
    if r == 0.0:
        return 0.0, math.pi
    if r >= n:
        raise DomainError(f"squeeze angle undefined: |m| = {r} >= n = {n}")
    theta = 0.5 * math.atanh(r / n)
    mu = -math.atan2(m.imag, m.real)
    return theta, -mu + math.pi


def reduction_transform(p: GaussianParams) -> LocalSymplectic:
    """The prescribed local symplectic for reducing ``p`` to an invariant form."""
    theta1, phi1 = _squeeze_angles(p.m1, p.n1)
    theta2, phi2 = _squeeze_angles(p.m2, p.n2)
    return LocalSymplectic(theta1, phi1, 0.0, theta2, phi2, 0.0)


def reduce_to_invariant_form(p: GaussianParams) -> InvariantFormResult:
    """Apply the squeeze-and-phase prescription and verify the target pattern.

    The prescription fixes each mode's squeeze from its own local anomalous
    term only; inputs whose transformed matrix does not rebuild from the
    target form's parameters (the structural rule of
    ``core.params_from_covariance``) raise PrescriptionInapplicableError
    carrying the residual.
    """
    V = build_covariance(p)
    if not core._physical_margin_eig(V) >= -core.TOL_PSD:
        raise DomainError("invariant-form reduction requires a physical state")
    S = reduction_transform(p)
    W = apply_local(S, V)

    form = FORM1 if abs(p.mc) >= abs(p.ms) else FORM2
    nu1 = float((W[0, 0].real + W[1, 1].real) / 2)
    nu2 = float((W[2, 2].real + W[3, 3].real) / 2)
    mu = complex(W[0, 3]) if form == FORM1 else complex(W[0, 2])
    residual, ok = core._rebuild_residual(W, _form_params(form, nu1, nu2, mu))
    if not ok:
        raise PrescriptionInapplicableError(
            f"reduction to {form} failed: residual {residual:.3e} exceeds {core.TOL_PATTERN:.1e}",
            residual,
        )
    return InvariantFormResult(
        form=form, nu1=nu1, nu2=nu2, mu=mu, transform=S, residual=residual
    )


# ---------------------------------------------------------------------------
# Random generation


def random_local_symplectic(rng: np.random.Generator, theta_max: float = 1.5) -> LocalSymplectic:
    theta1, theta2 = rng.uniform(0.0, theta_max, size=2)
    phi1, vphi1, phi2, vphi2 = rng.uniform(0.0, 2 * math.pi, size=4)
    return LocalSymplectic(theta1, phi1, vphi1, theta2, phi2, vphi2)


def two_mode_mixer(r: float, gamma: float) -> np.ndarray:
    """Symplectic 4x4 two-mode-squeezing matrix coupling the modes.

    Satisfies M+ E M = E, so conjugation V -> M+ V M preserves physicality
    while generating cross correlations.
    """
    ch, sh = math.cosh(r), math.sinh(r)
    ep, em = np.exp(1j * gamma), np.exp(-1j * gamma)
    return np.array(
        [
            [ch, 0, 0, em * sh],
            [0, ch, ep * sh, 0],
            [0, em * sh, ch, 0],
            [ep * sh, 0, 0, ch],
        ],
        dtype=complex,
    )


# The draws of random_physical_state.
NU_MAX = 5.0  # construct: thermal occupations in [0.5, NU_MAX]
THETA_MAX = 1.0  # construct: local squeezes in [0, THETA_MAX]
R_MAX = 1.0  # construct: two-mode squeeze in [0, R_MAX]
MAX_DRAWS = 10**6  # reject: draw budget


def random_physical_state(rng: np.random.Generator, mode: str = "construct") -> GaussianParams:
    """Draw a parameter set that passes the physicality eigen-check.

    ``construct``: conjugate a diagonal thermal matrix by a random local
    symplectic and a random two-mode mixer (physical by construction).
    ``reject``: draw all six parameters from boxes (n_i in [0.5, 3],
    |m| <= 1) and accept iff the eigen-oracle says physical, within
    ``MAX_DRAWS`` draws.
    """
    if mode == "construct":
        nu1, nu2 = rng.uniform(0.5, NU_MAX, size=2)
        V = np.diag([nu1, nu1, nu2, nu2]).astype(complex)
        S = random_local_symplectic(rng, theta_max=THETA_MAX)
        V = apply_local(S, V)
        M = two_mode_mixer(rng.uniform(0.0, R_MAX), rng.uniform(0.0, 2 * math.pi))
        return params_from_covariance(_conjugate(M, V))
    if mode == "reject":
        for _ in range(MAX_DRAWS):
            p = random_params(rng, n_lo=0.5, n_hi=3.0, m_max=1.0)
            if core._physical_margin_eig(build_covariance(p)) >= -core.TOL_PSD:
                return p
        raise SamplingBudgetError(f"no physical state found in {MAX_DRAWS} draws")
    raise ValueError(f"unknown sampling mode {mode!r}")


def random_params(
    rng: np.random.Generator,
    n_lo: float = 0.4,
    n_hi: float = 3.0,
    m_max: float = 1.0,
) -> GaussianParams:
    """Unconstrained box draw (physical or not), for oracle cross-validation."""
    n1, n2 = rng.uniform(n_lo, n_hi, size=2)
    mods = rng.uniform(0.0, m_max, size=4)
    args = rng.uniform(0.0, 2 * math.pi, size=4)
    m1, m2, ms, mc = (mod * np.exp(1j * a) for mod, a in zip(mods, args))
    return GaussianParams(n1=n1, n2=n2, m1=m1, m2=m2, ms=ms, mc=mc)
