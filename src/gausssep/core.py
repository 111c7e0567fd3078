"""Covariance-matrix model and positivity criteria for bipartite Gaussian states.

A two-mode Gaussian state is fully described (up to first moments, which are
irrelevant for the questions treated here) by a Hermitian 4x4 covariance
matrix in the ordering (a1+, a1, a2+, a2), parametrized by six scalars:
the real occupations n1, n2 and the complex correlations m1, m2 (local
anomalous terms), ms (beamsplitter-type cross term) and mc (two-mode
squeezing cross term).

Three nested positivity conditions are implemented, each both in closed form
(via a 2x2 Schur complement of the shifted matrix) and through a direct
minimum-eigenvalue oracle:

* physicality:        V + E/2 >= 0
* separability:       T V T + E/2 >= 0   (partial phase-space mirror)
* P-representability: V - I/2 >= 0

Separability is physicality of the partial transpose (Simon's criterion), so
it has no code of its own: both its margins are the physicality code run on
the mirrored parameters ``p.mirror()``, the closed form with the mirrored
intermediates (s, conj(c), d), the oracle on ``build_covariance(p.mirror())``
(``partial_transpose`` of the covariance; once E/2 is added, bit for bit).
The closed-form n2 bounds used here are the oracle-consistent ones,

    n2 >= s/d + sqrt( (1 - delta/d)^2 / 4 + |m2 - c/d|^2 ),

with delta = |mc|^2 - |ms|^2 (the mirror flips its sign and conjugates
m2 and c), and

    n2 >= 1/2 + s'/d' + |m2 - c'/d'|

for P-representability.  These agree with the eigenvalue oracle to machine
precision; see tests for the cross-validation.

``classify`` is the only verdict API.  The n2 folds of the ``sweep``
command (closed-form bounds, the literal published P-fold and the
eigen-oracle bisection at degenerate points) also live here.  A fold is
``inf`` when its mode-1 condition fails (d < 0, or V1 - I/2 not >= 0 for P),
the test the closed margins apply too; ``prep_below_sep`` counts the P-fold
as below the S-fold only by more than ``FOLD_GAP_RTOL`` * max(1, S-fold).
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBoundError,
    InvalidParameterError,
    SingularBlockError,
    StructuralError,
)

# Absolute tolerances; all matrices handled here are 4x4 and O(1).
TOL_PSD = 1e-10
TOL_HERM = 1e-12
TOL_SING = 1e-12
FOLD_GAP_RTOL = 1e-12  # relative gap below which the sweep's P- and S-folds tie

# Canonical constant matrices.
Z = np.diag([1.0, -1.0])
X = np.array([[0.0, 1.0], [1.0, 0.0]])
I2 = np.eye(2)
I4 = np.eye(4)
E = np.block([[Z, np.zeros((2, 2))], [np.zeros((2, 2)), Z]])
T = np.block([[I2, np.zeros((2, 2))], [np.zeros((2, 2)), X]])

METHOD_CLOSED = "closed-form"
METHOD_EIG = "eigen-oracle"


@dataclass(frozen=True)
class GaussianParams:
    """The six scalar parameters of a two-mode covariance matrix.

    No physicality is assumed: unphysical parameter sets are representable
    on purpose, only finite values and n1, n2 >= 0 are enforced.
    """

    n1: float
    n2: float
    m1: complex = 0.0
    m2: complex = 0.0
    ms: complex = 0.0
    mc: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n1", float(self.n1))
        object.__setattr__(self, "n2", float(self.n2))
        for name in ("m1", "m2", "ms", "mc"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        values = (self.n1, self.n2, self.m1, self.m2, self.ms, self.mc)
        if not all(cmath.isfinite(v) for v in values):
            raise InvalidParameterError(f"parameters must be finite, got {self}")
        if self.n1 < 0.0 or self.n2 < 0.0:
            raise InvalidParameterError(
                f"occupations must be nonnegative, got n1={self.n1}, n2={self.n2}"
            )

    def mirror(self) -> "GaussianParams":
        """Parameter-level partial transpose: swap ms <-> mc, conjugate m2."""
        return GaussianParams(
            n1=self.n1,
            n2=self.n2,
            m1=self.m1,
            m2=self.m2.conjugate(),
            ms=self.mc,
            mc=self.ms,
        )


@dataclass(frozen=True)
class ClosedFormIntermediates:
    """Scalar intermediates of the closed-form bounds.

    (s, c, d) belong to the physicality/separability family, (s_p, c_p, d_p)
    to the P-representability family.
    """

    s: float
    c: complex
    d: float
    s_p: float
    c_p: complex
    d_p: float

    def mirror(self) -> "ClosedFormIntermediates":
        """The intermediates of the mirrored parameters: c and c' conjugate,
        the rest is invariant (bit for bit, by the groupings in
        ``intermediates``)."""
        return dataclasses.replace(self, c=self.c.conjugate(), c_p=self.c_p.conjugate())


@dataclass(frozen=True)
class Verdict:
    """Classification record for one state.

    ``separable`` and ``p_representable`` are None (not applicable) whenever
    the state is unphysical: unphysical operators are outside both sets.
    Margins are signed distances to the respective decision boundaries
    (minimum eigenvalue of the shifted matrix for the eigen-oracle, the
    smaller of the mode-1 margin and n2 minus the n2 bound for the closed
    form); NaN when not applicable.
    """

    physical: bool
    separable: bool | None
    p_representable: bool | None
    margin_physical: float
    margin_separable: float
    margin_prep: float
    method: str
    fallbacks: tuple[str, ...] = ()


def intermediates(p: GaussianParams) -> ClosedFormIntermediates:
    """Compute (s, c, d) and the primed P-representability family."""
    n1, m1, ms, mc = p.n1, p.m1, p.ms, p.mc
    # Groupings below are chosen so that swapping ms <-> mc yields the exact
    # complex conjugate bit for bit (the mirror identity is tested exactly).
    s = n1 * (abs(mc) ** 2 + abs(ms) ** 2) - (2.0 * (mc * ms * m1.conjugate()).real)
    c = (2.0 * n1) * (ms.conjugate() * mc) - (
        mc**2 * m1.conjugate() + ms.conjugate() ** 2 * m1
    )
    d = n1**2 - 0.25 - abs(m1) ** 2
    h = n1 - 0.5
    s_p = h * (abs(mc) ** 2 + abs(ms) ** 2) - (2.0 * (mc * ms * m1.conjugate()).real)
    c_p = (2.0 * h) * (ms.conjugate() * mc) - (
        mc**2 * m1.conjugate() + ms.conjugate() ** 2 * m1
    )
    d_p = h**2 - abs(m1) ** 2
    if not all(cmath.isfinite(v) for v in (s, c, d, s_p, c_p, d_p)):
        raise OverflowError(f"closed-form intermediates overflow for {p}")
    return ClosedFormIntermediates(s=s, c=c, d=d, s_p=s_p, c_p=c_p, d_p=d_p)


def build_covariance(p: GaussianParams) -> np.ndarray:
    """Assemble the 4x4 covariance matrix in the (a1+, a1, a2+, a2) ordering."""
    n1, n2, m1, m2, ms, mc = p.n1, p.n2, p.m1, p.m2, p.ms, p.mc
    return np.array(
        [
            [n1, m1, ms, mc],
            [m1.conjugate(), n1, mc.conjugate(), ms.conjugate()],
            [ms.conjugate(), mc, n2, m2],
            [mc.conjugate(), ms, m2.conjugate(), n2],
        ],
        dtype=complex,
    )


def _require_hermitian(M: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise StructuralError(f"expected a square matrix, got shape {M.shape}")
    dev = np.abs(M - M.conj().T).max()
    if dev > tol:
        raise StructuralError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    return M


def params_from_covariance(V: np.ndarray, tol: float = 1e-9) -> GaussianParams:
    """Read the six parameters off a structured 4x4 covariance matrix.

    Rejects matrices that are not Hermitian or do not carry the required
    conjugation pattern between the two rows of each mode.
    """
    V = _require_hermitian(V, tol)
    if V.shape != (4, 4):
        raise StructuralError(f"expected a 4x4 matrix, got shape {V.shape}")
    checks = [
        abs(V[0, 0] - V[1, 1]),
        abs(V[2, 2] - V[3, 3]),
        abs(V[0, 0].imag),
        abs(V[2, 2].imag),
        abs(V[0, 2] - V[1, 3].conjugate()),
        abs(V[0, 3] - V[1, 2].conjugate()),
    ]
    if max(checks) > tol:
        raise StructuralError(
            "matrix does not have the two-mode covariance pattern "
            f"(max deviation {max(checks):.3e})"
        )
    return GaussianParams(
        n1=V[0, 0].real,
        n2=V[2, 2].real,
        m1=V[0, 1],
        m2=V[2, 3],
        ms=V[0, 2],
        mc=V[0, 3],
    )


def decompose_blocks(V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split V into the local blocks V1, V2 and the cross-correlation block C."""
    V = _require_hermitian(V)
    return V[:2, :2].copy(), V[2:, 2:].copy(), V[:2, 2:].copy()


def min_eigenvalue_hermitian(M: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (oracle backend)."""
    M = _require_hermitian(M)
    return float(np.linalg.eigvalsh(M)[0])


def schur_complement(
    V1: np.ndarray,
    V2: np.ndarray,
    C: np.ndarray,
    shift1: np.ndarray,
    shift2: np.ndarray,
) -> np.ndarray:
    """(V2 + shift2) - C+ (V1 + shift1)^-1 C, for the block positivity test."""
    A = np.asarray(V1, dtype=complex) + np.asarray(shift1, dtype=complex)
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det) <= TOL_SING:
        raise SingularBlockError(f"upper-left block is singular (|det| = {abs(det):.3e})")
    Ainv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]], dtype=complex) / det
    C = np.asarray(C, dtype=complex)
    return np.asarray(V2, dtype=complex) + np.asarray(shift2, dtype=complex) - C.conj().T @ Ainv @ C


def partial_transpose(V: np.ndarray) -> np.ndarray:
    """Partial phase-space mirror on mode 2: V -> T V T."""
    V = _require_hermitian(V)
    return T @ V @ T


# ---------------------------------------------------------------------------
# Closed-form n2 bounds and margins


def _physical_bound(p: GaussianParams, im: ClosedFormIntermediates) -> float:
    if im.d <= TOL_SING:
        raise DegenerateBoundError(f"physicality bound degenerate: d = {im.d:.3e}")
    delta = abs(p.mc) ** 2 - abs(p.ms) ** 2
    return im.s / im.d + math.sqrt(
        0.25 * (1.0 - delta / im.d) ** 2 + abs(p.m2 - im.c / im.d) ** 2
    )


def _prep_bound(p: GaussianParams, im: ClosedFormIntermediates) -> float:
    if im.d_p <= TOL_SING or p.n1 < 0.5:
        raise DegenerateBoundError(f"no P-representability bound: d' = {im.d_p:.3e}, n1 = {p.n1}")
    return 0.5 + im.s_p / im.d_p + abs(p.m2 - im.c_p / im.d_p)


def physicality_bound_n2(p: GaussianParams) -> float:
    """Smallest n2 compatible with V + E/2 >= 0, at fixed remaining parameters.

    Requires d = n1^2 - 1/4 - |m1|^2 > 0; degenerate or negative d raises
    DegenerateBoundError (negative d means the mode-1 condition already
    fails, so no n2 bound exists).  The separability bound is this function
    applied to ``p.mirror()``.
    """
    return _physical_bound(p, intermediates(p))


def prep_bound_n2(p: GaussianParams) -> float:
    """Smallest n2 with V - I/2 >= 0, at fixed remaining parameters.

    Degenerate d' raises DegenerateBoundError, and so does any state whose
    mode-1 condition n1 - 1/2 >= |m1| fails (d' < 0, or n1 < 1/2 with
    d' > 0), since then no n2 bound exists.
    """
    return _prep_bound(p, intermediates(p))


# Mode-1 rules: if the mode-1 block fails, no n2 meets the criterion (fold inf).
def _physical_mode1_fails(p: GaussianParams, im: ClosedFormIntermediates) -> bool:
    return im.d < -TOL_SING  # V1 + Z/2 >= 0 fails


def _prep_mode1_fails(p: GaussianParams, im: ClosedFormIntermediates) -> bool:
    # V1 - I/2 >= 0 fails.  n1 < 1/2 counts only off the degenerate band
    # |d'| <= TOL_SING, where the eigen-oracle decides.
    return im.d_p < -TOL_SING or (im.d_p > TOL_SING and p.n1 < 0.5)


def _physical_margin_closed(p: GaussianParams, im: ClosedFormIntermediates) -> float:
    """Closed-form physicality margin of ``p`` from its intermediates ``im``;
    DegenerateBoundError for |d| <= TOL_SING.  On ``(p.mirror(), im.mirror())``
    it is the separability margin of ``p``."""
    m1_margin = p.n1 - math.sqrt(abs(p.m1) ** 2 + 0.25)
    if _physical_mode1_fails(p, im):
        return m1_margin
    return min(m1_margin, p.n2 - _physical_bound(p, im))


def _prep_margin_closed(p: GaussianParams, im: ClosedFormIntermediates) -> float:
    """Closed-form P-representability margin; DegenerateBoundError for
    |d'| <= TOL_SING."""
    m1_margin = p.n1 - abs(p.m1) - 0.5
    if _prep_mode1_fails(p, im):
        return m1_margin
    return min(m1_margin, p.n2 - _prep_bound(p, im))


# ---------------------------------------------------------------------------
# Eigen-oracle margins


def _physical_margin_eig(V: np.ndarray) -> float:
    # No separate V >= 0 term is needed: V - E/2 is the complex conjugate of
    # K (V + E/2) K (K swaps the two rows of each mode), so both share one
    # spectrum, and V is their mean, so by Weyl lambda_min(V) >=
    # lambda_min(V + E/2).
    return min_eigenvalue_hermitian(V + E / 2)


def _prep_margin_eig(V: np.ndarray) -> float:
    return min_eigenvalue_hermitian(V - I4 / 2)


def classify(p: GaussianParams, method: str = METHOD_CLOSED, tol_psd: float = TOL_PSD) -> Verdict:
    """Full classification: physicality, then separability and P-representability.

    ``method`` is "closed-form" or "eigen-oracle".  The closed-form route
    falls back to the eigen-oracle per criterion when its bound is
    degenerate; any fallback is recorded in ``fallbacks`` and flips
    ``method`` to "eigen-oracle".
    """
    if method not in (METHOD_CLOSED, METHOD_EIG):
        raise ValueError(f"unknown method {method!r}")

    im = intermediates(p) if method == METHOD_CLOSED else None
    fallbacks: list[str] = []
    V = None

    def covariance() -> np.ndarray:  # p's covariance, built once, when an oracle needs it
        nonlocal V
        if V is None:
            V = build_covariance(p)
        return V

    def margin_of(name: str, closed, eig) -> float:
        if method == METHOD_CLOSED:
            try:
                return closed()
            except DegenerateBoundError:
                fallbacks.append(name)
        return eig()

    margin_phys = margin_of("physical", lambda: _physical_margin_closed(p, im),
                            lambda: _physical_margin_eig(covariance()))
    physical = margin_phys >= -tol_psd
    margin_sep = margin_prep = math.nan
    if physical:
        # Separability is physicality of the mirror, on both routes.
        margin_sep = margin_of("separable",
                               lambda: _physical_margin_closed(p.mirror(), im.mirror()),
                               lambda: _physical_margin_eig(build_covariance(p.mirror())))
        margin_prep = margin_of("p_representable", lambda: _prep_margin_closed(p, im),
                                lambda: _prep_margin_eig(covariance()))
    return Verdict(
        physical=physical,
        separable=margin_sep >= -tol_psd if physical else None,
        p_representable=margin_prep >= -tol_psd if physical else None,
        margin_physical=margin_phys,
        margin_separable=margin_sep,
        margin_prep=margin_prep,
        method=METHOD_EIG if (method == METHOD_EIG or fallbacks) else METHOD_CLOSED,
        fallbacks=tuple(fallbacks),
    )


# ---------------------------------------------------------------------------
# n2 folds for the sweep


def literal_prep_fold(p: GaussianParams) -> float:
    """The published P-fold: s'/d' + |m2 - c'|/d' + 1/2 (kept literal for the
    fold-comparison figure; its dips below the S-fold are unphysical)."""
    im = intermediates(p)
    if im.d_p <= TOL_SING:  # degenerate, or no fold at all for d' < 0
        raise DegenerateBoundError(f"d' = {im.d_p:.3e}")
    return im.s_p / im.d_p + abs(p.m2 - im.c_p) / im.d_p + 0.5


def bisect_n2_threshold(p: GaussianParams, criterion: str, hi: float = 64.0) -> float:
    """Smallest n2 satisfying the eigen-oracle criterion, by bisection.

    ``criterion`` is "physical" or "p_representable"; separability's is
    "physical" on ``p.mirror()``.  ``inf`` without an oracle call when the
    mode-1 condition fails, or once ``hi`` doubles past 2^40.
    """
    margin, mode1_fails = {
        "physical": (_physical_margin_eig, _physical_mode1_fails),
        "p_representable": (_prep_margin_eig, _prep_mode1_fails),
    }[criterion]
    if mode1_fails(p, intermediates(p)):
        return math.inf

    def f(n2: float) -> float:
        return margin(build_covariance(dataclasses.replace(p, n2=n2)))

    lo = 0.0
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 2**40:
            return math.inf
    for _ in range(100):
        mid = (lo + hi) / 2
        if f(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def prep_below_sep(prep: float, sep: float) -> bool:
    """Whether the sweep's P-fold lies below its S-fold by more than
    ``FOLD_GAP_RTOL`` * max(1, |S-fold|), so that ulp ties do not count.
    An infinite S-fold counts every finite P-fold as below it."""
    if math.isinf(sep):
        return prep < sep
    return prep < sep - FOLD_GAP_RTOL * max(1.0, abs(sep))


def n2_folds(p: GaussianParams) -> tuple[float, float, float, bool]:
    """The physicality, separability and literal P n2 folds at the other
    parameters of ``p``, and whether any of them was degenerate.

    Each fold is its closed form where that exists and the eigen-oracle
    bisection threshold (``inf`` if the mode-1 condition fails) otherwise.
    """
    folds = []
    degenerate = False
    for criterion, fold, q in (
        ("physical", physicality_bound_n2, p),
        ("physical", physicality_bound_n2, p.mirror()),
        ("p_representable", literal_prep_fold, p),
    ):
        try:
            folds.append(fold(q))
        except DegenerateBoundError:
            degenerate = True
            folds.append(bisect_n2_threshold(q, criterion))
    return folds[0], folds[1], folds[2], degenerate
