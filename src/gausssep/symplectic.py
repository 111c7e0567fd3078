"""Local Sp(2,R) x Sp(2,R) machinery: transforms, invariants, invariant forms.

Local single-mode squeezing-plus-phase operations act on the covariance
matrix as V -> S+ V S with block-diagonal S = S1 (+) S2 and the symplectic
condition S^-1 = E S+ E.  They preserve physicality and separability but
not P-representability, which is the whole point of the invariant-form
analysis: only on the two invariant forms (V1, V2 proportional to the
identity, cross block carrying a single correlation) do separability and
P-representability coincide.

The invariants, ``apply_local`` and the reduction work on (N, 4, 4) stacks
as on one matrix, with the same stacked operations, so a state's result
does not depend on its stack.  ``invariants`` takes matrices from outside
the package, so it checks their shape and Hermiticity itself, Hermiticity
by the per-entry rule every matrix reader of the package uses
(``core._rebuild_residual``, at TOL_HERM), and reads the blocks V1, V2 and
C by slicing.  ``reduce_to_invariant_form`` reads a state
of a batch (``core._Row``) out of one array pass of the reduction over the
batch's covariance stack (``core._Batch.covariance``); a lone parameter set
is a one-element batch.  That pass makes one eigen-oracle call over the
stack and takes the squeeze angles by column, one pass per mode: it maps
``math.atanh`` and ``math.atan2`` over the columns' lists, because numpy's
``arctanh`` and ``arctan2`` dispatch to SIMD kernels on AVX512 hosts that
differ from libm in the last bit.  Each state's errors (an oracle overflow,
undefined or overflowing squeeze angles) come from its own entries of the
pass's columns, kept as values and raised by the read of that state, so
one state's error never stops the others' reads.

``random_physical_states`` is the one sampler entry point, and
``_random_states`` its array form, which returns the ``core._Batch`` that
``gausssep sample`` classifies.  It draws a batch of N states in one array
pass (the reject sampler one per block of candidates), the uniforms in one
generator call.  The construct sampler computes each state's ten
parameters in closed form from its own ten uniforms, elementwise over the
columns: no matrix is built or read back, and the batch builds its
covariance stack from the parameters at its first use.  The reject sampler
checks each block of candidates by the physicality oracle pass
(``core._physical_oracle``) of a candidate batch, and its batch holds the
accepted rows' margins, read-only, so that no physicality eigensolve is
run twice between draw and verdict; it builds its own covariance stack
from the accepted parameters at its first use.  The states and the
generator's end state are those of N one-at-a-time draws, bit for bit, so
they do not depend on how the draws are split into calls; one state is
``random_physical_states(rng, 1, mode)[0]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import core
from .core import GaussianParams
from .errors import (
    DomainError,
    InvalidParameterError,
    PrescriptionInapplicableError,
    SamplingBudgetError,
    StructuralError,
)

FORM1 = "form1"
FORM2 = "form2"


@dataclass(frozen=True, eq=False)
class LocalSymplectic:
    """S = S1 (+) S2 with S_i = [[e^{i phi} ch, e^{i vphi} sh],
    [e^{-i vphi} sh, e^{-i phi} ch]] (ch = cosh theta, sh = sinh theta).
    With (N,) angle arrays it is a stack of N transforms."""

    theta1: float
    phi1: float
    vphi1: float
    theta2: float
    phi2: float
    vphi2: float

    @cached_property
    def realized(self) -> np.ndarray:
        """The 4x4 matrix S, built at its first use."""
        return _local_matrix(self.theta1, self.phi1, self.vphi1, self.theta2, self.phi2, self.vphi2)


def _local_matrix(theta1, phi1, vphi1, theta2, phi2, vphi2) -> np.ndarray:
    """S1 (+) S2: (4, 4) for scalar angles, (N, 4, 4) for (N,) arrays."""
    S = np.zeros(np.shape(theta1) + (4, 4), dtype=complex)
    for i, theta, phi, vphi in ((0, theta1, phi1, vphi1), (2, theta2, phi2, vphi2)):
        ch, sh = np.cosh(theta), np.sinh(theta)
        S[..., i, i] = np.exp(1j * phi) * ch
        S[..., i, i + 1] = np.exp(1j * vphi) * sh
        S[..., i + 1, i] = np.exp(-1j * vphi) * sh
        S[..., i + 1, i + 1] = np.exp(-1j * phi) * ch
    return S


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
            raise InvalidParameterError(f"symplectic parameters must be finite, got {v!r}")
    return LocalSymplectic(theta1, phi1, vphi1, theta2, phi2, vphi2)


def _conjugate(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M+ V M of a matrix or of each matrix of an (N, 4, 4) stack,
    symmetrized as W/2 + W+/2 against the last-bit Hermiticity loss of the
    two products; halving before adding keeps entries near the float limit
    finite, where (W + W+)/2 would overflow."""
    W = M.conj().swapaxes(-1, -2) @ V @ M
    W *= 0.5
    return W + W.conj().swapaxes(-1, -2)


@np.errstate(over="ignore", invalid="ignore")
def apply_local(S: LocalSymplectic, V: np.ndarray) -> np.ndarray:
    """Transformed covariance S+ V S (blockwise V_i -> S_i+ V_i S_i, C -> S1+ C S2)
    of a matrix, or of each matrix of an (N, 4, 4) stack; OverflowError if
    an entry is not finite."""
    W = _conjugate(S.realized, np.asarray(V, dtype=complex))
    if not np.isfinite(W).all():
        raise OverflowError("local symplectic transform overflows")
    return W


@np.errstate(over="ignore", invalid="ignore")
def _transform_stack(S: LocalSymplectic, V: np.ndarray):
    """(parameters, failure) of ``apply_local`` over an (N, 4, 4) stack,
    unchecked: the parameters read off each transformed matrix and the
    ``first_error`` of that read (which every matrix that is not finite
    fails), whose error is ``apply_local``'s OverflowError where its matrix
    is not finite."""
    W = _conjugate(S.realized, V)
    t, residual, ok = core._ParamArrays.read_stack(W)
    failure = t.first_error(ok, residual)
    if failure is not None and not np.isfinite(W[failure[0]]).all():
        failure = failure[0], OverflowError("local symplectic transform overflows")
    return t, failure


@dataclass(frozen=True)
class SymplecticInvariants:
    """det V1, det V2, det C and Tr[V1 Z C Z V2 Z C+ Z]; all real and fixed
    under local symplectic conjugation.  Floats for one matrix, (N,) arrays
    for a stack."""

    i1: float
    i2: float
    i3: float
    i4: float


def _det2(M: np.ndarray) -> np.ndarray:
    """Real part of the determinant a d - b c of each 2x2 matrix of a stack.

    Each matrix is first scaled, exactly, by the power of two that brings
    its largest component into [0.5, 1), and the result scaled back, so the
    products overflow or underflow only where the determinant does: the
    bits are those of a d - b c wherever that neither overflows nor
    underflows."""
    _, e = np.frexp(np.maximum(np.abs(M.real), np.abs(M.imag)).max(axis=(-2, -1)))
    S = np.empty_like(M)
    S.real = np.ldexp(M.real, -e[..., None, None])
    S.imag = np.ldexp(M.imag, -e[..., None, None])
    return np.ldexp((S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0]).real, 2 * e)


def _entries(M: np.ndarray) -> tuple:
    """The entries (00, 01, 10, 11) of each 2x2 matrix of a stack, as (re, im)
    pairs of float arrays."""
    return tuple((M[..., i, j].real, M[..., i, j].imag) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))


def _product(a: tuple, b: tuple) -> tuple:
    """The ``_entries`` of A B from those of A and of B."""
    def dot(x, y, u, v):  # x y + u v
        xy, uv = core._mul(x, y), core._mul(u, v)
        return xy[0] + uv[0], xy[1] + uv[1]

    return (dot(a[0], b[0], a[1], b[2]), dot(a[0], b[1], a[1], b[3]),
            dot(a[2], b[0], a[3], b[2]), dot(a[2], b[1], a[3], b[3]))


@np.errstate(over="ignore", invalid="ignore")
def invariants(V: np.ndarray) -> SymplecticInvariants:
    """I1..I4 of a matrix, as floats, or of each matrix of an (N, 4, 4)
    stack, as (N,) arrays, by the same stacked operations; StructuralError
    if V is not a 4x4 Hermitian matrix or a stack of them, naming a
    stack's first failing matrix, OverflowError if any invariant is not
    finite.  Hermitian means V rebuilds as V+ under the package's one
    per-entry rule (``core._rebuild_residual``) with TOL_HERM: |V_ij -
    conj(V_ji)| <= TOL_HERM * max(1, sqrt(|V_ii V_jj|)), so a matrix that
    is Hermitian to rounding passes at any scale, and a NaN entry fails.
    The determinants are closed-form 2x2 ones (``_det2``): a pivoting
    ``np.linalg.det`` divides by a subnormal pivot.  I4 = Re Tr(P Q), with
    P = V1 (Z C Z) and Q = V2 (Z C+ Z), written out entry by entry; Z M Z
    only flips the sign of M's off-diagonal entries."""
    V = np.asarray(V, dtype=complex)
    if V.ndim < 2 or V.shape[-2:] != (4, 4):
        raise StructuralError(f"expected a 4x4 matrix or a stack of them, got shape {V.shape}")
    dev, ok = core._rebuild_residual(V, V.conj().swapaxes(-1, -2), core.TOL_HERM)
    if not ok.all():
        k = int(np.argmin(ok.ravel()))  # the first failing matrix, in C order
        which = "matrix" if V.ndim == 2 else f"matrix {k} of the stack"
        raise StructuralError(f"{which} is not Hermitian: max deviation {dev.ravel()[k]:.3e}")
    V1, V2, C = V[..., :2, :2], V[..., 2:, 2:], V[..., :2, 2:]
    i1, i2, i3 = _det2(V1), _det2(V2), _det2(C)
    # on float (re, im) pairs: numpy's complex kernels for a stack and for
    # one matrix may round differently
    c00, c01, c10, c11 = _entries(C)
    P = _product(_entries(V1), (c00, (-c01[0], -c01[1]), (-c10[0], -c10[1]), c11))
    Q = _product(_entries(V2), (core._conj(c00), (-c10[0], c10[1]), (-c01[0], c01[1]),
                                core._conj(c11)))
    i4 = (core._mul(P[0], Q[0])[0] + core._mul(P[1], Q[2])[0]
          + core._mul(P[2], Q[1])[0] + core._mul(P[3], Q[3])[0])
    if not np.isfinite([i1, i2, i3, i4]).all():
        raise OverflowError("symplectic invariants overflow")
    if V1.ndim == 2:
        return SymplecticInvariants(float(i1), float(i2), float(i3), float(i4))
    return SymplecticInvariants(i1, i2, i3, i4)


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


def _squeeze_columns(n: np.ndarray, m: tuple, r: np.ndarray, rows: np.ndarray):
    """The (theta, phi) columns of one mode, with r = |m|: on ``rows``, where
    0 < r < n, theta = atanh(r/n)/2 and phi = atan2(im m, re m) + pi (tanh
    2 theta = |m|/n, phi = -mu + pi with e^{-i mu} = m/|m|), by libm's
    ``atanh`` and ``atan2``; (0, pi) elsewhere, as m = 0 needs no squeeze.
    r comes from ``np.hypot`` (``core._abs``), which is libm's ``hypot``, as
    ``abs`` of a complex is."""
    i = np.flatnonzero(rows)
    theta, phi = np.zeros_like(n), np.full_like(n, math.pi)
    theta[i] = 0.5 * np.fromiter(map(math.atanh, (r[i] / n[i]).tolist()), float, i.size)
    phi[i] = np.fromiter(map(math.atan2, m[1][i].tolist(), m[0][i].tolist()), float,
                         i.size) + math.pi
    return theta, phi


@np.errstate(over="ignore", invalid="ignore")
def _reductions(batch: core._Batch) -> list[tuple]:
    """One array pass of the reduction over every state of ``batch``: per
    state, its physicality oracle margin (the batch's
    ``core._physical_oracle`` pass; not finite where the oracle overflows),
    its squeeze angles (theta1, phi1, theta2, phi2) or the error that
    leaves them undefined, whether its transformed matrix is finite,
    whether it goes to form 1, nu1, nu2, mu, whether its form's parameters
    are valid (``GaussianParams`` accepts them), the residual and whether
    that passes the structural rule.

    Nothing is raised here: ``reduce_to_invariant_form`` raises each
    state's errors in order.  The oracle is one call over the stack, and a
    matrix whose spectrum overflows has non-finite values in its own row
    only.  The angles come by column, one pass per mode
    (``_squeeze_columns``): libm's ``atanh`` and ``atan2`` are mapped over
    the columns' lists, since numpy's ``arctanh`` and ``arctan2`` run SIMD
    kernels on AVX512 hosts that differ from libm in the last bit.  A state
    where they are undefined in either mode (|m| > 0 and |m| >= n) is
    transformed with the no-squeeze angles, and its angles are the error of
    its first such mode, built from its columns: a DomainError that names
    |m| and n, or, where |m| overflows, the OverflowError of Python's
    ``abs``.
    """
    q, V = batch.q, batch.covariance
    margins = batch.evaluated((core._physical_oracle,)).tolist()
    r1, r2 = core._abs(q.m1), core._abs(q.m2)
    bad1, bad2 = (r1 > 0.0) & (r1 >= q.n1), (r2 > 0.0) & (r2 >= q.n2)
    undefined = bad1 | bad2
    theta1, phi1 = _squeeze_columns(q.n1, q.m1, r1, (r1 > 0.0) & ~undefined)
    theta2, phi2 = _squeeze_columns(q.n2, q.m2, r2, (r2 > 0.0) & ~undefined)
    angles = list(zip(theta1.tolist(), phi1.tolist(), theta2.tolist(), phi2.tolist()))
    for i in np.flatnonzero(undefined).tolist():
        r, n = (float(r1[i]), float(q.n1[i])) if bad1[i] else (float(r2[i]), float(q.n2[i]))
        angles[i] = (DomainError(f"squeeze angle undefined: |m| = {r} >= n = {n}") if r < math.inf
                     else OverflowError("absolute value too large"))
    W = _conjugate(_local_matrix(theta1, phi1, 0.0, theta2, phi2, 0.0), V)

    form1 = core._abs(q.mc) >= core._abs(q.ms)
    nu1 = (W[:, 0, 0].real + W[:, 1, 1].real) / 2
    nu2 = (W[:, 2, 2].real + W[:, 3, 3].real) / 2
    mu = np.where(form1, W[:, 0, 3], W[:, 0, 2])
    zero = np.zeros_like(nu1)
    as_mc = tuple(np.where(form1, x, zero) for x in (mu.real, mu.imag))  # form 1
    as_ms = tuple(np.where(form1, zero, x) for x in (mu.real, mu.imag))  # form 2
    target = core._ParamArrays(nu1, nu2, (zero, zero), (zero, zero), as_ms, as_mc)
    residual, ok = core._rebuild_residual(W, target.covariance())
    return list(zip(margins, angles, np.isfinite(W).all(axis=(1, 2)).tolist(),
                    form1.tolist(), nu1.tolist(), nu2.tolist(), mu.tolist(),
                    (~target.invalid()).tolist(), residual.tolist(), ok.tolist()))


def reduce_to_invariant_form(p: GaussianParams | core._Row) -> InvariantFormResult:
    """Apply the squeeze-and-phase prescription and verify the target pattern.

    The prescription fixes each mode's squeeze from its own local anomalous
    term only; inputs whose transformed matrix does not rebuild from the
    target form's parameters (the structural rule of
    ``core.params_from_covariance``) raise PrescriptionInapplicableError
    carrying the residual.  ``p`` is a parameter set or a state of a batch
    (``core._Row``), read out of one array pass over the batch, run at the
    batch's first call.
    """
    batch, i = p if type(p) is core._Row else core._row(p)
    margin, angles, finite, form1, nu1, nu2, mu, valid, residual, ok = (
        batch.evaluated((_reductions,))[i])
    if not math.isfinite(margin):
        raise OverflowError("eigen-oracle overflows")
    if not margin >= -core.TOL_PSD:
        raise DomainError("invariant-form reduction requires a physical state")
    if isinstance(angles, Exception):
        raise angles
    if not finite:
        raise OverflowError("local symplectic transform overflows")
    form = FORM1 if form1 else FORM2
    if not valid:
        _form_params(form, nu1, nu2, mu)  # raises its InvalidParameterError
    if not ok:
        raise PrescriptionInapplicableError(form, residual, core.TOL_PATTERN)
    theta1, phi1, theta2, phi2 = angles
    return InvariantFormResult(form=form, nu1=nu1, nu2=nu2, mu=mu, residual=residual,
                               transform=LocalSymplectic(theta1, phi1, 0.0, theta2, phi2, 0.0))


# ---------------------------------------------------------------------------
# Random generation


# The draws of random_physical_states.
NU_MAX = 5.0  # construct: thermal occupations in [0.5, NU_MAX]
THETA_MAX = 1.0  # construct: local squeezes in [0, THETA_MAX]
R_MAX = 1.0  # construct: two-mode squeeze in [0, R_MAX]
REJECT_BOX = (0.5, 3.0, 1.0)  # reject: n_i in [0.5, 3], |m| <= 1
MAX_DRAWS = 10**6  # reject: draw budget per accepted state
REJECT_BLOCK = 4096  # reject: most candidates drawn and checked in one array pass


def _uniform_columns(rng: np.random.Generator, n: int, bounds) -> np.ndarray:
    """n rows of uniforms from one generator call, as a (k, n) array of
    columns; ``bounds`` holds the k (low, high) pairs.  Row i is what k
    one-at-a-time ``rng.uniform(low, high)`` calls would draw next, in
    order, scaled by numpy's own routine."""
    low, high = np.array(bounds, dtype=float).T
    return rng.uniform(low, high, size=(n, len(bounds))).T.copy()


def _random_box(rng: np.random.Generator, n: int, n_lo: float, n_hi: float,
                m_max: float) -> core._ParamArrays:
    """n unconstrained box draws (physical or not) as arrays: n1, n2 in
    [n_lo, n_hi], then m1, m2, ms, mc with moduli in [0, m_max] and uniform
    phases, each state from one row of ten uniforms."""
    n1, n2, *u = _uniform_columns(
        rng, n, [(n_lo, n_hi)] * 2 + [(0.0, m_max)] * 4 + [(0.0, 2 * math.pi)] * 4)
    m = np.array(u[:4]) * np.exp(1j * np.array(u[4:]))  # moduli times phases
    return core._ParamArrays(n1, n2, *((z.real.copy(), z.imag.copy()) for z in m))


def _squeezed_thermal(nu, theta, phase):
    """(n, m) of the thermal mode nu I under the local squeeze of angle
    theta and phase vphi - phi (``LocalSymplectic``): n = nu (c^2 + s^2)
    and m = 2 nu c s e^{i phase}, c = cosh theta, s = sinh theta, m as an
    (re, im) pair."""
    c, s = np.cosh(theta), np.sinh(theta)
    e = np.exp(1j * phase)
    k = 2.0 * nu * c * s
    return nu * (c * c + s * s), (k * e.real, k * e.imag)


def _construct(rng: np.random.Generator, n: int) -> core._Batch:
    """n thermal states moved by a random local symplectic and a random
    two-mode mixer, as a batch, each state's parameters in closed form from
    its row of ten uniforms (``random_physical_states``).

    A local squeeze S_i (``LocalSymplectic``) takes the thermal mode nu_i I
    to n_i = nu_i (c_i^2 + s_i^2) and m_i = 2 nu_i c_i s_i e^{i (vphi_i -
    phi_i)} (c_i = cosh theta_i, s_i = sinh theta_i); the two-mode mixer
    M = [[ch, 0, 0, u sh], [0, ch, conj(u) sh, 0], [0, u sh, ch, 0],
    [conj(u) sh, 0, 0, ch]] (ch = cosh r, sh = sinh r, u = e^{-i gamma})
    then gives M+ V M the parameters n1' = ch^2 n1 + sh^2 n2, m1' = ch^2 m1
    + sh^2 u^2 conj(m2), ms' = ch sh (conj(u) m1 + u conj(m2)) and mc' =
    ch sh u (n1 + n2), and n2', m2' with the modes swapped.  The complex
    products are taken on (re, im) float pairs; every row is checked by
    ``first_error``."""
    two_pi = 2 * math.pi
    nu1, nu2, theta1, theta2, phi1, vphi1, phi2, vphi2, r, gamma = _uniform_columns(
        rng, n, [(0.5, NU_MAX)] * 2 + [(0.0, THETA_MAX)] * 2 + [(0.0, two_pi)] * 4
        + [(0.0, R_MAX), (0.0, two_pi)])
    (n1, m1), (n2, m2) = (_squeezed_thermal(*mode) for mode in
                          ((nu1, theta1, vphi1 - phi1), (nu2, theta2, vphi2 - phi2)))
    ch, sh = np.cosh(r), np.sinh(r)
    ch2, sh2, chsh = ch * ch, sh * sh, ch * sh
    e = np.exp(-1j * gamma)
    u = e.real, e.imag
    u2 = core._mul(u, u)
    w1, w2 = core._mul(u2, core._conj(m2)), core._mul(u2, core._conj(m1))
    v1, v2 = core._mul(core._conj(u), m1), core._mul(u, core._conj(m2))  # the terms of ms'
    q = core._ParamArrays(
        ch2 * n1 + sh2 * n2, ch2 * n2 + sh2 * n1,
        tuple(ch2 * x + sh2 * y for x, y in zip(m1, w1)),
        tuple(ch2 * x + sh2 * y for x, y in zip(m2, w2)),
        tuple(chsh * (x + y) for x, y in zip(v1, v2)),
        tuple(chsh * x * (n1 + n2) for x in u))
    return core._Batch(q.validated())


def _reject(rng: np.random.Generator, n: int) -> core._Batch:
    """The first n draws from ``REJECT_BOX`` that the eigen-oracle calls
    physical, as a batch that holds their physicality oracle margins, the
    accepted rows of each block's.

    Candidates are drawn and checked in blocks of at most ``REJECT_BLOCK``,
    each block by the ``core._physical_oracle`` pass of a candidate batch
    (one eigen-oracle call over its stack), never past the ``MAX_DRAWS``
    budget of the state being drawn.  A block that holds the n-th accept
    is drawn again up to it from the generator state saved before it, so
    the generator ends where one-at-a-time draws leave it.  The batch
    returned builds its covariance stack from the accepted parameters at
    its first use.
    """
    blocks = [(core._ParamArrays.from_rows([]), np.empty(0))]
    accepted = 0
    since = 0  # draws since the last accepted one
    while accepted < n:
        need = n - accepted
        # About 1.9 draws per accept: most batches end in their first block.
        size = min(REJECT_BLOCK, 2 * need + 16, MAX_DRAWS - since)
        if size <= 0:
            raise SamplingBudgetError(f"no physical state found in {MAX_DRAWS} draws")
        start = rng.bit_generator.state
        q = _random_box(rng, size, *REJECT_BOX)
        margins = core._Batch(q).evaluated((core._physical_oracle,))
        hits = np.flatnonzero(margins >= -core.TOL_PSD)
        if hits.size >= need:
            hits = hits[:need]
            rng.bit_generator.state = start
            _random_box(rng, hits[-1] + 1, *REJECT_BOX)
        since = size - 1 - hits[-1] if hits.size else since + size
        blocks.append((q.take(hits).validated(), margins[hits]))
        accepted += hits.size
    qs, margins = zip(*blocks)
    return core._Batch(core._ParamArrays.concatenate(qs), physical=np.concatenate(margins))


def _random_states(rng: np.random.Generator, n: int, mode: str) -> core._Batch:
    """``random_physical_states`` as the ``core._Batch`` that ``gausssep
    sample`` classifies, which in reject mode holds the physicality oracle
    margins the sampler accepted its states by; in either mode the batch
    builds its covariance stack at first use."""
    if n < 0:
        raise ValueError(f"cannot draw {n} states")
    if mode == "construct":
        return _construct(rng, n)
    if mode == "reject":
        return _reject(rng, n)
    raise ValueError(f"unknown sampling mode {mode!r}")


def random_physical_states(rng: np.random.Generator, n: int,
                           mode: str = "construct") -> list[GaussianParams]:
    """Draw n parameter sets that pass the physicality eigen-check, as
    array passes over all of them; the states and the generator's end state
    are those of n one-at-a-time draws, bit for bit, so they do not depend
    on how a stream of draws is split into calls.

    ``construct``: a thermal state moved by a random local symplectic and
    a random two-mode mixer (physical by construction), its parameters
    those of the conjugated matrix, in closed form (``_construct``), in one
    pass; each state takes one row of ten uniforms (nu1, nu2, theta1,
    theta2, phi1, vphi1, phi2, vphi2, r, gamma).
    ``reject``: draw the ten uniforms of all six parameters from
    ``REJECT_BOX`` (n_i in [0.5, 3], |m| <= 1; see ``_random_box``) and
    accept iff the eigen-oracle says physical, within ``MAX_DRAWS`` draws
    per state (else SamplingBudgetError), one pass per block of candidates.
    """
    return _random_states(rng, n, mode).q.params()
