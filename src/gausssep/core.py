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

The criteria are array-native: they evaluate N states at once over a
struct-of-arrays form of the parameters (``_ParamArrays``: float arrays for
n1, n2 and an (re, im) pair of float arrays for each complex parameter), and
the eigen-oracle runs one ``eigvalsh`` over the stacked (N, 4, 4) matrices.
``classify_batch`` and ``n2_folds_batch`` are the batch entry points.  The
per-state API (``classify``, the n2 bounds and ``bisect_n2_threshold``)
takes a parameter set, evaluated as a one-element batch, or a state of a
batch (``_Row``), which it reads out of that batch's array pass;
``classify_batch`` is ``classify`` over every state of one batch, whose
array passes each run once (``_Batch``).  ``n2_folds_batch`` reads each
fold column from the closed form's array pass over the batch, the same
pass the n2 bounds read, and evaluates per state only the entries without
a closed form; ``n2_folds`` is its one-element view.  A batch builds its
(N, 4, 4) covariance stack once, read-only, at its first use; the oracle
rows, the n2 bisection and the invariant-form reduction of ``symplectic``
index that one stack.  Every operation is elementwise or per matrix, so a
state's result does not depend on the other states in its batch, bit for
bit.

Separability is physicality of the partial transpose (Simon's criterion), so
it has no code of its own: both its margins are the physicality code run on
the mirrored arrays (ms <-> mc swapped, m2 conjugated), the closed form with
the mirrored intermediates (s, conj(c), d), the oracle on their covariance
(``partial_transpose`` of the covariance; once E/2 is added, bit for bit).
Complex products are computed on the (re, im) float pairs, with the
groupings of ``_intermediates``, so that the mirrored intermediates are the
exact conjugates; numpy's vectorised complex kernels do not guarantee that.
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
Non-finite intermediates or bounds raise ``OverflowError`` for the whole
batch.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateBoundError,
    InvalidParameterError,
    SingularBlockError,
    StructuralError,
)

# Absolute tolerances on 4x4 matrices, but for TOL_PATTERN, which scales per entry.
TOL_PSD = 1e-10
TOL_HERM = 1e-12
TOL_SING = 1e-12
TOL_PATTERN = 1e-9  # entry (i, j) of a matrix against the rebuild B of its parameters,
                    # relative to max(1, sqrt(|B_ii| |B_jj|))
BOUNDARY_BAND = 1e-8  # |oracle margin| at or below this lies on a decision boundary
FOLD_GAP_RTOL = 1e-12  # relative gap below which the sweep's P- and S-folds tie
BISECT_HI = 64.0  # first upper end of the sweep's n2 bisection bracket

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


class Verdict(NamedTuple):
    """Classification record for one state, an immutable named tuple of
    Python values (no numpy scalars): it unpacks, and compares equal to the
    tuple of its fields in this order.

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


# ---------------------------------------------------------------------------
# Struct-of-arrays parameters


def _mul(a, b):
    """Complex product of (re, im) pairs, as Python's complex product."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _conj(a):
    return a[0], -a[1]


def _abs(a):
    return np.hypot(a[0], a[1])


def _abs2(a):
    r = _abs(a)
    return r * r


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _div(a, x):
    return a[0] / x, a[1] / x


def _values(p: GaussianParams) -> tuple[float, ...]:
    """The ten floats of ``p`` in the order of ``_ParamArrays.columns``."""
    return (p.n1, p.n2, p.m1.real, p.m1.imag, p.m2.real, p.m2.imag,
            p.ms.real, p.ms.imag, p.mc.real, p.mc.imag)


class _ParamArrays(NamedTuple):
    """N parameter sets: n1, n2 as (N,) float arrays and m1, m2, ms, mc as
    (re, im) pairs of (N,) float arrays."""

    n1: np.ndarray
    n2: np.ndarray
    m1: tuple[np.ndarray, np.ndarray]
    m2: tuple[np.ndarray, np.ndarray]
    ms: tuple[np.ndarray, np.ndarray]
    mc: tuple[np.ndarray, np.ndarray]

    @classmethod
    def of(cls, params: Sequence[GaussianParams]) -> "_ParamArrays":
        return cls.from_rows([_values(p) for p in params])

    @classmethod
    def from_rows(cls, rows) -> "_ParamArrays":
        """N parameter sets from an (N, 10) array of rows in the order of
        ``columns``."""
        n1, n2, *m = np.array(rows, dtype=float).reshape(-1, 10).T.copy()
        return cls(n1, n2, (m[0], m[1]), (m[2], m[3]), (m[4], m[5]), (m[6], m[7]))

    @classmethod
    def concatenate(cls, parts: Sequence["_ParamArrays"]) -> "_ParamArrays":
        """The parameter sets of ``parts`` (at least one), one after another."""
        return cls.from_rows(np.column_stack(
            [np.concatenate(x) for x in zip(*(q.columns() for q in parts))]))

    @classmethod
    def read_stack(cls, V: np.ndarray):
        """(parameters, residual, ok): the parameters read off each matrix of
        an (N, 4, 4) stack as ``params_from_covariance`` reads them, and per
        matrix the ``_rebuild_residual`` of the structural rule and whether
        it passes.  Nothing is checked here."""
        q = cls(V[:, 0, 0].real.copy(), V[:, 2, 2].real.copy(),
                *((V[:, i, j].real.copy(), V[:, i, j].imag.copy())
                  for i, j in ((0, 1), (2, 3), (0, 2), (0, 3))))
        return (q, *_rebuild_residual(V, q.covariance()))

    @classmethod
    def from_covariance(cls, V: np.ndarray) -> "_ParamArrays":
        """The parameters read off an (N, 4, 4) stack of covariance matrices
        by the structural rule of ``params_from_covariance``: every matrix
        must rebuild from its own parameters (``_rebuild_residual``), else
        StructuralError."""
        q, residual, ok = cls.read_stack(V)
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise StructuralError(
                f"matrix {bad[0]} of the stack does not have the two-mode covariance pattern"
                f" (max deviation {residual[bad[0]]:.3e})")
        return q

    def columns(self) -> tuple[np.ndarray, ...]:
        """The ten (N,) columns: n1, n2, then re and im of m1, m2, ms, mc."""
        return (self.n1, self.n2, *self.m1, *self.m2, *self.ms, *self.mc)

    def invalid(self) -> np.ndarray:
        """Per parameter set, whether ``GaussianParams`` rejects it: a value
        that is not finite or a negative occupation."""
        finite = np.logical_and.reduce([np.isfinite(x) for x in self.columns()])
        return ~finite | (self.n1 < 0.0) | (self.n2 < 0.0)

    def validated(self) -> "_ParamArrays":
        """``self``, whose parameter sets ``GaussianParams`` must all accept:
        the first it rejects raises its error, built from that one set."""
        bad = np.flatnonzero(self.invalid())
        if bad.size:
            self.take(bad[:1]).params()
        return self

    def params(self) -> list[GaussianParams]:
        """The N parameter sets, each as a ``GaussianParams``."""
        return [GaussianParams(n1, n2, complex(a, b), complex(c, d), complex(e, f), complex(g, h))
                for n1, n2, a, b, c, d, e, f, g, h in zip(*(x.tolist() for x in self.columns()))]

    def take(self, rows) -> "_ParamArrays":
        """The parameter sets at ``rows`` (a boolean mask or an index array)."""
        return _ParamArrays(
            self.n1[rows], self.n2[rows],
            *((z[0][rows], z[1][rows]) for z in (self.m1, self.m2, self.ms, self.mc)),
        )

    def mirror(self) -> "_ParamArrays":
        """Array-level partial transpose: swap ms <-> mc, conjugate m2."""
        return self._replace(m2=_conj(self.m2), ms=self.mc, mc=self.ms)

    def covariance(self) -> np.ndarray:
        """The (N, 4, 4) covariance matrices, each equal to
        ``build_covariance`` of its parameter set, bit for bit."""
        zero = np.zeros_like(self.n1)
        n1, n2, m1, m2, ms, mc = (self.n1, zero), (self.n2, zero), self.m1, self.m2, self.ms, self.mc
        rows = (
            (n1, m1, ms, mc),
            (_conj(m1), n1, _conj(mc), _conj(ms)),
            (_conj(ms), mc, n2, m2),
            (_conj(mc), ms, _conj(m2), n2),
        )
        V = np.empty((len(self.n1), 4, 4), dtype=complex)
        re, im = V.real, V.imag
        for i, row in enumerate(rows):
            for j, z in enumerate(row):
                re[:, i, j], im[:, i, j] = z
        return V


class _Intermediates(NamedTuple):
    """The intermediates of the closed-form bounds of N states: (s, c, d) of
    the physicality/separability family and (s_p, c_p, d_p) of the
    P-representability family, c and c_p as (re, im) pairs."""

    s: np.ndarray
    c: tuple[np.ndarray, np.ndarray]
    d: np.ndarray
    s_p: np.ndarray
    c_p: tuple[np.ndarray, np.ndarray]
    d_p: np.ndarray

    def mirror(self) -> "_Intermediates":
        """The intermediates of the mirrored arrays: c and c' conjugate, the
        rest is invariant (bit for bit, by the groupings in
        ``_intermediates``)."""
        return self._replace(c=_conj(self.c), c_p=_conj(self.c_p))


@np.errstate(over="ignore", invalid="ignore")
def _intermediates(q: _ParamArrays) -> _Intermediates:
    """(s, c, d) and the primed P-representability family of every row;
    OverflowError if any of them is not finite."""
    n1, m1, ms, mc = q.n1, q.m1, q.ms, q.mc
    # Groupings below are chosen so that swapping ms <-> mc yields the exact
    # complex conjugate bit for bit (the mirror identity is tested exactly).
    cross = _abs2(mc) + _abs2(ms)
    re3 = 2.0 * _mul(_mul(mc, ms), _conj(m1))[0]
    ms_mc = _mul(_conj(ms), mc)
    sq_mc, sq_ms = _mul(_mul(mc, mc), _conj(m1)), _mul(_mul(_conj(ms), _conj(ms)), m1)
    squares = sq_mc[0] + sq_ms[0], sq_mc[1] + sq_ms[1]
    h = n1 - 0.5
    im = _Intermediates(
        s=n1 * cross - re3,
        c=_sub((2.0 * n1 * ms_mc[0], 2.0 * n1 * ms_mc[1]), squares),
        d=n1 * n1 - 0.25 - _abs2(m1),
        s_p=h * cross - re3,
        c_p=_sub((2.0 * h * ms_mc[0], 2.0 * h * ms_mc[1]), squares),
        d_p=h * h - _abs2(m1),
    )
    finite = np.logical_and.reduce(
        [np.isfinite(x) for x in (im.s, *im.c, im.d, im.s_p, *im.c_p, im.d_p)])
    if not finite.all():
        i = int(np.argmin(finite))
        raise OverflowError(f"closed-form intermediates overflow for state {i} of the batch")
    return im


class _Batch:
    """N states as ``_ParamArrays``.  Each array evaluation over them, and
    their covariance stack, is built once, at its first use, and kept; the
    per-state functions read a state of the batch (a ``_Row``) out of these
    evaluations."""

    def __init__(self, q: _ParamArrays):
        self.q = q
        self._values: dict = {}

    @classmethod
    def of(cls, params: Sequence[GaussianParams]) -> "_Batch":
        return cls(_ParamArrays.of(params))

    @cached_property
    def im(self) -> _Intermediates:
        return _intermediates(self.q)

    @cached_property
    def covariance(self) -> np.ndarray:
        """The (N, 4, 4) covariance matrices, read-only: every consumer of
        the batch's matrices indexes this one stack."""
        V = self.q.covariance()
        V.flags.writeable = False
        return V

    @cached_property
    def mirror(self) -> "_Batch":
        """The mirrored states, whose intermediates are ``im.mirror()``."""
        mirrored = _Batch(self.q.mirror())
        mirrored.im = self.im.mirror()
        return mirrored

    def evaluated(self, key, compute, *args):
        """``compute(self, *args)``, run once per ``key``."""
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = compute(self, *args)
        return value

    def rows(self) -> list["_Row"]:
        return [_Row(self, i) for i in range(len(self.q.n1))]


class _Row(NamedTuple):
    """State ``index`` of ``batch``."""

    batch: _Batch
    index: int


def _row(p: GaussianParams | _Row) -> _Row:
    """``p`` if it is a row of a batch, else the one-element batch of ``p``."""
    return p if isinstance(p, _Row) else _Row(_Batch.of([p]), 0)


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


def _require_hermitian(M: np.ndarray) -> np.ndarray:
    """``M`` as a complex array, checked to be a Hermitian matrix or a stack
    of Hermitian matrices (a NaN entry fails)."""
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise StructuralError(f"expected a square matrix, got shape {M.shape}")
    dev = np.abs(M - M.conj().swapaxes(-1, -2)).max(initial=0.0)
    if not dev <= TOL_HERM:
        raise StructuralError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    return M


@np.errstate(over="ignore", invalid="ignore")
def _rebuild_residual(V: np.ndarray, B: np.ndarray):
    """(max |V - B| over all 16 entries, whether every entry (i, j) is
    within TOL_PATTERN * max(1, sqrt(|B_ii| |B_jj|))) for a matrix V and its
    rebuild B, as a float and a bool, or per matrix of (N, 4, 4) stacks, as
    (N,) arrays.

    The tolerance of an entry scales with the two diagonal entries it
    couples, so a rounding-level residual in the block of a large mode
    passes, while the block of a small mode and the cross block keep the
    tolerance of their own scale.  The scale is the rebuild's, whose
    diagonal the matrix matches within the tolerance when it passes, so an
    infinite entry of V is never its own excuse.  A NaN entry of V fails.
    """
    scale = np.sqrt(np.abs(np.diagonal(B, axis1=-2, axis2=-1)))
    tol = TOL_PATTERN * np.maximum(1.0, scale[..., :, None] * scale[..., None, :])
    dev = np.abs(V - B)
    residual = dev.max(axis=(-2, -1), initial=0.0)
    ok = (dev <= tol).all(axis=(-2, -1))
    return (float(residual), bool(ok)) if V.ndim == 2 else (residual, ok)


def params_from_covariance(V: np.ndarray) -> GaussianParams:
    """Read the six parameters off a two-mode covariance matrix.

    V is accepted iff it rebuilds from the parameters read off it, which
    covers Hermiticity and the conjugation pattern between the two rows of
    each mode (``_rebuild_residual``); otherwise StructuralError.
    """
    V = np.asarray(V, dtype=complex)
    if V.shape != (4, 4):
        raise StructuralError(f"expected a 4x4 matrix, got shape {V.shape}")
    p = GaussianParams(n1=V[0, 0].real, n2=V[2, 2].real, m1=V[0, 1], m2=V[2, 3],
                       ms=V[0, 2], mc=V[0, 3])
    residual, ok = _rebuild_residual(V, build_covariance(p))
    if not ok:
        raise StructuralError(
            f"matrix does not have the two-mode covariance pattern (max deviation {residual:.3e})")
    return p


def decompose_blocks(V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split V into the local blocks V1, V2 and the cross-correlation block C,
    or each matrix of an (N, 4, 4) stack into (N, 2, 2) stacks of them."""
    V = _require_hermitian(V)
    return V[..., :2, :2].copy(), V[..., 2:, 2:].copy(), V[..., :2, 2:].copy()


def min_eigenvalue_hermitian(M: np.ndarray):
    """Smallest eigenvalue of a Hermitian matrix, as a float, or of each
    matrix of an (N, n, n) stack, as an (N,) array (oracle backend);
    OverflowError if one is not finite."""
    M = _require_hermitian(M)
    lam = np.linalg.eigvalsh(M)[..., 0]
    if not (math.isfinite(lam) if M.ndim == 2 else np.isfinite(lam).all()):
        raise OverflowError("eigen-oracle overflows")
    return float(lam) if M.ndim == 2 else lam


def schur_complement(
    V1: np.ndarray,
    V2: np.ndarray,
    C: np.ndarray,
    shift1: np.ndarray,
    shift2: np.ndarray,
) -> np.ndarray:
    """(V2 + shift2) - C+ (V1 + shift1)^-1 C: the independent block positivity
    test that the closed-form bounds are checked against in ``test_core.py``."""
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
# Closed-form n2 bounds and margins, per row; NaN where no bound exists


def _checked(x: np.ndarray, defined: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(x[defined]).all():
        raise OverflowError(f"{what} overflows")
    return x


@np.errstate(over="ignore", invalid="ignore")
def _physical_bound(q: _ParamArrays, im: _Intermediates) -> np.ndarray:
    """Smallest n2 with V + E/2 >= 0, NaN where d <= TOL_SING.  On
    ``(q.mirror(), im.mirror())`` it is the separability bound."""
    defined = im.d > TOL_SING
    d = np.where(defined, im.d, np.nan)
    delta = _abs2(q.mc) - _abs2(q.ms)
    t = 1.0 - delta / d
    bound = im.s / d + np.sqrt(0.25 * (t * t) + _abs2(_sub(q.m2, _div(im.c, d))))
    return _checked(bound, defined, "physicality bound")


@np.errstate(over="ignore", invalid="ignore")
def _prep_bound(q: _ParamArrays, im: _Intermediates) -> np.ndarray:
    """Smallest n2 with V - I/2 >= 0, NaN where d' <= TOL_SING or n1 < 1/2."""
    defined = (im.d_p > TOL_SING) & (q.n1 >= 0.5)
    d = np.where(defined, im.d_p, np.nan)
    bound = 0.5 + im.s_p / d + _abs(_sub(q.m2, _div(im.c_p, d)))
    return _checked(bound, defined, "P-representability bound")


@np.errstate(over="ignore", invalid="ignore")
def _literal_prep_fold(q: _ParamArrays, im: _Intermediates) -> np.ndarray:
    """The published P-fold, NaN where d' <= TOL_SING."""
    defined = im.d_p > TOL_SING
    d = np.where(defined, im.d_p, np.nan)
    fold = im.s_p / d + _abs(_sub(q.m2, im.c_p)) / d + 0.5
    return _checked(fold, defined, "literal P-fold")


def _bound_array(batch: _Batch, bound) -> np.ndarray:
    """``bound`` of every state of ``batch``, evaluated once per batch."""
    return batch.evaluated(bound, lambda bt: bound(bt.q, bt.im))


def _scalar_bound(bound, p: GaussianParams | _Row, what: str) -> float:
    """``bound`` of the state ``p``, read from one evaluation over its batch;
    DegenerateBoundError where it has none."""
    batch, i = _row(p)
    b = float(_bound_array(batch, bound)[i])
    if math.isnan(b):
        im = batch.im
        raise DegenerateBoundError(
            f"no {what}: d = {im.d[i]:.3e}, d' = {im.d_p[i]:.3e}, n1 = {float(batch.q.n1[i])}")
    return b


def physicality_bound_n2(p: GaussianParams | _Row) -> float:
    """Smallest n2 compatible with V + E/2 >= 0, at fixed remaining parameters.

    Requires d = n1^2 - 1/4 - |m1|^2 > 0; degenerate or negative d raises
    DegenerateBoundError (negative d means the mode-1 condition already
    fails, so no n2 bound exists).  The separability bound is this function
    applied to ``p.mirror()``.
    """
    return _scalar_bound(_physical_bound, p, "physicality bound")


def prep_bound_n2(p: GaussianParams | _Row) -> float:
    """Smallest n2 with V - I/2 >= 0, at fixed remaining parameters.

    Degenerate d' raises DegenerateBoundError, and so does any state whose
    mode-1 condition n1 - 1/2 >= |m1| fails (d' < 0, or n1 < 1/2 with
    d' > 0), since then no n2 bound exists.
    """
    return _scalar_bound(_prep_bound, p, "P-representability bound")


# Mode-1 rules: where the mode-1 block fails, no n2 meets the criterion (fold inf).
def _physical_mode1_fails(q: _ParamArrays, im: _Intermediates) -> np.ndarray:
    return im.d < -TOL_SING  # V1 + Z/2 >= 0 fails


def _prep_mode1_fails(q: _ParamArrays, im: _Intermediates) -> np.ndarray:
    # V1 - I/2 >= 0 fails.  n1 < 1/2 counts only off the degenerate band
    # |d'| <= TOL_SING, where the eigen-oracle decides.
    return (im.d_p < -TOL_SING) | ((im.d_p > TOL_SING) & (q.n1 < 0.5))


def _physical_margin_closed(q: _ParamArrays, im: _Intermediates) -> np.ndarray:
    """Closed-form physicality margin of each row of ``q`` from its
    intermediates ``im``; NaN exactly where |d| <= TOL_SING (degenerate).
    On ``(q.mirror(), im.mirror())`` it is the separability margin."""
    m1_margin = q.n1 - np.sqrt(_abs2(q.m1) + 0.25)
    return np.where(_physical_mode1_fails(q, im), m1_margin,
                    np.minimum(m1_margin, q.n2 - _physical_bound(q, im)))


def _prep_margin_closed(q: _ParamArrays, im: _Intermediates) -> np.ndarray:
    """Closed-form P-representability margin; NaN exactly where
    |d'| <= TOL_SING."""
    m1_margin = q.n1 - _abs(q.m1) - 0.5
    return np.where(_prep_mode1_fails(q, im), m1_margin,
                    np.minimum(m1_margin, q.n2 - _prep_bound(q, im)))


def _closed_margins(q: _ParamArrays, im: _Intermediates):
    """(physical, separable, prep) closed-form margins of every row."""
    return (_physical_margin_closed(q, im),
            _physical_margin_closed(q.mirror(), im.mirror()),
            _prep_margin_closed(q, im))


# ---------------------------------------------------------------------------
# Eigen-oracle margins, of one covariance matrix (float) or a stack (array)


def _physical_margin_eig(V: np.ndarray):
    # No separate V >= 0 term is needed: V - E/2 is the complex conjugate of
    # K (V + E/2) K (K swaps the two rows of each mode), so both share one
    # spectrum, and V is their mean, so by Weyl lambda_min(V) >=
    # lambda_min(V + E/2).
    return min_eigenvalue_hermitian(V + E / 2)


def _prep_margin_eig(V: np.ndarray):
    return min_eigenvalue_hermitian(V - I4 / 2)


# Fallback tuple by bit mask: bit k set means criterion _CRITERIA[k] fell back.
_CRITERIA = ("physical", "separable", "p_representable")
_FALLBACKS = tuple(tuple(c for k, c in enumerate(_CRITERIA) if code >> k & 1) for code in range(8))
_METHODS = (METHOD_CLOSED,) + (METHOD_EIG,) * 7  # a closed-form route's method, by the same code
_ANSWERS = (False, True, None)  # a separable or p_representable answer by its code


def _verdicts(batch: _Batch, method: str, tol_psd: float) -> list[Verdict]:
    """The Verdict of every state of ``batch``, in one array pass.  An
    ``OverflowError`` from any state's closed form is raised for the whole
    batch.

    The records are built in one ``Verdict._make`` pass over the result
    columns: ``physical`` and the margins as Python values by ``tolist``,
    each answer by ``_ANSWERS`` from an int8 code column (2 where the state
    is unphysical), and ``method`` and ``fallbacks`` by the fallback code."""
    if method not in (METHOD_CLOSED, METHOD_EIG):
        raise ValueError(f"unknown method {method!r}")
    q = batch.q
    if method == METHOD_CLOSED:
        phys, sep, prep = _closed_margins(q, batch.im)
    else:
        phys, sep, prep = (np.full(len(q.n1), np.nan) for _ in range(3))

    # The eigen-oracle decides the rows where the closed form is degenerate
    # or not used, on rows of the batch's covariance stack.
    need_phys = np.isnan(phys)
    if need_phys.any():
        phys[need_phys] = _physical_margin_eig(batch.covariance[need_phys])
    physical = phys >= -tol_psd
    need_sep = np.isnan(sep) & physical
    need_prep = np.isnan(prep) & physical
    # Separability is physicality of the mirror, on both routes.  Its rows
    # build their own stack: ``batch.mirror`` would compute the closed-form
    # intermediates, which the oracle route never needs.
    if need_sep.any():
        sep[need_sep] = _physical_margin_eig(q.mirror().take(need_sep).covariance())
    if need_prep.any():
        prep[need_prep] = _prep_margin_eig(batch.covariance[need_prep])
    sep[~physical] = prep[~physical] = np.nan

    if method == METHOD_CLOSED:
        codes = (need_phys + 2 * need_sep + 4 * need_prep).tolist()
        methods, fallbacks = map(_METHODS.__getitem__, codes), map(_FALLBACKS.__getitem__, codes)
    else:
        methods, fallbacks = itertools.repeat(METHOD_EIG), itertools.repeat(())
    with np.errstate(invalid="ignore"):  # an unphysical state's NaN margins compare False
        separable, p_representable = (
            map(_ANSWERS.__getitem__, np.where(physical, m >= -tol_psd, 2).astype(np.int8).tolist())
            for m in (sep, prep))
    return list(map(Verdict._make, zip(physical.tolist(), separable, p_representable,
                                       phys.tolist(), sep.tolist(), prep.tolist(),
                                       methods, fallbacks)))


def classify(p: GaussianParams | _Row, method: str = METHOD_CLOSED,
             tol_psd: float = TOL_PSD) -> Verdict:
    """Full classification: physicality, then separability and P-representability.

    ``method`` is "closed-form" or "eigen-oracle".  The closed-form route
    falls back to the eigen-oracle per criterion when its bound is
    degenerate; any fallback is recorded in ``fallbacks`` and flips
    ``method`` to "eigen-oracle".  ``p`` is a parameter set or a state of
    the batch ``classify_batch`` evaluates: the Verdict is read from one
    array pass over the batch, run at the batch's first call with this
    method and tolerance.
    """
    batch, i = _row(p)
    return batch.evaluated((method, tol_psd), _verdicts, method, tol_psd)[i]


def classify_batch(params: Sequence[GaussianParams], method: str = METHOD_CLOSED,
                   tol_psd: float = TOL_PSD) -> list[Verdict]:
    """``classify`` of every parameter set in ``params``, all read from one
    array pass over them.  Each Verdict equals, bit for bit, that of
    ``classify`` on its state alone."""
    return _classified(_Batch.of(params), method, tol_psd)


def _classified(batch: _Batch, method: str, tol_psd: float) -> list[Verdict]:
    """``classify`` of every state of ``batch``: the routes classified on
    one batch share its covariance stack."""
    return [classify(row, method, tol_psd) for row in batch.rows()]


# ---------------------------------------------------------------------------
# n2 folds for the sweep


def literal_prep_fold(p: GaussianParams | _Row) -> float:
    """The published P-fold: s'/d' + |m2 - c'|/d' + 1/2 (kept literal for the
    fold-comparison figure; its dips below the S-fold are unphysical)."""
    return _scalar_bound(_literal_prep_fold, p, "literal P-fold")


# criterion -> (oracle margin, mode-1 rule)
_N2_CRITERIA = {
    "physical": (_physical_margin_eig, _physical_mode1_fails),
    "p_representable": (_prep_margin_eig, _prep_mode1_fails),
}


def _bisect_n2(V: np.ndarray, margin) -> np.ndarray:
    """Per matrix of the stack ``V``, the smallest n2 with ``margin`` >= 0,
    by bisection on [0, hi] after doubling ``hi`` (from ``BISECT_HI``) while
    the margin there is negative; ``inf`` once ``hi`` doubles past 2^40."""
    def f(rows, n2):
        W = V[rows]
        W[:, 2, 2] = W[:, 3, 3] = n2
        return margin(W)

    hi = np.full(len(V), BISECT_HI)
    pending = np.arange(len(V))
    while pending.size:
        pending = pending[f(pending, hi[pending]) < 0.0]
        hi[pending] *= 2.0
        over = hi[pending] > 2**40
        hi[pending[over]] = math.inf
        pending = pending[~over]
    live = np.flatnonzero(np.isfinite(hi))
    if live.size:
        lo, h = np.zeros(live.size), hi[live]
        for _ in range(100):
            mid = (lo + h) / 2
            ok = f(live, mid) >= 0.0
            h = np.where(ok, mid, h)
            lo = np.where(ok, lo, mid)
        hi[live] = h
    return hi


def bisect_n2_threshold(p: GaussianParams | _Row, criterion: str) -> float:
    """Smallest n2 satisfying the eigen-oracle criterion, by bisection.

    ``criterion`` is "physical" or "p_representable"; separability's is
    "physical" on ``p.mirror()``.  ``inf`` without an oracle call when the
    mode-1 condition fails (read from one evaluation over the batch of
    ``p``), or once the bracket doubles past 2^40.
    """
    margin, mode1_fails = _N2_CRITERIA[criterion]
    batch, i = _row(p)
    if batch.evaluated(mode1_fails, lambda bt: mode1_fails(bt.q, bt.im).tolist())[i]:
        return math.inf
    return float(_bisect_n2(batch.covariance[i:i + 1], margin)[0])


def prep_below_sep(prep, sep):
    """Whether the sweep's P-fold lies below its S-fold by more than
    ``FOLD_GAP_RTOL`` * max(1, |S-fold|), so that ulp ties do not count.
    An infinite S-fold counts every finite P-fold as below it.  Elementwise
    on arrays."""
    gap = np.where(np.isinf(sep), 0.0, FOLD_GAP_RTOL * np.maximum(1.0, np.abs(sep)))
    return prep < sep - gap


def _n2_fold(bound, p: _Row, criterion: str) -> float:
    """``bound`` of ``p``, or where it has none the eigen-oracle bisection
    threshold of ``criterion``."""
    try:
        return bound(p)
    except DegenerateBoundError:
        return bisect_n2_threshold(p, criterion)


def _n2_folds(batch: _Batch):
    """(phys, sep, prep, degenerate) of every state of ``batch``: three (N,)
    fold arrays and an (N,) mask of the states where any fold had no closed
    form.

    The closed forms are one array pass each, in the order intermediates,
    physicality, mirror, P-fold (so the first ``OverflowError`` is that of
    the first pass that overflows), shared with the per-state bounds'
    reads.  Only the entries whose closed form is NaN go through the
    per-state ``_n2_fold``: the eigen-oracle bisection, ``inf`` where the
    mode-1 rule fails."""
    folds = ((batch, _physical_bound, physicality_bound_n2, "physical"),
             (batch.mirror, _physical_bound, physicality_bound_n2, "physical"),
             (batch, _literal_prep_fold, literal_prep_fold, "p_representable"))
    closed = [_bound_array(bt, array_bound) for bt, array_bound, _, _ in folds]
    degenerate = np.zeros(len(batch.q.n1), dtype=bool)
    out = []
    for fold, (bt, _, bound, criterion) in zip(closed, folds):
        fold = fold.copy()  # the batch's bound reads keep the closed form, NaN included
        missing = np.isnan(fold)
        for i in np.flatnonzero(missing).tolist():
            fold[i] = _n2_fold(bound, _Row(bt, i), criterion)
        degenerate |= missing
        out.append(fold)
    return (*out, degenerate)


def n2_folds(p: GaussianParams) -> tuple[float, float, float, bool]:
    """The physicality, separability and literal P n2 folds at the other
    parameters of ``p``, and whether any of them was degenerate: the
    one-element view of ``n2_folds_batch``.

    Each fold is its closed form where that exists and the eigen-oracle
    bisection threshold (``inf`` if the mode-1 condition fails) otherwise.
    """
    phys, sep, prep, degenerate = _n2_folds(_Batch.of([p]))
    return float(phys[0]), float(sep[0]), float(prep[0]), bool(degenerate[0])


def n2_folds_batch(params: Sequence[GaussianParams]):
    """``n2_folds`` of every parameter set in ``params``, as three (N,)
    fold arrays and an (N,) degenerate mask: each closed form is one array
    pass over them, and only the entries without one are evaluated per
    state."""
    return _n2_folds(_Batch.of(params))
