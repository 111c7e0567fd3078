"""Covariance-matrix model and positivity criteria for bipartite Gaussian states.

A two-mode Gaussian state is fully described (up to first moments, which are
irrelevant for the questions treated here) by a Hermitian 4x4 covariance
matrix in the ordering (a1+, a1, a2+, a2), parametrized by six scalars:
the real occupations n1, n2 and the complex correlations m1, m2 (local
anomalous terms), ms (beamsplitter-type cross term) and mc (two-mode
squeezing cross term).

Three nested positivity conditions are implemented, each both in closed form
(n2 bounds from the shifted matrix's 2x2 blocks) and through a direct
minimum-eigenvalue oracle:

* physicality:        V + E/2 >= 0
* separability:       T V T + E/2 >= 0   (partial phase-space mirror)
* P-representability: V - I/2 >= 0

The criteria are array-native: they evaluate N states at once over a
struct-of-arrays form of the parameters (``_ParamArrays``: float arrays for
n1, n2 and an (re, im) pair of float arrays for each complex parameter), and
the eigen-oracle runs one ``eigvalsh`` over the stacked (N, 4, 4) matrices.
``_ParamArrays.covariance`` is the one covariance layout;
``build_covariance`` is its one-element view, and ``params_from_covariance``
reads a matrix through the stack reader ``_ParamArrays.read_stack``.
``classify_batch`` and ``n2_folds_batch`` are the batch entry points.  The
per-state API (``classify``, ``physicality_bound_n2`` and
``bisect_n2_threshold``) takes a parameter set, evaluated as a one-element
batch, or a state of a batch (``_Row``), which it reads out of that batch's
array pass; ``classify_batch`` is ``classify`` over every state of one
batch.  A batch (``_Batch``) runs each array pass once: the families and
the covariance stack as cached properties, any other pass under the key
``(compute, *args)``.  The closed form is one pass per batch over three
criterion rows, physicality, separability and P-representability
(``_Batch.families``), so one bound pass (``_bound``) serves the closed
margins, the n2 views and the sweep, and one exact-fold pass
(``_exact_folds``) the sweep's degenerate entries.  ``n2_folds_batch``
takes the entries without a closed form from the exact fold's pass: the
separability column (its row is bit for bit the physicality row of the
mirrored states, so no mirrored batch is built) and the P column (the
literal published P-fold, which has no per-state view) in one masked
read each, the physicality column state by state, through
``physicality_bound_n2`` and ``bisect_n2_threshold``, whose calls the
benchmark's tracer counts.  ``n2_folds`` is its one-element view.  A
batch builds its (N, 4, 4) covariance stack once, read-only, at its
first use, unless its maker (the sampler) hands it the stack it built;
the oracle rows of all three criteria and the invariant-form reduction
of ``symplectic`` index that one stack.  The eigen-oracle route and the
reduction read physicality from one oracle pass over it
(``_physical_oracle``), which the reject sampler hands its batch too.
Every operation is elementwise or per matrix, so a state's result does
not depend on the other states in its batch, bit for bit.

Physicality and P-representability are one positivity question at two
shifts, so they share one closed form: the parameters (a, s, c, h, e, x0)
of their rows of the ``_Family`` (a = d or d', the determinant of the
shifted mode-1 block), built by one formula at each row's shift
(``_families``).  Separability is physicality of the partial transpose
(Simon's criterion), so it has no code of its own: both its margins are
the physicality code run on the mirrored states (``_ParamArrays.mirror``:
ms <-> mc swapped, m2 conjugated; ``GaussianParams.mirror`` is its
one-element view).  The closed form's separability row is the physicality
family of the mirrored states, (s, conj(c), d), read with m2 conjugated
and delta negated, and the oracle's rows are T V T of the batch's one
stack: the rows and
columns of mode 2 swapped (index permutation [0, 1, 3, 2]), the mirrored
covariance bit for bit.  Complex products are computed on the (re, im)
float pairs, with the groupings of ``_families``, so that the mirrored
families are the exact conjugates; numpy's vectorised complex kernels do
not guarantee that.  Its n2 bound is

    n2 >= x0 + s/a + sqrt( (e (1 - delta/a))^2 + |m2 - c/a|^2 ),

with delta = |mc|^2 - |ms|^2 (the mirror flips its sign and conjugates
m2 and c), defined where a > TOL_SING and h >= 0.  It agrees with the
eigenvalue oracle to machine precision; see tests for the cross-validation.

``classify`` is the only verdict API.  The n2 folds of the ``sweep``
command (closed-form bounds, the literal published P-fold and, at
degenerate points, the exact fold) also live here.  The exact fold
(``_exact_folds``) is the larger root of det(V + E/2), or of det(V - I/2)
for P, a quadratic in n2 with leading coefficient a (Simon's criterion in
invariant form): off the band |a| <= TOL_SING it is the bound above, which
divides by a, and only inside the band does ``_split_folds`` avoid the
division.  A fold is ``inf`` where its criterion's one mode-1 rule fails,
the rule the closed margins apply too; ``prep_below_sep`` counts the
P-fold as below the S-fold only by more than ``FOLD_GAP_RTOL`` * max(1,
S-fold).  Non-finite families, bounds or oracle margins raise
``OverflowError`` for the whole batch, and a non-finite exact fold for the
first state of its column that has one.
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

from .errors import DegenerateBoundError, InvalidParameterError, StructuralError

# Absolute tolerances on 4x4 matrices, but for TOL_HERM and TOL_PATTERN, which scale
# per entry (``_rebuild_residual``): entry (i, j) of a matrix against its rebuild B,
# relative to max(1, sqrt(|B_ii| |B_jj|)).
TOL_PSD = 1e-10
TOL_HERM = 1e-12  # B = V+: Hermiticity in ``symplectic.invariants``
TOL_SING = 1e-12
TOL_PATTERN = 1e-9  # B rebuilt from the parameters read off the matrix
BOUNDARY_BAND = 1e-8  # |oracle margin| at or below this lies on a decision boundary
FOLD_GAP_RTOL = 1e-12  # relative gap below which the sweep's P- and S-folds tie

# Canonical constant matrices.
I4 = np.eye(4)
E = np.diag([1.0, -1.0, 1.0, -1.0])  # Z (+) Z, Z = diag(1, -1)

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
        """Parameter-level partial transpose: swap ms <-> mc, conjugate m2
        (the one-element view of ``_ParamArrays.mirror``)."""
        return _ParamArrays.of([self]).mirror().params()[0]


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
        """(parameters, residual, ok, rebuilt): the parameters read off each
        matrix V of an (N, 4, 4) stack (n1 = V[0, 0].real, n2 = V[2, 2].real,
        m1, m2, ms, mc = V[0, 1], V[2, 3], V[0, 2], V[0, 3]), per matrix the
        ``_rebuild_residual`` of the structural rule and whether it passes,
        and the stack the rule compares V with, ``covariance`` of the
        parameters.  Nothing is checked here."""
        q = cls(V[:, 0, 0].real.copy(), V[:, 2, 2].real.copy(),
                *((V[:, i, j].real.copy(), V[:, i, j].imag.copy())
                  for i, j in ((0, 1), (2, 3), (0, 2), (0, 3))))
        B = q.covariance()
        return (q, *_rebuild_residual(V, B), B)

    @classmethod
    def from_records(cls, values):
        """(parameters, failure) of N records, each a tuple of floats: the ten
        of a parameter set, in the order of ``columns``, or the 32 of a 4x4
        matrix, re and im of its cells row by row.  The matrices are built
        as one (M, 4, 4) stack, in one array call, and read by one
        ``read_stack``; ``failure`` is the records' ``first_error``, whose
        structural rule covers the matrices only."""
        at = [k for k, v in enumerate(values) if len(v) != 10]
        cols = np.array([v if len(v) == 10 else (0.0,) * 10 for v in values], float).reshape(-1, 10)
        residual, ok = np.zeros(len(cols)), np.ones(len(cols), dtype=bool)
        if at:
            V = np.array([values[k] for k in at]).view(complex).reshape(-1, 4, 4)
            qm, residual[at], ok[at], _ = cls.read_stack(V)
            cols[at] = np.column_stack(qm.columns())
        q = cls.from_rows(cols)
        return q, q.first_error(ok, residual)

    def columns(self) -> tuple[np.ndarray, ...]:
        """The ten (N,) columns: n1, n2, then re and im of m1, m2, ms, mc."""
        return (self.n1, self.n2, *self.m1, *self.m2, *self.ms, *self.mc)

    def invalid(self) -> np.ndarray:
        """Per parameter set, whether ``GaussianParams`` rejects it: a value
        that is not finite or a negative occupation."""
        finite = np.logical_and.reduce([np.isfinite(x) for x in self.columns()])
        return ~finite | (self.n1 < 0.0) | (self.n2 < 0.0)

    def first_error(self, ok=None, residual=None):
        """(k, error) of the first set k that fails as ``params_from_covariance``
        fails: where ``GaussianParams`` rejects it, that one set's error, else
        where it fails the structural mask ``ok``, the StructuralError of its
        ``residual``; None if every set passes."""
        bad = self.invalid() if ok is None else self.invalid() | ~ok
        if not bad.any():
            return None
        k = int(np.argmax(bad))
        try:
            self.take([k]).params()
        except InvalidParameterError as exc:
            return k, exc
        return k, StructuralError("matrix does not have the two-mode covariance pattern"
                                  f" (max deviation {residual[k]:.3e})")

    def validated(self, ok=None, residual=None) -> "_ParamArrays":
        """``self``, whose parameter sets must all pass ``first_error``: the
        first that fails raises its error."""
        failure = self.first_error(ok, residual)
        if failure is not None:
            raise failure[1]
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
        """The (N, 4, 4) covariance matrices in the (a1+, a1, a2+, a2)
        ordering: the package's one covariance layout."""
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


class _Family(NamedTuple):
    """The closed-form families of N states as (3, N) arrays, one row per
    criterion: physicality, separability and P-representability.  In
    x = n2 - x0 each row's determinant is a quadratic a x^2 - 2s x + ...,
    where a is that of the shifted mode-1 block A = h I + [[e, m1],
    [conj(m1), -e]]: (h, e, x0) = (n1, 1/2, 0) for physicality and
    separability, (n1 - 1/2, 0, 1/2) for P-representability, with e and x0
    the (3, 1) columns ``_E`` and ``_X0`` (``_families``); c is an (re, im)
    pair."""

    a: np.ndarray
    s: np.ndarray
    c: tuple[np.ndarray, np.ndarray]
    h: np.ndarray

    def mode1_fails(self) -> np.ndarray:
        """Where A >= 0 fails, so that no n2 meets the criterion (fold inf):
        a < -TOL_SING, or h < 0 (n1 < 1/2; only P's h can be negative) off
        the degenerate band |a| <= TOL_SING.  Inside the band the
        eigen-oracle decides, or ``_split_folds`` for the exact fold."""
        return (self.a < -TOL_SING) | ((self.a > TOL_SING) & (self.h < 0.0))


# The criterion rows of a batch's closed-form passes: physicality, separability, P,
# their shifts and the names of their bounds in errors.  Separability's is
# physicality's on the mirrored states, whose c and m2 are conjugated and whose
# delta = |mc|^2 - |ms|^2 is negated (``_SIGN``).
_BOUND_NAMES = ("physicality bound", "physicality bound", "P-representability bound")
_E = np.array([[0.5], [0.5], [0.0]])
_X0 = np.array([[0.0], [0.0], [0.5]])
_SIGN = np.array([[1.0], [-1.0], [1.0]])


@np.errstate(over="ignore", invalid="ignore")
def _families(q: _ParamArrays) -> _Family:
    """The (physicality, separability, P-representability) families of every
    row, from one formula at each criterion row's shift: a = h h - e e -
    |m1|^2, s = h (|mc|^2 + |ms|^2) - 2 Re(mc ms conj(m1)) and
    c = 2h conj(ms) mc - mc^2 conj(m1) - conj(ms)^2 m1 (the paper's d, s, c
    and d', s', c'), with c conjugated on separability's row: bit for bit
    the physicality family of the mirrored states.  OverflowError if any of
    them is not finite."""
    n1, m1, ms, mc = q.n1, q.m1, q.ms, q.mc
    # Groupings below are chosen so that swapping ms <-> mc yields the exact
    # complex conjugate bit for bit (the mirror identity is tested exactly).
    cross = _abs2(mc) + _abs2(ms)
    re3 = 2.0 * _mul(_mul(mc, ms), _conj(m1))[0]
    ms_mc = _mul(_conj(ms), mc)
    sq_mc, sq_ms = _mul(_mul(mc, mc), _conj(m1)), _mul(_mul(_conj(ms), _conj(ms)), m1)
    squares = sq_mc[0] + sq_ms[0], sq_mc[1] + sq_ms[1]
    h = n1 - _X0
    re, im = _sub((2.0 * h * ms_mc[0], 2.0 * h * ms_mc[1]), squares)
    f = _Family(h * h - _E * _E - _abs2(m1), h * cross - re3, (re, _SIGN * im), h)
    finite = (np.isfinite(f.s) & np.isfinite(re) & np.isfinite(im) & np.isfinite(f.a)).all(axis=0)
    if not finite.all():
        i = int(np.argmin(finite))
        raise OverflowError(f"closed-form intermediates overflow for state {i} of the batch")
    return f


class _Batch:
    """N states as ``_ParamArrays`` and their array passes, each run once, at
    its first use, and kept.  A pass without arguments is a cached property
    (``families``, ``covariance``); a pass ``compute(batch, *args)`` is kept
    under the key ``(compute, *args)`` (``evaluated``).  The closed-form
    passes (``_bound``, ``_exact_folds``) run over the three criterion rows
    of ``families`` at once.  The per-state functions read a state of the
    batch (a ``_Row``) out of these passes.

    A maker that already holds the states' covariance stack (the sampler)
    passes it as ``covariance``, and their physicality oracle margins as
    ``physical``, the ``(_physical_oracle,)`` pass: each must be what the
    batch would compute, bit for bit.  Both are kept read-only."""

    def __init__(self, q: _ParamArrays, covariance: np.ndarray | None = None,
                 physical: np.ndarray | None = None):
        self.q = q
        self._values: dict = {}
        if covariance is not None:
            covariance.flags.writeable = False
            self.covariance = covariance  # a cached property's value, as if it had run
        if physical is not None:
            physical.flags.writeable = False
            self._values[(_physical_oracle,)] = physical

    @classmethod
    def of(cls, params: Sequence[GaussianParams]) -> "_Batch":
        return cls(_ParamArrays.of(params))

    @cached_property
    def families(self) -> _Family:
        return _families(self.q)

    @cached_property
    def covariance(self) -> np.ndarray:
        """The (N, 4, 4) covariance matrices, read-only: every consumer of
        the batch's matrices indexes this one stack."""
        V = self.q.covariance()
        V.flags.writeable = False
        return V

    def evaluated(self, key: tuple):
        """``compute(self, *args)`` of the key ``(compute, *args)``, run
        once per key."""
        try:
            return self._values[key]
        except KeyError:
            pass
        value = self._values[key] = key[0](self, *key[1:])
        return value

    def rows(self) -> list["_Row"]:
        n, rep = len(self.q.n1), itertools.repeat  # tuple.__new__ skips the NamedTuple's Python __new__
        return list(map(tuple.__new__, rep(_Row, n), zip(rep(self, n), range(n))))


class _Row(NamedTuple):
    """State ``index`` of ``batch``."""

    batch: _Batch
    index: int


def _row(p: GaussianParams | _Row) -> _Row:
    """``p`` if it is a row of a batch, else the one-element batch of ``p``."""
    return p if isinstance(p, _Row) else _Row(_Batch.of([p]), 0)


def build_covariance(p: GaussianParams) -> np.ndarray:
    """The 4x4 covariance matrix of ``p`` in the (a1+, a1, a2+, a2)
    ordering: the one-element view of ``_ParamArrays.covariance``."""
    return _ParamArrays.of([p]).covariance()[0]


@np.errstate(over="ignore", invalid="ignore")
def _rebuild_residual(V: np.ndarray, B: np.ndarray, tol: float = TOL_PATTERN):
    """(max |V - B| over all 16 entries, whether every entry (i, j) is
    within tol * max(1, sqrt(|B_ii| |B_jj|))) per matrix of an (N, 4, 4)
    stack V and the stack B of its rebuilds, as (N,) arrays: the
    package's one per-entry rule, with TOL_PATTERN for the structural rule
    and TOL_HERM for ``symplectic.invariants``' Hermiticity (B = V+).

    The tolerance of an entry scales with the two diagonal entries it
    couples, so a rounding-level residual in the block of a large mode
    passes, while the block of a small mode and the cross block keep the
    tolerance of their own scale.  The scale is the rebuild's, whose
    diagonal the matrix matches within the tolerance when it passes, so an
    infinite entry of V is never its own excuse.  A NaN entry of V fails.
    """
    scale = np.sqrt(np.abs(np.diagonal(B, axis1=-2, axis2=-1)))
    tol = tol * np.maximum(1.0, scale[..., :, None] * scale[..., None, :])
    dev = np.abs(V - B)
    residual = dev.max(axis=(-2, -1), initial=0.0)
    ok = (dev <= tol).all(axis=(-2, -1))
    return residual, ok


def params_from_covariance(V: np.ndarray) -> GaussianParams:
    """Read the six parameters off a two-mode covariance matrix.

    V is accepted iff it rebuilds from the parameters read off it, which
    covers Hermiticity and the conjugation pattern between the two rows of
    each mode (``_rebuild_residual``); otherwise StructuralError.  A shape
    other than 4x4 fails first, then parameters ``GaussianParams`` rejects,
    then the pattern (``_ParamArrays.first_error`` of V as a one-element
    stack of ``_ParamArrays.read_stack``).
    """
    V = np.asarray(V, dtype=complex)
    if V.shape != (4, 4):
        raise StructuralError(f"expected a 4x4 matrix, got shape {V.shape}")
    q, residual, ok, _ = _ParamArrays.read_stack(V[None])
    return q.validated(ok, residual).params()[0]


def min_eigenvalue_hermitian(M: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix of an (N, n, n) stack,
    as an (N,) array (oracle backend).  The stacks come from the package's
    own layout, Hermitian by construction, so nothing is checked here: a
    matrix whose spectrum overflows has a non-finite value in its own row
    only, which each caller checks (``_verdicts`` for its whole batch,
    ``symplectic.reduce_to_invariant_form`` for its one state)."""
    return np.linalg.eigvalsh(M)[:, 0]


# ---------------------------------------------------------------------------
# Closed-form n2 bounds and margins, per row; NaN where no bound exists


def _checked(x: np.ndarray, defined: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(x[defined]).all():
        raise OverflowError(f"{what} overflows")
    return x


@np.errstate(over="ignore", invalid="ignore")
def _bound(batch: _Batch):
    """(bound, defined), two (3, N) arrays over the criterion rows of
    ``batch`` (physicality, separability, P-representability): the smallest
    n2 at which each criterion holds, x0 + s/a + sqrt((e (1 - delta/a))^2 +
    |m2 - c/a|^2), defined where a > TOL_SING and the mode-1 rule holds, NaN
    elsewhere; on separability's row m2 is conjugated and delta negated.
    The root is hypot(e (1 - delta/a), |m2 - c/a|) where the sum of the
    squares overflows but its terms do not.  Not checked: where it
    overflows, it is not finite.  Read through ``evaluated``, once per
    batch."""
    q, f = batch.q, batch.families
    defined = (f.a > TOL_SING) & (f.h >= 0.0)
    a = np.where(defined, f.a, np.nan)
    r = _abs(_sub((q.m2[0], _SIGN * q.m2[1]), _div(f.c, a)))
    t = _E * (1.0 - _SIGN * (_abs2(q.mc) - _abs2(q.ms)) / a)
    # P's e = 0 drops the term, and sqrt(fl(r^2)) = r: its bound is 1/2 + s'/d' + |m2 - c'/d'|.
    t[2] = 0.0
    r2 = t * t + r * r
    root = np.where(np.isinf(r2) & np.isfinite(t) & np.isfinite(r), np.hypot(t, r), np.sqrt(r2))
    return _X0 + f.s / a + root, defined


@np.errstate(over="ignore", invalid="ignore")
def _literal_prep_fold(batch: _Batch):
    """(fold, defined): the published P-fold s'/d' + |m2 - c'|/d' + 1/2 of
    every state of ``batch``, defined where d' > TOL_SING (kept literal for
    the fold-comparison figure; its dips below the S-fold are unphysical)."""
    q, f = batch.q, batch.families
    defined = f.a[2] > TOL_SING
    d = np.where(defined, f.a[2], np.nan)
    return f.s[2] / d + _abs(_sub(q.m2, (f.c[0][2], f.c[1][2]))) / d + 0.5, defined


def physicality_bound_n2(p: GaussianParams | _Row) -> float:
    """Smallest n2 compatible with V + E/2 >= 0, at fixed remaining parameters.

    Requires d = n1^2 - 1/4 - |m1|^2 > 0; degenerate or negative d raises
    DegenerateBoundError (negative d means the mode-1 condition already
    fails, so no n2 bound exists), and an overflowing bound OverflowError.
    The bound is read from the batch's bound pass (``_bound``).  The
    separability bound is this function applied to ``p.mirror()``, bit for
    bit the separability row of the pass over ``p``.
    """
    batch, i = p if type(p) is _Row else _row(p)
    fold, defined = batch.evaluated((_bound,))
    if not defined.item(0, i):
        a = batch.families.a
        raise DegenerateBoundError("physicality bound", a.item(0, i), a.item(2, i),
                                   batch.q.n1.item(i))
    b = fold.item(0, i)
    if not math.isfinite(b):
        raise OverflowError("physicality bound overflows")
    return b


def _closed_margins(batch: _Batch) -> np.ndarray:
    """The (physical, separable, prep) closed-form margins of every state of
    ``batch``, a (3, N) array over its criterion rows, from its one bound
    pass: the smaller of the mode-1 margin and n2 minus the bound, the
    mode-1 margin where the mode-1 rule fails, and NaN exactly where
    |a| <= TOL_SING (degenerate).  A bound that overflows raises
    ``OverflowError``, the first row's first."""
    q, f = batch.q, batch.families
    m1_margin = q.n1 - np.sqrt(_abs2(q.m1) + _E * _E) - _X0
    bound, defined = batch.evaluated((_bound,))
    for k, name in enumerate(_BOUND_NAMES):
        _checked(bound[k], defined[k], name)
    return np.where(f.mode1_fails(), m1_margin, np.minimum(m1_margin, q.n2 - bound))


# ---------------------------------------------------------------------------
# Eigen-oracle margins of a stack of covariance matrices


def _physical_margin_eig(V: np.ndarray):
    # No separate V >= 0 term is needed: V - E/2 is the complex conjugate of
    # K (V + E/2) K (K swaps the two rows of each mode), so both share one
    # spectrum, and V is their mean, so by Weyl lambda_min(V) >=
    # lambda_min(V + E/2).
    return min_eigenvalue_hermitian(V + E / 2)


def _physical_oracle(batch: _Batch) -> np.ndarray:
    """The physicality oracle margin of every state of ``batch``, one call
    over its covariance stack.  Not checked: each reader checks the margins
    it reads (``_verdicts``, ``symplectic._reductions``).  Read through
    ``evaluated``, once per batch, or given by the batch's maker."""
    return _physical_margin_eig(batch.covariance)


def _prep_margin_eig(V: np.ndarray):
    return min_eigenvalue_hermitian(V - I4 / 2)


_ORACLE = "eigen-oracle"  # as in its OverflowError: "eigen-oracle overflows"
_T = [0, 1, 3, 2]  # T V T of a stack V: the index permutation of the partial transpose


# Fallback tuple by bit mask: bit k set means criterion _CRITERIA[k] fell back.
_CRITERIA = ("physical", "separable", "p_representable")
_FALLBACKS = tuple(tuple(c for k, c in enumerate(_CRITERIA) if code >> k & 1) for code in range(8))
_METHODS = (METHOD_CLOSED,) + (METHOD_EIG,) * 7  # a closed-form route's method, by the same code
_ANSWERS = (False, True, None)  # a separable or p_representable answer by its code


def _check_tol_psd(tol: float, name: str = "tol_psd") -> None:
    """The one rule for the decision tolerance ``name``: finite and >= 0,
    else InvalidParameterError."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {tol}")


def _check_route(method: str, tol_psd: float) -> None:
    """The one rule for a classification's arguments: ValueError for an
    unknown ``method``, then ``_check_tol_psd`` of ``tol_psd``."""
    if method not in (METHOD_CLOSED, METHOD_EIG):
        raise ValueError(f"unknown method {method!r}")
    _check_tol_psd(tol_psd)


def _verdicts(batch: _Batch, method: str, tol_psd: float) -> list[Verdict]:
    """The Verdict of every state of ``batch``, in one array pass, once its
    arguments pass ``_check_route``.  An ``OverflowError`` from any state's
    closed form or oracle margin is raised for the whole batch.

    The records are built in one pass over the result columns, each by
    ``tuple.__new__`` as in ``_Batch.rows``: ``physical`` and the margins
    as Python values by ``tolist``, each answer by ``_ANSWERS`` from an
    int8 code column (2 where the state is unphysical), and ``method`` and
    ``fallbacks`` by the fallback code."""
    _check_route(method, tol_psd)
    # The eigen-oracle decides the rows where the closed form is degenerate
    # or not used, on rows of the batch's covariance stack; the eigen-oracle
    # route reads physicality from the batch's one oracle pass.
    if method == METHOD_CLOSED:
        phys, sep, prep = _closed_margins(batch)
        need_phys = np.isnan(phys)
        if need_phys.any():
            phys[need_phys] = _checked(_physical_margin_eig(batch.covariance[need_phys]), ...,
                                       _ORACLE)
    else:
        phys = _checked(batch.evaluated((_physical_oracle,)), ..., _ORACLE)
        sep, prep = np.full(len(phys), np.nan), np.full(len(phys), np.nan)
    physical = phys >= -tol_psd
    need_sep = np.isnan(sep) & physical
    need_prep = np.isnan(prep) & physical
    # Separability is physicality of the mirror, on both routes: the
    # mirror's covariance is T V T, the batch's rows with mode 2's rows and
    # columns swapped, bit for bit, gathered in one indexing step.
    if need_sep.any():
        sep[need_sep] = _checked(_physical_margin_eig(batch.covariance[np.ix_(need_sep, _T, _T)]),
                                 ..., _ORACLE)
    if need_prep.any():
        prep[need_prep] = _checked(_prep_margin_eig(batch.covariance[need_prep]), ..., _ORACLE)
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
    return list(map(tuple.__new__, itertools.repeat(Verdict), zip(
        physical.tolist(), separable, p_representable, phys.tolist(), sep.tolist(), prep.tolist(),
        methods, fallbacks)))


def classify(p: GaussianParams | _Row, method: str = METHOD_CLOSED,
             tol_psd: float = TOL_PSD) -> Verdict:
    """Full classification: physicality, then separability and P-representability.

    ``method`` is "closed-form" or "eigen-oracle".  The closed-form route
    falls back to the eigen-oracle per criterion when its bound is
    degenerate; any fallback is recorded in ``fallbacks`` and flips
    ``method`` to "eigen-oracle".  ``tol_psd`` must be finite and >= 0,
    else InvalidParameterError.  ``p`` is a parameter set or a state of
    the batch ``classify_batch`` evaluates: the Verdict is read from one
    array pass over the batch, run at the batch's first call with this
    method and tolerance.
    """
    batch, i = p if type(p) is _Row else _row(p)
    return batch.evaluated((_verdicts, method, tol_psd))[i]


def classify_batch(params: Sequence[GaussianParams], method: str = METHOD_CLOSED,
                   tol_psd: float = TOL_PSD) -> list[Verdict]:
    """``classify`` of every parameter set in ``params``, all read from one
    array pass over them.  Each Verdict equals, bit for bit, that of
    ``classify`` on its state alone."""
    return _classified(_Batch.of(params), method, tol_psd)


def _classified(batch: _Batch, method: str, tol_psd: float) -> list[Verdict]:
    """``classify`` of every state of ``batch``: the routes classified on
    one batch share its covariance stack."""
    _check_route(method, tol_psd)  # here too: an empty batch reads no row
    return list(map(classify, batch.rows(), itertools.repeat(method), itertools.repeat(tol_psd)))


# ---------------------------------------------------------------------------
# n2 folds for the sweep


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _exact_folds(batch: _Batch) -> np.ndarray:
    """The exact n2 folds of every state of ``batch``, a (3, N) array over
    its criterion rows (physicality, separability, P-representability): the
    smallest n2 >= 0 with V + E/2 >= 0, T V T + E/2 >= 0 or V - I/2 >= 0;
    ``inf`` where no n2 works, NaN where the arithmetic overflows.

    n2 enters the matrix as n2 times a projector, so no eigenvalue falls as
    n2 grows: the valid n2 are [fold, inf), and the fold is the larger root
    of the determinant (Simon's criterion).  In x = n2 - x0 that is a
    quadratic a x^2 + b x + ..., b = -2s, in the family's terms.
    Off the band |a| <= TOL_SING the root is the closed bound, read from
    the batch's bound pass (``_bound``); inside it A is taken as singular
    (``_split_folds``).  It is ``inf`` where the mode-1 rule fails."""
    f = batch.families
    x, _ = batch.evaluated((_bound,))
    fails = f.mode1_fails()
    band = np.abs(f.a) <= TOL_SING
    if band.any():
        split, none = _split_folds(batch.q, f)
        x = np.where(band, split + _X0, x)
        fails = fails | band & none
    return np.where(fails, np.inf, np.where(np.isfinite(x), x, np.nan))


def _split_folds(q: _ParamArrays, f: _Family):
    """(x, none) of ``_exact_folds``, two (3, N) arrays over the criterion
    rows ``f``, taking each row's shifted mode-1 block A = h I + [[e, m1],
    [conj(m1), -e]] as singular.  On separability's row m2 and ms conj(mc)
    are conjugated and delta is negated, as on the mirrored states.

    No n2 works (``none``) where A is not positive semidefinite within
    TOL_PSD: its smaller eigenvalue h - sqrt(e^2 + |m1|^2) is below
    -TOL_PSD.  That can happen inside the band only for P, whose A has
    eigenvalues h +- |m1|, when both are small (n1 near 1/2).  Else
    b = -t |C+ u|^2, with t = 2h the trace of A, C the cross block and u
    the unit null vector of A.  A negative slope couples u to mode 2, so no
    n2 works; at a zero slope u splits off, and the fold is that of the
    block left, V2 + shift - C+ A C / t^2 >= 0 (A / t^2 is the
    pseudo-inverse of A): x = lambda_max(M), M = C+ A C / t^2 minus
    V2 + shift at x = 0, whose entries are those of the family, as
    C+ A C = t C+ C - C+ adj(A) C.  Where t <= 0, A is 0 within TOL_PSD,
    and the block left is V2 + shift if C = 0, else no n2 works.  A
    positive slope, which a positive semidefinite A cannot give, is
    rounding or A's indefiniteness within TOL_PSD, and is taken as a zero
    one.

    Here b is recomputed with the moduli squared as x^2 + y^2, not through
    ``hypot`` as in ``_families``: a polynomial in the parameters, it
    is 0 exactly where the cross block is, and wherever its exact value is
    0 and the inputs are short dyadics, which keep every product exact."""
    m2, t = (q.m2[0], _SIGN * q.m2[1]), 2.0 * f.h
    mc2, ms2 = (z[0] * z[0] + z[1] * z[1] for z in (q.mc, q.ms))
    delta, cross = _SIGN * (mc2 - ms2), mc2 + ms2
    s = f.h * cross - 2.0 * _mul(_mul(q.mc, q.ms), _conj(q.m1))[0]
    t2 = t * t
    ms_mc = _mul(_conj(q.ms), q.mc)
    w = _sub(m2, _div(_sub((2.0 * t * ms_mc[0], 2.0 * t * (_SIGN * ms_mc[1])), f.c), t2))
    x = np.where(t > 0.0, (t * cross - s) / t2 + np.hypot(_E * (1.0 + delta / t2), _abs(w)),
                 np.hypot(_E, _abs(m2)))
    indefinite = f.h - np.hypot(_E, _abs(q.m1)) < -TOL_PSD
    return x, indefinite | (s > 0.0) | (t <= 0.0) & (cross != 0.0)


# criterion -> its row in the batch's closed-form passes
_N2_CRITERIA = {"physical": 0, "p_representable": 2}


def bisect_n2_threshold(p: GaussianParams | _Row, criterion: str) -> float:
    """Smallest n2 >= 0 at which ``criterion`` holds, ``inf`` if none does.

    ``criterion`` is "physical" or "p_representable"; separability's is
    "physical" on ``p.mirror()``, bit for bit the separability row of the
    exact-fold pass over ``p``.  The fold is exact (``_exact_folds``),
    read from one array pass over the batch of ``p``; it is ``inf`` where
    the mode-1 condition fails, and an ``OverflowError`` where its
    arithmetic overflows.  Nothing is bisected: the name stays only because
    the benchmark's tracer wraps this function by name.
    """
    batch, i = p if type(p) is _Row else _row(p)
    fold = batch.evaluated((_exact_folds,)).item(_N2_CRITERIA[criterion], i)
    if fold != fold:
        raise OverflowError(f"n2 fold overflows for state {i} of the batch")
    return fold


def prep_below_sep(prep, sep):
    """Whether the sweep's P-fold lies below its S-fold by more than
    ``FOLD_GAP_RTOL`` * max(1, |S-fold|), so that ulp ties do not count.
    An infinite S-fold counts every finite P-fold as below it.  Elementwise
    on arrays."""
    gap = np.where(np.isinf(sep), 0.0, FOLD_GAP_RTOL * np.maximum(1.0, np.abs(sep)))
    return prep < sep - gap


def _n2_fold(p: _Row) -> float:
    """The physicality bound of ``p``, or where it has none its exact fold
    (``bisect_n2_threshold``)."""
    try:
        return physicality_bound_n2(p)
    except DegenerateBoundError:
        return bisect_n2_threshold(p, "physical")


def _exact_filled(batch: _Batch, column: np.ndarray, k: int) -> np.ndarray:
    """``column`` with its NaN entries taken from row k of the batch's
    exact-fold pass (``_exact_folds``), in one masked read; a NaN exact fold
    is the ``OverflowError`` of its first state."""
    missing = np.isnan(column)
    if not missing.any():
        return column
    column = np.where(missing, batch.evaluated((_exact_folds,))[k], column)
    overflow = np.isnan(column)
    if overflow.any():
        raise OverflowError(f"n2 fold overflows for state {int(overflow.argmax())} of the batch")
    return column


def _n2_folds(batch: _Batch):
    """(phys, sep, prep, degenerate) of every state of ``batch``: three (N,)
    fold arrays and an (N,) mask of the states where any fold had no closed
    form.

    The physicality and separability columns are rows of the batch's one
    bound pass, which the closed margins and ``physicality_bound_n2`` read
    too, and the P column is the literal P-fold: the first ``OverflowError``
    is that of the families, then of physicality, separability and the
    P-fold.  The entries whose closed form is NaN take the exact fold of
    their criterion, from the batch's one exact-fold pass (``_exact_folds``):
    ``inf`` where the mode-1 rule fails.  The separability and P columns
    take theirs in one masked read each (``_exact_filled``).  The
    physicality column still reads its own per state, through the bound's
    ``DegenerateBoundError`` and ``bisect_n2_threshold``, because the
    benchmark's tracer counts those calls.  Both physicality rows have the
    same a and h, so the separability bound is NaN exactly where the
    physicality bound is.  A NaN exact fold is the ``OverflowError`` of its
    first state, raised in the column order phys, sep, P."""
    bound, defined = batch.evaluated((_bound,))
    _checked(bound[:2], defined[:2], "physicality bound")
    prep = _checked(*batch.evaluated((_literal_prep_fold,)), "literal P-fold")
    degenerate = np.isnan(bound[0])
    phys = bound[0].copy()  # the batch's bound pass keeps the closed form, NaN included
    rows = np.flatnonzero(degenerate).tolist()
    if rows:
        batch.evaluated((_exact_folds,))  # its one array pass, before the per-state reads
        # tuple.__new__ skips the NamedTuple's Python __new__, as in ``_Batch.rows``
        phys[rows] = [_n2_fold(tuple.__new__(_Row, (batch, i))) for i in rows]
    return (phys, _exact_filled(batch, bound[1], 1), _exact_filled(batch, prep, 2),
            degenerate | np.isnan(prep))


def n2_folds(p: GaussianParams) -> tuple[float, float, float, bool]:
    """The physicality, separability and literal P n2 folds at the other
    parameters of ``p``, and whether any of them was degenerate: the
    one-element view of ``n2_folds_batch``.

    Each fold is its closed form where that exists, and otherwise the exact
    fold of its criterion (``bisect_n2_threshold``; ``inf`` if the mode-1
    condition fails or no n2 works).
    """
    phys, sep, prep, degenerate = _n2_folds(_Batch.of([p]))
    return float(phys[0]), float(sep[0]), float(prep[0]), bool(degenerate[0])


def n2_folds_batch(params: Sequence[GaussianParams]):
    """``n2_folds`` of every parameter set in ``params``, as three (N,)
    fold arrays and an (N,) degenerate mask: each closed form and each
    exact fold is one array pass over them.  Only the physicality entries
    without a closed form are read per state, for the benchmark's tracer
    (``_n2_folds``)."""
    return _n2_folds(_Batch.of(params))
