"""References for the suite that share no code with the package: the
paper's definitions written out entry by entry, and an exact positivity
test in rational arithmetic (``psd_exact``) with the three criteria
decided by it (``physical_exact``, ``separable_exact``, ``prep_exact``),
the referee of both classification routes.  One exception,
``prep_folds``, reads the sweep's P-fold state by state from the
package's per-state views, as the reference of the P column's array pass.

The module is not named ``reference``: the benchmark's tests import their
own ``reference`` module under that top-level name in the same test run.
"""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

from gausssep import core
from gausssep.errors import DomainError

Z = np.diag([1.0, -1.0])  # E = Z (+) Z
PT_PERM = [0, 1, 3, 2]  # swaps the two rows and the two columns of mode 2: V -> T V T


def covariance(p) -> np.ndarray:
    """The 4x4 covariance matrix of the parameter set ``p`` in the
    (a1+, a1, a2+, a2) ordering, as the paper writes it."""
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


def closed_form_terms(p) -> tuple[tuple, tuple]:
    """((s, c, d), (s', c', d')) of the parameter set ``p``: the terms of
    the paper's closed-form n2 bounds of physicality and of
    P-representability, in Python complex arithmetic."""
    n1, m1, ms, mc = p.n1, p.m1, p.ms, p.mc
    s = n1 * (abs(mc) ** 2 + abs(ms) ** 2) - 2 * (mc * ms * m1.conjugate()).real
    c = 2 * n1 * ms.conjugate() * mc - mc ** 2 * m1.conjugate() - ms.conjugate() ** 2 * m1
    d = n1 ** 2 - 1 / 4 - abs(m1) ** 2
    s_p = (n1 - 1 / 2) * (abs(mc) ** 2 + abs(ms) ** 2) - 2 * (mc * ms * m1.conjugate()).real
    c_p = 2 * (n1 - 1 / 2) * ms.conjugate() * mc - mc ** 2 * m1.conjugate() - ms.conjugate() ** 2 * m1
    d_p = (n1 - 1 / 2) ** 2 - abs(m1) ** 2
    return (s, c, d), (s_p, c_p, d_p)


def covariance_exact(p, n2=None) -> list[list[tuple[Fraction, Fraction]]]:
    """``covariance(p)`` with every entry an exact (re, im) pair of
    ``Fraction``s, and n2 replaced by the rational ``n2`` if it is given."""
    def z(c, sign=1):
        return Fraction(c.real), sign * Fraction(c.imag)

    def conj(c):
        return z(c, -1)

    n1 = z(p.n1)
    n2 = z(p.n2) if n2 is None else (Fraction(n2), Fraction(0))
    m1, m2, ms, mc = p.m1, p.m2, p.ms, p.mc
    return [
        [n1, z(m1), z(ms), z(mc)],
        [conj(m1), n1, conj(mc), conj(ms)],
        [conj(ms), z(mc), n2, z(m2)],
        [conj(mc), z(ms), conj(m2), n2],
    ]


def _determinant(M, rows) -> tuple[Fraction, Fraction]:
    """The determinant of the principal submatrix ``rows`` of ``M``, whose
    entries are (re, im) pairs, by the Leibniz sum."""
    re_total = im_total = Fraction(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        re, im = Fraction(1), Fraction(0)
        for r, c in enumerate(perm):
            x, y = M[rows[r]][rows[c]]
            re, im = re * x - im * y, re * y + im * x
        sign = -1 if inversions % 2 else 1
        re_total += sign * re
        im_total += sign * im
    return re_total, im_total


def psd_exact(M) -> bool:
    """Whether the Hermitian 4x4 matrix ``M``, its entries (re, im) pairs of
    rationals, is positive semidefinite: exactly when its 15 principal
    minors are all >= 0.  Each minor of a Hermitian matrix is real."""
    minors = [_determinant(M, rows)
              for k in range(1, 5) for rows in itertools.combinations(range(4), k)]
    assert all(im == 0 for _, im in minors)
    return all(re >= 0 for re, _ in minors)


E_HALF = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2))  # E/2, E = Z (+) Z
MINUS_HALF = (Fraction(-1, 2),) * 4  # -I/2


def _shifted_psd(M, shift) -> bool:
    """``psd_exact`` of the exact matrix ``M`` plus diag(``shift``)."""
    return psd_exact([[(re + shift[i], im) if i == j else (re, im)
                       for j, (re, im) in enumerate(row)] for i, row in enumerate(M)])


def physical_exact(p, n2=None) -> bool:
    """Whether the parameter set ``p``, with n2 replaced by the rational
    ``n2`` if it is given, is physical, V + E/2 >= 0, decided exactly."""
    return _shifted_psd(covariance_exact(p, n2), E_HALF)


def separable_exact(p, n2=None) -> bool:
    """Whether ``p``, with n2 replaced by the rational ``n2`` if it is
    given, passes Simon's separability criterion, T V T + E/2 >= 0 with
    T V T the mode-2 mirror (``PT_PERM``), decided exactly."""
    M = covariance_exact(p, n2)
    return _shifted_psd([[M[i][j] for j in PT_PERM] for i in PT_PERM], E_HALF)


def prep_exact(p, n2=None) -> bool:
    """Whether ``p``, with n2 replaced by the rational ``n2`` if it is given,
    is P-representable, V - I/2 >= 0, decided exactly."""
    return _shifted_psd(covariance_exact(p, n2), MINUS_HALF)


def prep_folds(params) -> list[float]:
    """The sweep's P-fold of every state of ``params``, read state by state:
    the literal published P-fold from the state's own one-element batch
    where it is defined (OverflowError where it is not finite), else the
    exact fold of the state's row of one batch of ``params``.  Raises what
    those reads raise, for the first state that raises."""
    batch = core._Batch.of(params)
    folds = []
    for i, p in enumerate(params):
        fold, defined = core._Batch.of([p]).evaluated((core._literal_prep_fold,))
        if not defined[0]:
            folds.append(core.bisect_n2_threshold(core._Row(batch, i), "p_representable"))
        elif math.isfinite(fold[0]):
            folds.append(float(fold[0]))
        else:
            raise OverflowError("literal P-fold overflows")
    return folds


def partial_transpose(V: np.ndarray) -> np.ndarray:
    """T V T of a matrix, or of each matrix of a stack: the partial
    phase-space mirror on mode 2, as the index permutation ``PT_PERM``."""
    return V[..., PT_PERM, :][..., :, PT_PERM]


def two_mode_mixer(r: float, gamma: float) -> np.ndarray:
    """The 4x4 two-mode-squeezing matrix M that couples the modes, with
    ch = cosh r, sh = sinh r and u = e^{-i gamma}: symplectic (M+ E M = E),
    so V -> M+ V M keeps a state physical while it creates cross
    correlations.  The matrix reference of the construct sampler, whose
    states' parameters are those of M+ V M in closed form."""
    ch, sh, u = math.cosh(r), math.sinh(r), cmath.exp(-1j * gamma)
    return np.array([
        [ch, 0, 0, u * sh],
        [0, ch, u.conjugate() * sh, 0],
        [0, u * sh, ch, 0],
        [u.conjugate() * sh, 0, 0, ch],
    ], dtype=complex)


def local_angles(rng: np.random.Generator, theta_max: float = 1.5) -> tuple:
    """(theta1, phi1, vphi1, theta2, phi2, vphi2) of a random local
    symplectic: squeezes uniform in [0, theta_max], phases in [0, 2 pi),
    from two generator calls."""
    theta1, theta2 = rng.uniform(0.0, theta_max, size=2)
    phi1, vphi1, phi2, vphi2 = rng.uniform(0.0, 2 * math.pi, size=4)
    return theta1, phi1, vphi1, theta2, phi2, vphi2


def squeeze_angles(m: complex, n: float) -> tuple[float, float]:
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
