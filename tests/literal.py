"""References for the suite that share no code with the package: the
paper's definitions written out entry by entry.

The module is not named ``reference``: the benchmark's tests import their
own ``reference`` module under that top-level name in the same test run.
"""

import math

import numpy as np

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


def partial_transpose(V: np.ndarray) -> np.ndarray:
    """T V T of a matrix, or of each matrix of a stack: the partial
    phase-space mirror on mode 2, as the index permutation ``PT_PERM``."""
    return V[..., PT_PERM, :][..., :, PT_PERM]


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
