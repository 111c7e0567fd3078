"""References for the suite that share no code with the package: the
paper's definitions written out entry by entry.

The module is not named ``reference``: the benchmark's tests import their
own ``reference`` module under that top-level name in the same test run.
"""

import math

import numpy as np

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
