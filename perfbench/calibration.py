"""A fixed calibration probe that measures how fast the host runs right now.

On a shared host the CPU slows by up to 40% in phases of seconds to tens
of minutes, when other tenants load it.  Such a slowdown stretches the
program's commands and this probe alike, so the benchmark times each
command and each set-up between two probe runs and reports the time in
*reference seconds*: the measured time, scaled by ``REF_PROBE_S`` over the
probe's time at that moment.  A reference second is a second of a host
that runs the probe in exactly ``REF_PROBE_S``.

The probe does the same kinds of work as the program: Python complex
arithmetic, a small ``numpy.linalg.eigvalsh`` and ``json.dumps``.  It
depends on nothing in the repository outside this directory, so a change
to the program does not change it.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

PROBE_LOOPS = 200
# The probe's duration, in seconds, on the 2-core Xeon (KVM) box where the
# benchmark was defined: 1.7 ms undisturbed, about 2.4 ms as a median.
REF_PROBE_S = 0.002

_MATRIX = np.eye(4, dtype=complex)


def probe_seconds() -> float:
    """Wall time of one run of the fixed probe."""
    t0 = perf_counter()
    z = 0j
    for i in range(PROBE_LOOPS):
        z += complex(i, 1) * complex(1, -i)
        np.linalg.eigvalsh(_MATRIX)
        json.dumps({"z": [z.real, z.imag], "i": i})
    return perf_counter() - t0
