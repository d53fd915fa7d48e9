"""The machine-speed probe: a fixed piece of work, independent of the
library, timed between CLI calls to measure how fast the machine runs.

The benchmark's cores are shared with other load, and their speed swings
by up to 2x for seconds to minutes at a time.  A run takes a probe every
``PROBE_EVERY_S`` seconds of its timed calls, so the mean probe time is the
machine's mean slowdown over the run, weighted by time.  Dividing the run's
wall times by that slowdown gives times at the probe's nominal speed,
which agree between runs far better than the raw ones.  The probe does the
same kind of work as the library's inner loops: small complex numpy arrays
and scalar Python arithmetic.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

PROBE_EVERY_S = 0.25
# The probe's time on a quiet core of the 2-core machine the benchmark was
# built on (Python 3.11, numpy 2.4, one BLAS thread): about its fastest time
# there, in a 30-second sample.
PROBE_NOMINAL_S = 0.0064
PROBE_ITERATIONS = 300

_COEFFS = np.array([1.0, -0.3 + 0.2j, 0.5j, 0.1, -0.2 + 0.1j])
_TS = np.linspace(0.0, 1.0, 17)


def probe():
    """Seconds the fixed probe work takes now."""
    t0 = perf_counter()
    acc = 0j
    for k in range(PROBE_ITERATIONS):
        z = 0.5 * np.exp(2j * np.pi * (_TS + k * 1e-3))
        v = np.sqrt(np.polyval(_COEFFS, z))
        acc += complex(np.sum(v * z)) + float(np.abs(v[1:] - v[:-1]).max())
        for p in z[:4]:
            acc += abs(complex(p) - 0.3)
    if not np.isfinite(acc):
        raise ArithmeticError("speed probe lost its value")
    return perf_counter() - t0
