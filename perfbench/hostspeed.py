"""Host-speed correction for timings taken on a shared machine.

On the 2-core reference host the speed of a single-threaded numpy kernel
swings by up to 2x within seconds and its 20 s average drifts by about 20 %,
because other tenants contend for the same cores; CPU time tracks wall time
there, so no choice of clock removes it. sample() times a fixed mix of the
work mfbm does (a quad with a Python callback, a complex FFT of 2^14 points,
a 200 x 200 matrix product) and factor() turns the samples taken just before
and just after an operation into the ratio by which that operation's wall
time is scaled: REFERENCE_S / mean(before, after). Corrected times are
seconds at the host speed at which sample() takes REFERENCE_S.
"""

import time

import numpy as np
from scipy.integrate import quad

REFERENCE_S = 0.0423  # median of sample() on the reference host (see README.md)

_X = np.random.default_rng(0).standard_normal(1 << 14) + 0j
_A = np.random.default_rng(1).standard_normal((200, 200))


def _bump_weight(u):
    return float(np.exp(-1.0 / ((u - 5.0) * (10.0 - u)))) * u ** -2.4


def sample() -> float:
    """Wall seconds of one pass of the fixed kernel."""
    t = time.perf_counter()
    for _ in range(24):
        quad(_bump_weight, 5.0, 10.0, epsrel=1e-12, limit=200)
        np.fft.ifft(np.fft.fft(_X) * _X)
        _A @ _A
    return time.perf_counter() - t


def factor(before: float, after: float) -> float:
    return REFERENCE_S / (0.5 * (before + after))
