"""The reference kernel that puts times measured on a shared host on one scale.

The host the benchmark was built on runs the same code at two speeds about
1.6 times apart, in spells from under a second to a whole run.  A time
measured next to the kernel is reported at reference speed: multiplied by
``REFERENCE_S`` over the kernel's own time at that moment.
"""

import time

import numpy as np

# the kernel's time on an idle core of the host the benchmark was built on
REFERENCE_S = 60e-6

_NODES = np.exp(1j * np.arange(6.0))
_COEFFS = np.arange(7.0, 0.0, -1.0) + 0.5j


def time_reference() -> float:
    """Seconds for a fixed kernel shaped like popuc's work: six sweeps of a
    simultaneous root update on six points (small numpy broadcasts) and a
    Horner loop over Python complex numbers."""
    z = _NODES.copy()
    acc = 0j
    start = time.perf_counter()
    for _ in range(6):
        d = z[:, None] - z[None, :]
        np.fill_diagonal(d, 1.0)
        r = 1.0 / d
        np.fill_diagonal(r, 0.0)
        z = z - 1e-3 * r.sum(axis=1)
        for c in _COEFFS:
            acc = acc * 0.5 + c
    return time.perf_counter() - start
