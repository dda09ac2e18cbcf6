"""A fixed reference loop that measures how fast the host runs right now.

On a host whose cores are shared with other tenants, speed can swing by up to
half within seconds, for NumPy and the interpreter alike. Each timed call is
therefore bracketed by measurements of this loop, whose code and inputs never
change, and the call's rate is rescaled to the speed at which one pass takes
`NOMINAL_S`. A program change moves the rescaled rate; a change in host
speed moves the call and the loop together and cancels. The loop uses only
NumPy, never svdgrad, and mixes small LAPACK calls with elementwise work the
way the library does.
"""

from __future__ import annotations

import time

import numpy as np

# one pass on an unloaded 2-vCPU Intel Xeon (NumPy 2.4, OpenBLAS 0.3.31)
NOMINAL_S = 0.0064


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20241121)
        self.matrices = [rng.standard_normal((10, 10)).astype(np.float32) for _ in range(24)]
        self.matrices += [rng.standard_normal((20, 20)) for _ in range(24)]
        self.matrices += [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
                          for _ in range(24)]

    def seconds(self) -> float:
        """Wall time of the faster of two passes."""
        return min(self._pass(), self._pass())

    def _pass(self) -> float:
        start = time.perf_counter()
        for A in self.matrices:
            U, s, Vh = np.linalg.svd(A, full_matrices=False)
            F = s[None, :] ** 2 - s[:, None] ** 2
            np.fill_diagonal(F, 1.0)
            B = (U * (s / F.sum(axis=0)).astype(U.dtype)) @ Vh
            float(np.abs(B).sum())
        return time.perf_counter() - start

    def scale(self, before: float, after: float) -> float:
        """Factor that rescales a rate measured between two passes."""
        return (before + after) / 2 / NOMINAL_S
