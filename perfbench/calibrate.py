"""Machine-speed calibration for the end-to-end times.

On a shared 2-core machine the speed of a core drifts with the load of
other tenants: the same long_coarse pipeline took 1.2 s for minutes and then
2.2 s for minutes, with CPU time tracking wall time, so the drift is slower
execution, not waiting. No run length makes a raw median steady against
that. Each end-to-end time is therefore reported as

    raw wall x CAL_REF_S / cal

where ``cal`` is the mean wall of a fixed kernel timed just before and just
after the measured unit or set-up probe. The speed also changes within
seconds, so one factor per run would not follow it. On long_coarse the
bracketed factor cut the spread of run medians from 12-32% to 4-5%.

The kernel uses only numpy and scipy, in the mix the pipelines spend their
time on: COO-to-CSR assembly of 5-point operators, SuperLU factorisation and
solve, and many small array expressions whose cost is interpreter overhead.
It runs no package code, so a change to depotsim moves the ratio and not the
kernel. The result record keeps every raw time and every calibration next to
the reported value.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: nominal kernel wall (s); a reported time reads as seconds on a machine
#: where the kernel takes this long
CAL_REF_S = 0.1
GRIDS = (12, 24, 48)
REPS = 8
SMALL_OPS = 5000


def _five_point(n: int, shift: float) -> sp.csc_matrix:
    idx = np.arange(n * n).reshape(n, n)
    left, right = idx[:, :-1].ravel(), idx[:, 1:].ravel()
    down, up = idx[:-1, :].ravel(), idx[1:, :].ravel()
    rows = np.concatenate([left, right, left, right, down, up, down, up])
    cols = np.concatenate([left, right, right, left, down, up, up, down])
    one = np.ones(left.size + down.size)
    data = np.concatenate([one[:left.size], one[:left.size], -one[:left.size],
                           -one[:left.size], one[:down.size], one[:down.size],
                           -one[:down.size], -one[:down.size]])
    a = sp.coo_matrix((data, (rows, cols)), shape=(n * n, n * n)).tocsr()
    a = a + sp.diags(np.full(n * n, shift))
    return a.tocsc()


def _small_array_ops(x: np.ndarray) -> float:
    """Per-call overhead of many small array expressions, as in a time step."""
    total = 0.0
    for k in range(SMALL_OPS):
        y = np.maximum(x * 0.5 + k, 0.0)
        y = np.where(y > 1.0, y, -y)
        total += float(np.sum(y * x)) + float(y.max(initial=0.0))
    return total


def kernel() -> float:
    """Run the fixed kernel once; returns a checksum so the work is used."""
    total = 0.0
    for rep in range(REPS):
        for n in GRIDS:
            a = _five_point(n, 0.1 + 0.01 * rep)
            lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A")
            x = lu.solve(np.ones(n * n))
            total += float(np.max(np.abs(x)))
    return total + _small_array_ops(np.linspace(-1.0, 1.0, 17 * 17))


def measure() -> float:
    """Wall time of one kernel run (s)."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def speed(cal_before: float, cal_after: float) -> float:
    """Factor that turns raw seconds of the bracketed work into nominal ones."""
    return CAL_REF_S / (0.5 * (cal_before + cal_after))
