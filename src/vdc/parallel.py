"""Deterministic summation.

Float results must be byte-identical from run to run, so float sums here
use a reduction tree that depends only on the array length.
"""

from __future__ import annotations

import numpy as np


def pairwise_sum(arr) -> float:
    """Sum a float array by repeated adjacent pairing.

    The reduction tree depends only on the array length, so the result is
    reproducible bit-for-bit across runs (unlike np.sum, whose pairing
    blocks may change with internal striding).
    """
    x = np.asarray(arr, dtype=np.float64).ravel()
    while x.size > 1:
        m = x.size // 2
        paired = x[: 2 * m : 2] + x[1 : 2 * m : 2]
        if x.size % 2:
            paired = np.concatenate([paired, x[-1:]])
        x = paired
    return float(x[0]) if x.size else 0.0
