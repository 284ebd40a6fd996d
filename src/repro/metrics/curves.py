"""Learning-curve dispersion: the Figure 3 statistic.

The paper cites DAWNBench's retrospective analysis (Coleman et al., 2019)
when motivating the variance rules.  :func:`curve_spread` takes per-epoch
quality curves from several seeds and returns the per-epoch max - min
across them, which ``benchmarks/test_fig3_accuracy_curves.py`` reports.
"""

from __future__ import annotations

import numpy as np

__all__ = ["curve_spread"]


def curve_spread(curves: list[list[float]] | np.ndarray) -> np.ndarray:
    """Per-epoch (max - min) across seeds; the Figure 3 variability series."""
    arr = np.asarray(curves, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValueError("need a (seeds, epochs) array with >= 2 seeds")
    return arr.max(axis=0) - arr.min(axis=0)
