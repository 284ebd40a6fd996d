"""Batch-size → epochs-to-target convergence models (§2.2.2).

"MLPerf v0.5 ResNet-50 takes around 64 epochs to reach the target top-1
accuracy ... at a minibatch size of 4K, while a minibatch size of 16K can
require over 80 epochs ... resulting in a 30% increase in computation."

:class:`CriticalBatchModel` is the analytic gradient-noise model
``epochs(B) = e_min * (1 + B / B_crit)`` (McCandlish et al.'s critical batch
size).  :func:`fit_critical_batch` fits it to epochs-to-target measured by
training the mini-benchmarks at several batch sizes (the §2.2.2 bench), and
the round simulator uses it to extrapolate to datacenter-scale batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CriticalBatchModel", "fit_critical_batch"]


@dataclass(frozen=True)
class CriticalBatchModel:
    """``epochs(B) = e_min * (1 + B / B_crit)``.

    Below ``B_crit`` bigger batches are nearly free (epochs ~ e_min);
    beyond it the epoch count grows linearly — reproducing the §2.2.2
    observation that 4K→16K raised ResNet epochs ~30%.
    """

    e_min: float
    b_crit: float

    def epochs_to_target(self, batch_size: float) -> float:
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        return self.e_min * (1.0 + batch_size / self.b_crit)

    def computation_overhead(self, batch_size: float, reference_batch: float) -> float:
        """Relative increase in total computation vs the reference batch."""
        return self.epochs_to_target(batch_size) / self.epochs_to_target(reference_batch) - 1.0


def fit_critical_batch(measurements: dict[int, float]) -> CriticalBatchModel:
    """Least-squares fit of the critical-batch model to measured points.

    ``epochs = e_min + (e_min / b_crit) * B`` is linear in ``B``; fit the
    line, then recover the two parameters.
    """
    if len(measurements) < 2:
        raise ValueError("need at least two measurements to fit")
    batches = np.array(sorted(measurements))
    epochs = np.array([measurements[b] for b in sorted(measurements)], dtype=np.float64)
    slope, intercept = np.polyfit(batches, epochs, 1)
    e_min = max(float(intercept), 1e-9)
    slope = max(float(slope), 1e-12)
    return CriticalBatchModel(e_min=e_min, b_crit=e_min / slope)
