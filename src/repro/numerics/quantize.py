"""Quantized-training hook: train with weights stored in a reduced format.

Implements the classic low-precision training scheme with a full-precision
*master copy* (Micikevicius et al., 2018, which the paper cites): gradients
are applied to the fp32 master weights, and the model's working weights are
re-quantized after every optimizer step.  The forward/backward pass
therefore always sees quantized weights — exactly the mechanism that
produces Figure 1's diverging validation-error curves.
"""

from __future__ import annotations

import numpy as np

from ..framework.module import Module
from .formats import NumericFormat, get_format

__all__ = ["QuantizedWeights"]


class QuantizedWeights:
    """Maintain quantized working weights over an fp32 master copy.

    Usage::

        qw = QuantizedWeights(model, "fixed8")
        for batch in loader:
            loss = ...; loss.backward()
            qw.apply_gradients(optimizer)   # step on master, re-quantize

    With ``format="float32"`` the wrapper is an exact no-op relative to
    plain training.
    """

    def __init__(self, model: Module, numeric_format: str | NumericFormat):
        self.model = model
        self.format = (
            numeric_format
            if isinstance(numeric_format, NumericFormat)
            else get_format(numeric_format)
        )
        # Master copy holds full-precision values; model.data holds the
        # quantized working copy used by forward/backward.
        self._master: dict[int, np.ndarray] = {
            id(p): p.data.astype(np.float32).copy() for p in model.parameters()
        }
        self._requantize()

    def _requantize(self) -> None:
        for p in self.model.parameters():
            p.data = self.format.quantize(self._master[id(p)])

    def apply_gradients(self, optimizer) -> None:
        """Apply the optimizer step to the master weights, then re-quantize.

        The optimizer's parameter list must be the model's parameters; the
        gradients were computed against the quantized working weights.
        """
        # Swap master values in, step, capture, swap quantized back.
        for p in self.model.parameters():
            p.data = self._master[id(p)]
        optimizer.step()
        for p in self.model.parameters():
            self._master[id(p)] = p.data
        self._requantize()

    def master_state(self) -> dict[int, np.ndarray]:
        """Expose master weights (for tests)."""
        return {k: v.copy() for k, v in self._master.items()}
