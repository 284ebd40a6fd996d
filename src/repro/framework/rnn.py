"""Recurrent layers: LSTM cell and multi-layer sequence LSTM.

GNMT (§3.1.3) is the suite's only RNN workload; these layers provide the
LSTM-with-skip-connections building blocks it needs.  One step is the
:func:`~repro.framework.fused.lstm_cell` kernel (or, in the reference kernel
modes, the composition of ``Tensor`` primitives it mirrors); steps chain
through the ordinary autodiff graph, so gradients flow through time without
any bespoke BPTT code.
"""

from __future__ import annotations

import numpy as np

from . import init
from .fused import lstm_cell
from .module import Module, ModuleList, Parameter
from .tensor import Tensor

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """A single LSTM step with fused gate projection.

    Gates are computed as one ``(4H)``-wide affine map of ``[x, h]`` and
    split into input/forget/cell/output parts.  Forget-gate bias starts at
    1.0, the standard trick for stable early training.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = Parameter(init.xavier_uniform((4 * hidden_size, input_size), rng))
        self.w_h = Parameter(init.xavier_uniform((4 * hidden_size, hidden_size), rng))
        bias = np.zeros(4 * hidden_size, dtype=np.float32)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor],
                mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        """``(h, c)`` after one step; rows where the ``(N, 1)`` ``mask`` is 0
        keep ``state``."""
        h_prev, c_prev = state
        return lstm_cell(x, h_prev, c_prev, self.w_x, self.w_h, self.bias, mask)

    def zero_state(self, batch: int) -> tuple[Tensor, Tensor]:
        z = np.zeros((batch, self.hidden_size), dtype=self.w_h.dtype)
        return Tensor(z), Tensor(z.copy())


class LSTM(Module):
    """Multi-layer LSTM over ``(T, N, input)`` sequences.

    ``residual`` adds skip connections between stacked layers from layer 2
    on — the GNMT trick the paper references ("1024 LSTM cells with skip
    connections").
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int,
                 rng: np.random.Generator, residual: bool = False):
        super().__init__()
        self.num_layers = num_layers
        self.hidden_size = hidden_size
        self.residual = residual
        self.cells = ModuleList(
            [LSTMCell(input_size if i == 0 else hidden_size, hidden_size, rng) for i in range(num_layers)]
        )

    def forward(
        self,
        x: Tensor,
        states: list[tuple[Tensor, Tensor]] | None = None,
        mask: np.ndarray | None = None,
    ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        """Run the stack over a full sequence.

        Parameters
        ----------
        x: ``(T, N, input_size)`` input sequence.
        states: optional initial per-layer ``(h, c)`` states.
        mask: optional ``(T, N)`` validity mask; masked steps carry the
            previous state forward (standard padded-batch handling).

        Returns ``(outputs, final_states)`` with outputs ``(T, N, H)``.
        """
        t_steps, batch = x.shape[0], x.shape[1]
        if states is None:
            states = [cell.zero_state(batch) for cell in self.cells]
        if mask is not None:
            mask = mask.astype(x.dtype, order="C")[:, :, None]  # (T, N, 1), one cast
        outputs: list[Tensor] = []
        for t in range(t_steps):
            inp = x[t]
            step_mask = None if mask is None else mask[t]
            for layer, cell in enumerate(self.cells):
                h, c = cell(inp, states[layer], step_mask)
                states[layer] = (h, c)
                if self.residual and layer >= 1:
                    inp = h + inp
                else:
                    inp = h
            outputs.append(inp)
        return Tensor.stack(outputs, axis=0), states
