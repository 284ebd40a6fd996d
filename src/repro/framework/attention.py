"""Attention layers: multi-head attention and Transformer blocks.

Implements the architecture of Vaswani et al. (2017) at configurable width —
the suite's non-recurrent translation benchmark (§3.1.3) is a stack of these
blocks ("each block is composed of multi-head attention and point-wise,
fully connected layers").
"""

from __future__ import annotations

import math

import numpy as np

from . import init
from .functional import softmax
from .layers import Dropout, LayerNorm, Linear
from .module import Module
from .tensor import Tensor

__all__ = [
    "MultiHeadAttention",
    "FeedForward",
    "TransformerEncoderLayer",
    "TransformerDecoderLayer",
    "positional_encoding",
    "causal_mask",
    "attention_bias",
]

_NEG_INF = -1e9


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Sinusoidal position encodings, shape ``(length, dim)``."""
    position = np.arange(length)[:, None].astype(np.float64)
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    enc = np.zeros((length, dim), dtype=np.float32)
    enc[:, 0::2] = np.sin(position * div)
    enc[:, 1::2] = np.cos(position * div[: (dim - dim // 2)])
    return enc


def causal_mask(length: int) -> np.ndarray:
    """Boolean ``(length, length)`` mask, True where attention is allowed."""
    return np.tril(np.ones((length, length), dtype=bool))


def attention_bias(mask: np.ndarray) -> np.ndarray:
    """Additive form of a boolean attention mask: 0 where allowed, -1e9 elsewhere.

    :class:`MultiHeadAttention` takes either form, so a model whose layers
    share a mask converts it once per forward, not once per attention call.
    """
    return np.where(mask, 0.0, _NEG_INF).astype(np.float32)


class MultiHeadAttention(Module):
    """Scaled dot-product attention with ``num_heads`` parallel heads.

    Inputs are ``(N, T, d_model)``.  ``mask`` broadcasts against the
    ``(N, heads, T_q, T_k)`` attention logits: boolean (False entries are
    masked out) or already additive (see :func:`attention_bias`).
    """

    def __init__(self, d_model: int, num_heads: int, rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by num_heads={num_heads}")
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        # A Python float: a NumPy scalar is strongly typed and would widen
        # everything downstream of the scores to float64.
        self.scale = 1.0 / math.sqrt(self.d_head)
        self.w_q = Linear(d_model, d_model, rng, init_fn=init.xavier_uniform)
        self.w_k = Linear(d_model, d_model, rng, init_fn=init.xavier_uniform)
        self.w_v = Linear(d_model, d_model, rng, init_fn=init.xavier_uniform)
        self.w_o = Linear(d_model, d_model, rng, init_fn=init.xavier_uniform)
        self.drop = Dropout(dropout, rng) if dropout > 0 else None

    def _split(self, x: Tensor) -> Tensor:
        n, t, _ = x.shape
        return x.reshape(n, t, self.num_heads, self.d_head).transpose(0, 2, 1, 3)

    def project_kv(self, key: Tensor, value: Tensor) -> tuple[Tensor, Tensor]:
        """Per-head keys and values ``(N, H, Tk, dh)``: the part of a forward
        that does not depend on the query, so a decode loop attending to a
        fixed memory computes it once and passes it back as ``kv``."""
        return self._split(self.w_k(key)), self._split(self.w_v(value))

    def forward(self, query: Tensor, key: Tensor, value: Tensor, mask: np.ndarray | None = None,
                kv: tuple[Tensor, Tensor] | None = None) -> Tensor:
        n, tq, _ = query.shape
        q = self._split(self.w_q(query))  # (N, H, Tq, dh)
        k, v = self.project_kv(key, value) if kv is None else kv
        scores = (q @ k.transpose(0, 1, 3, 2)) * self.scale
        if mask is not None:
            bias = attention_bias(mask) if mask.dtype == np.bool_ else mask
            scores = scores + Tensor(bias)
        attn = softmax(scores, axis=-1)
        if self.drop is not None:
            attn = self.drop(attn)
        context = attn @ v  # (N, H, Tq, dh)
        merged = context.transpose(0, 2, 1, 3).reshape(n, tq, self.d_model)
        return self.w_o(merged)


class FeedForward(Module):
    """Position-wise two-layer MLP with ReLU."""

    def __init__(self, d_model: int, d_ff: int, rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.fc1 = Linear(d_model, d_ff, rng, init_fn=init.xavier_uniform)
        self.fc2 = Linear(d_ff, d_model, rng, init_fn=init.xavier_uniform)
        self.drop = Dropout(dropout, rng) if dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        h = self.fc1(x).relu()
        if self.drop is not None:
            h = self.drop(h)
        return self.fc2(h)


class TransformerEncoderLayer(Module):
    """Pre-norm encoder block: self-attention + feed-forward, each residual."""

    def __init__(self, d_model: int, num_heads: int, d_ff: int, rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.self_attn = MultiHeadAttention(d_model, num_heads, rng, dropout)
        self.ff = FeedForward(d_model, d_ff, rng, dropout)
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)

    def forward(self, x: Tensor, src_mask: np.ndarray | None = None) -> Tensor:
        h = self.norm1(x)
        x = x + self.self_attn(h, h, h, mask=src_mask)
        x = x + self.ff(self.norm2(x))
        return x


class TransformerDecoderLayer(Module):
    """Pre-norm decoder block: causal self-attention, cross-attention, FFN."""

    def __init__(self, d_model: int, num_heads: int, d_ff: int, rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.self_attn = MultiHeadAttention(d_model, num_heads, rng, dropout)
        self.cross_attn = MultiHeadAttention(d_model, num_heads, rng, dropout)
        self.ff = FeedForward(d_model, d_ff, rng, dropout)
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.norm3 = LayerNorm(d_model)

    def forward(
        self,
        x: Tensor,
        memory: Tensor,
        tgt_mask: np.ndarray | None = None,
        memory_mask: np.ndarray | None = None,
        memory_kv: tuple[Tensor, Tensor] | None = None,
    ) -> Tensor:
        """``memory_kv``: ``self.cross_attn.project_kv(memory, memory)`` from an
        earlier call with the same ``memory`` (greedy decoding)."""
        h = self.norm1(x)
        x = x + self.self_attn(h, h, h, mask=tgt_mask)
        h = self.norm2(x)
        x = x + self.cross_attn(h, memory, memory, mask=memory_mask, kv=memory_kv)
        x = x + self.ff(self.norm3(x))
        return x
