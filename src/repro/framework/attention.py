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
from .fused import attention
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
    "DecodeCache",
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


def attention_bias(mask: np.ndarray, dtype=np.float32) -> np.ndarray:
    """Additive form of a boolean attention mask: 0 where allowed, -1e9 elsewhere.

    :class:`MultiHeadAttention` takes either form, so a model whose layers
    share a mask converts it once per forward, not once per attention call.
    """
    return np.where(mask, 0.0, _NEG_INF).astype(dtype)


class MultiHeadAttention(Module):
    """Scaled dot-product attention with ``num_heads`` parallel heads.

    Inputs are ``(N, T, d_model)``.  ``mask`` broadcasts against the
    ``(N, heads, T_q, T_k)`` attention logits: boolean (False entries are
    masked out) or already additive (see :func:`attention_bias`); any other
    dtype is a ``ValueError``.  ``kv`` replaces the projection of ``key`` and
    ``value`` with an earlier :meth:`project_kv` result.
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

    def project_kv(self, key: Tensor, value: Tensor) -> tuple[Tensor, Tensor]:
        """Projected keys and values ``(N, Tk, d_model)``: the part of a
        forward that does not depend on the query, so a decode loop computes
        it once per memory (or once per new row) and passes it back as ``kv``."""
        return self.w_k(key), self.w_v(value)

    def forward(self, query: Tensor, key: Tensor, value: Tensor, mask: np.ndarray | None = None,
                kv: tuple[Tensor, Tensor] | None = None) -> Tensor:
        if mask is not None:
            if mask.dtype == np.bool_:
                mask = attention_bias(mask, query.dtype)
            elif mask.dtype.kind != "f":
                raise ValueError("attention mask must be boolean or floating (additive), "
                                 f"got dtype {mask.dtype}")
        q = self.w_q(query)
        k, v = self.project_kv(key, value) if kv is None else kv
        # Dropout is the identity outside training, so only a training call
        # hands it on (and takes the composed path for it).
        drop = self.drop if self.drop is not None and self.drop.training else None
        return self.w_o(attention(q, k, v, mask, self.scale, self.num_heads, dropout=drop))


class DecodeCache:
    """One decoder layer's keys and values while it decodes token by token.

    ``memory_kv`` is the cross-attention projection of the encoder memory
    (fixed for the whole decode); ``k``/``v`` hold the self-attention
    projections of the rows decoded so far, in buffers sized for the longest
    prefix so a step writes one row and copies none.
    """

    def __init__(self, memory_kv: tuple[Tensor, Tensor], max_len: int):
        self.memory_kv = memory_kv
        n, _, d_model = memory_kv[0].shape
        self.k = np.empty((n, max_len, d_model), dtype=memory_kv[0].dtype)
        self.v = np.empty_like(self.k)
        self.length = 0

    def append(self, k_row: Tensor, v_row: Tensor) -> tuple[Tensor, Tensor]:
        """Store the newest row's ``(N, 1, d_model)`` projections; returns the
        keys and values of every row so far."""
        t = self.length
        self.k[:, t] = k_row.data[:, 0]
        self.v[:, t] = v_row.data[:, 0]
        self.length = t + 1
        return Tensor(self.k[:, : t + 1]), Tensor(self.v[:, : t + 1])


class FeedForward(Module):
    """Position-wise two-layer MLP with ReLU."""

    def __init__(self, d_model: int, d_ff: int, rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.fc1 = Linear(d_model, d_ff, rng, init_fn=init.xavier_uniform, activation="relu")
        self.fc2 = Linear(d_ff, d_model, rng, init_fn=init.xavier_uniform)
        self.drop = Dropout(dropout, rng) if dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        h = self.fc1(x)
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

    def decode_cache(self, memory: Tensor, max_len: int) -> DecodeCache:
        """The state :meth:`forward` needs to decode ``max_len`` rows over
        ``memory`` one row per call."""
        return DecodeCache(self.cross_attn.project_kv(memory, memory), max_len)

    def forward(
        self,
        x: Tensor,
        memory: Tensor,
        tgt_mask: np.ndarray | None = None,
        memory_mask: np.ndarray | None = None,
        cache: DecodeCache | None = None,
    ) -> Tensor:
        """With a ``cache`` (from :meth:`decode_cache`, forward-only), ``x`` is
        the newest row ``(N, 1, d_model)`` alone: it attends to the cached
        rows before it and to itself, which is what the causal mask leaves
        the last row of a full prefix, so ``tgt_mask`` is not used."""
        h = self.norm1(x)
        if cache is None:
            x = x + self.self_attn(h, h, h, mask=tgt_mask)
            memory_kv = None
        else:
            self_kv = cache.append(*self.self_attn.project_kv(h, h))
            x = x + self.self_attn(h, h, h, kv=self_kv)
            memory_kv = cache.memory_kv
        h = self.norm2(x)
        x = x + self.cross_attn(h, memory, memory, mask=memory_mask, kv=memory_kv)
        x = x + self.ff(self.norm3(x))
        return x
