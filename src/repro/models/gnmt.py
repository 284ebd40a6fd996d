"""MiniGNMT: recurrent seq2seq with attention (the suite's only RNN).

§3.1.3: "GNMT is the only RNN in the suite and consists of an 8-layer
encoder and an 8-layer decoder, each using 1024 LSTM cells with skip
connections."  MiniGNMT keeps the shape of that design — multi-layer LSTM
encoder and decoder with residual (skip) connections between layers and
Luong-style dot-product attention from decoder states over encoder
outputs — at 2 layers and small width.
"""

from __future__ import annotations

import numpy as np

from ..framework import LSTM, Embedding, Linear, Module, Tensor, attention_bias, functional as F
from ..datasets.translation import BOS, EOS, PAD

__all__ = ["MiniGNMT"]


class MiniGNMT(Module):
    """LSTM encoder-decoder with attention over a shared vocabulary."""

    def __init__(self, vocab_size: int, rng: np.random.Generator, embed_dim: int = 48,
                 hidden: int = 64, layers: int = 2):
        super().__init__()
        self.vocab_size = vocab_size
        self.hidden = hidden
        self.embed = Embedding(vocab_size, embed_dim, rng)
        self.encoder = LSTM(embed_dim, hidden, layers, rng, residual=True)
        self.decoder = LSTM(embed_dim, hidden, layers, rng, residual=True)
        self.attn_combine = Linear(2 * hidden, hidden, rng)
        self.out = Linear(hidden, vocab_size, rng)

    # -- encoding ---------------------------------------------------------------
    def encode(self, src: np.ndarray) -> tuple[Tensor, list, np.ndarray]:
        """Encode ``(N, T_src)`` token ids; returns (memory, states, additive pad mask)."""
        mask = src != PAD  # (N, T)
        emb = self.embed(src.T)  # (T, N, E)
        memory, states = self.encoder(emb, mask=mask.T)
        return memory, states, attention_bias(mask)

    def _attend(self, h: Tensor, memory: Tensor, src_bias: np.ndarray) -> Tensor:
        """Luong dot attention: one decoder state against all memory steps.

        ``h``: (N, H); ``memory``: (T, N, H); ``src_bias``: (N, T), -1e9 on
        padding; returns context-combined (N, H).
        """
        mem = memory.transpose(1, 0, 2)  # (N, T, H)
        scores = (mem @ h.reshape(h.shape[0], self.hidden, 1)).reshape(h.shape[0], -1)
        weights = F.softmax(scores + Tensor(src_bias), axis=-1)  # (N, T)
        context = (weights.reshape(weights.shape[0], 1, -1) @ mem).reshape(h.shape[0], self.hidden)
        return self.attn_combine(Tensor.concat([h, context], axis=1)).tanh()

    # -- training -------------------------------------------------------------
    def forward(self, src: np.ndarray, dec_input: np.ndarray) -> Tensor:
        """Teacher-forced logits ``(N, T_tgt, V)``."""
        memory, states, src_bias = self.encode(src)
        emb = self.embed(dec_input.T)  # (T, N, E)
        dec_out, _ = self.decoder(emb, states=states)
        t_steps = dec_out.shape[0]
        logits = []
        for t in range(t_steps):
            combined = self._attend(dec_out[t], memory, src_bias)
            logits.append(self.out(combined))
        return Tensor.stack(logits, axis=1)  # (N, T, V)

    def loss(self, src: np.ndarray, dec_input: np.ndarray, dec_target: np.ndarray) -> Tensor:
        logits = self.forward(src, dec_input)
        return F.cross_entropy(logits, dec_target, ignore_index=PAD)

    # -- inference ---------------------------------------------------------------
    def greedy_decode(self, src: np.ndarray, max_len: int = 24) -> list[list[int]]:
        """Greedy decoding of a batch of source sentences."""
        from ..framework import no_grad

        with no_grad():
            memory, states, src_bias = self.encode(src)
            n = src.shape[0]
            tokens = np.full(n, BOS, dtype=np.int64)
            finished = np.zeros(n, dtype=bool)
            steps: list[np.ndarray] = []
            for _ in range(max_len):
                emb = self.embed(tokens[None])  # (1, N, E)
                dec_out, states = self.decoder(emb, states=states)
                combined = self._attend(dec_out[0], memory, src_bias)
                tokens = self.out(combined).data.argmax(axis=-1)
                steps.append(tokens)
                finished |= tokens == EOS
                if finished.all():
                    break
        # A sentence is what its row produced before its first EOS.
        outputs: list[list[int]] = []
        for row in np.stack(steps, axis=1) if steps else np.empty((n, 0), dtype=np.int64):
            stop = np.flatnonzero(row == EOS)
            outputs.append(row[: stop[0]].tolist() if stop.size else row.tolist())
        return outputs
