"""MiniTransformer: attention-based encoder-decoder translation model.

The non-recurrent translation benchmark (§3.1.3): "It consists of an
encoder and decoder, each a stack of 6 blocks" — here a stack of 2 blocks
at d_model=64, trained with the Noam warmup schedule the original used.
"""

from __future__ import annotations

import numpy as np

from ..framework import (
    Embedding,
    Linear,
    Module,
    ModuleList,
    Tensor,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
    attention_bias,
    causal_mask,
    functional as F,
    positional_encoding,
)
from ..datasets.translation import BOS, EOS, PAD

__all__ = ["MiniTransformer"]


class MiniTransformer(Module):
    """Pre-norm Transformer encoder-decoder over a shared vocabulary."""

    def __init__(self, vocab_size: int, rng: np.random.Generator, d_model: int = 64,
                 num_heads: int = 4, d_ff: int = 128, layers: int = 2, max_len: int = 64):
        super().__init__()
        self.vocab_size = vocab_size
        self.d_model = d_model
        self.embed = Embedding(vocab_size, d_model, rng)
        self.pos = positional_encoding(max_len, d_model)
        self.enc_layers = ModuleList(
            [TransformerEncoderLayer(d_model, num_heads, d_ff, rng) for _ in range(layers)]
        )
        self.dec_layers = ModuleList(
            [TransformerDecoderLayer(d_model, num_heads, d_ff, rng) for _ in range(layers)]
        )
        self.out = Linear(d_model, vocab_size, rng)
        self.scale = float(np.sqrt(d_model))

    def _check_length(self, length: int, what: str) -> None:
        if length > self.pos.shape[0]:
            raise ValueError(f"{what} of length {length} outgrows the positional "
                             f"table: the model was built with max_len={self.pos.shape[0]}")

    def _embed(self, tokens: np.ndarray, start: int = 0) -> Tensor:
        """Embed ``(N, T)`` tokens standing at positions ``start .. start+T``."""
        stop = start + tokens.shape[1]
        return self.embed(tokens) * self.scale + Tensor(self.pos[None, start:stop])

    def encode(self, src: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Encode ``(N, T_src)``; returns (memory, additive key-padding mask)."""
        self._check_length(src.shape[1], "source")
        # (N, 1, 1, T): broadcasts over heads & queries; one conversion serves
        # every layer that attends to the source.
        pad_mask = attention_bias((src != PAD)[:, None, None, :])
        h = self._embed(src)
        for layer in self.enc_layers:
            h = layer(h, src_mask=pad_mask)
        return h, pad_mask

    def forward(self, src: np.ndarray, dec_input: np.ndarray) -> Tensor:
        """Teacher-forced logits ``(N, T_tgt, V)``."""
        t = dec_input.shape[1]
        self._check_length(t, "decoder input")
        memory, mem_mask = self.encode(src)
        tgt_pad = (dec_input != PAD)[:, None, None, :]
        tgt_mask = attention_bias(tgt_pad & causal_mask(t)[None, None])
        h = self._embed(dec_input)
        for layer in self.dec_layers:
            h = layer(h, memory, tgt_mask=tgt_mask, memory_mask=mem_mask)
        return self.out(h)

    def loss(self, src: np.ndarray, dec_input: np.ndarray, dec_target: np.ndarray,
             label_smoothing: float = 0.1) -> Tensor:
        logits = self.forward(src, dec_input)
        return F.cross_entropy(logits, dec_target, ignore_index=PAD,
                               label_smoothing=label_smoothing)

    def greedy_decode(self, src: np.ndarray, max_len: int = 24) -> list[list[int]]:
        """Greedy decoding, one row per step.

        Each step embeds only the newest token and runs it through the
        decoder as a length-1 query: every layer keeps the self-attention
        keys and values of the rows before it (and the memory's
        cross-attention ones, which never change) in a
        :class:`~repro.framework.attention.DecodeCache`, so a sentence costs
        O(T) decoder rows, not O(T^2).  The promise is the *tokens* of the
        loop that re-runs the whole prefix each step, not its logit bits (a
        one-row GEMM need not round like a row of the full one); DESIGN.md
        has the contract and ``tests/models/test_greedy_decode.py`` the loop.
        """
        from ..framework import no_grad

        self._check_length(max_len, "greedy_decode(max_len)")
        with no_grad():
            memory, mem_mask = self.encode(src)
            caches = [layer.decode_cache(memory, max_len) for layer in self.dec_layers]
            n = src.shape[0]
            dec = np.full((n, max_len + 1), PAD, dtype=np.int64)
            dec[:, 0] = BOS
            finished = np.zeros(n, dtype=bool)
            for t in range(max_len):
                h = self._embed(dec[:, t : t + 1], start=t)
                for layer, cache in zip(self.dec_layers, caches):
                    h = layer(h, memory, memory_mask=mem_mask, cache=cache)
                next_tok = self.out(h).data[:, 0].argmax(axis=-1)
                next_tok[finished] = PAD
                finished |= next_tok == EOS
                dec[:, t + 1] = next_tok
                if finished.all():
                    break
            outputs: list[list[int]] = []
            for i in range(n):
                seq: list[int] = []
                for tok in dec[i, 1:]:
                    if tok in (EOS, PAD):
                        break
                    seq.append(int(tok))
                outputs.append(seq)
            return outputs
