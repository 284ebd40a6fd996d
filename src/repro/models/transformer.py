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

    def _embed(self, tokens: np.ndarray) -> Tensor:
        t = tokens.shape[1]
        return self.embed(tokens) * self.scale + Tensor(self.pos[None, :t])

    def encode(self, src: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Encode ``(N, T_src)``; returns (memory, additive key-padding mask)."""
        # (N, 1, 1, T): broadcasts over heads & queries; one conversion serves
        # every layer that attends to the source.
        pad_mask = attention_bias((src != PAD)[:, None, None, :])
        h = self._embed(src)
        for layer in self.enc_layers:
            h = layer(h, src_mask=pad_mask)
        return h, pad_mask

    def forward(self, src: np.ndarray, dec_input: np.ndarray) -> Tensor:
        """Teacher-forced logits ``(N, T_tgt, V)``."""
        memory, mem_mask = self.encode(src)
        t = dec_input.shape[1]
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
        """Greedy decoding.

        Self-attention re-runs over the whole prefix each step (a one-row
        GEMM need not match the bits of a row of the full one); the memory's
        cross-attention keys and values do not depend on the prefix, so each
        layer projects them once.
        """
        from ..framework import no_grad

        with no_grad():
            memory, mem_mask = self.encode(src)
            memory_kvs = [layer.cross_attn.project_kv(memory, memory)
                          for layer in self.dec_layers]
            n = src.shape[0]
            dec = np.full((n, 1), BOS, dtype=np.int64)
            finished = np.zeros(n, dtype=bool)
            for _ in range(max_len):
                t = dec.shape[1]
                tgt_mask = attention_bias(causal_mask(t)[None, None])
                h = self._embed(dec)
                for layer, kv in zip(self.dec_layers, memory_kvs):
                    h = layer(h, memory, tgt_mask=tgt_mask, memory_mask=mem_mask,
                              memory_kv=kv)
                logits = self.out(h).data[:, -1]
                next_tok = logits.argmax(axis=-1)
                next_tok[finished] = PAD
                finished |= next_tok == EOS
                dec = np.concatenate([dec, next_tok[:, None]], axis=1)
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
