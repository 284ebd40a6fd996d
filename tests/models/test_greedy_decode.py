"""Greedy decoding emits the tokens the step-by-step loops did.

Both models' ``greedy_decode`` hoist work that does not change from one
generated token to the next (the Transformer's cross-attention keys and
values and its additive masks, GNMT's per-row bookkeeping).  The loops they
replaced are kept here as oracles: same tokens, sentence for sentence, on
the test corpus.
"""

import numpy as np
import pytest

from repro.datasets import SyntheticTranslation, TranslationConfig
from repro.datasets.translation import BOS, EOS, PAD
from repro.framework import Adam, causal_mask, no_grad, use_kernel_mode
from repro.models import MiniGNMT, MiniTransformer

MAX_LEN = 14


@pytest.fixture(scope="module")
def corpus():
    return SyntheticTranslation(TranslationConfig(train_size=160, test_size=48))


@pytest.fixture(scope="module")
def models(corpus):
    """Trained just long enough that some sentences end and some run on."""
    trained = {}
    for cls in (MiniGNMT, MiniTransformer):
        model = cls(corpus.vocab.size, np.random.default_rng(0))
        opt = Adam(model.parameters(), lr=4e-3)
        for epoch in range(5):
            order = np.random.default_rng(epoch).permutation(len(corpus.train_pairs))
            for start in range(0, len(order) - 16 + 1, 16):
                chunk = [corpus.train_pairs[i] for i in order[start : start + 16]]
                src = corpus.encoder_inputs([s for s, _ in chunk])
                dec_in, dec_out = corpus.decoder_io([t for _, t in chunk])
                model.zero_grad()
                model.loss(src, dec_in, dec_out).backward()
                opt.step()
        trained[cls] = model.eval()
    return trained


def _gnmt_step_by_step(model, src, max_len):
    with no_grad():
        memory, states, src_bias = model.encode(src)
        n = src.shape[0]
        tokens = np.full(n, BOS, dtype=np.int64)
        finished = np.zeros(n, dtype=bool)
        outputs = [[] for _ in range(n)]
        for _ in range(max_len):
            emb = model.embed(tokens[None])
            dec_out, states = model.decoder(emb, states=states)
            combined = model._attend(dec_out[0], memory, src_bias)
            tokens = model.out(combined).data.argmax(axis=-1)
            for i in range(n):
                if not finished[i]:
                    if tokens[i] == EOS:
                        finished[i] = True
                    else:
                        outputs[i].append(int(tokens[i]))
            if finished.all():
                break
        return outputs


def _transformer_step_by_step(model, src, max_len):
    with no_grad():
        memory, mem_mask = model.encode(src)
        n = src.shape[0]
        dec = np.full((n, 1), BOS, dtype=np.int64)
        finished = np.zeros(n, dtype=bool)
        for _ in range(max_len):
            tgt_mask = causal_mask(dec.shape[1])[None, None]
            h = model._embed(dec)
            for layer in model.dec_layers:  # projects the memory again, per token
                h = layer(h, memory, tgt_mask=tgt_mask, memory_mask=mem_mask)
            next_tok = model.out(h).data[:, -1].argmax(axis=-1)
            next_tok[finished] = PAD
            finished |= next_tok == EOS
            dec = np.concatenate([dec, next_tok[:, None]], axis=1)
            if finished.all():
                break
        outputs = []
        for row in dec[:, 1:]:
            seq = []
            for tok in row:
                if tok in (EOS, PAD):
                    break
                seq.append(int(tok))
            outputs.append(seq)
        return outputs


_ORACLES = {MiniGNMT: _gnmt_step_by_step, MiniTransformer: _transformer_step_by_step}


@pytest.mark.parametrize("cls", [MiniGNMT, MiniTransformer], ids=lambda c: c.__name__)
@pytest.mark.parametrize("mode", ["naive", "fused"])
def test_matches_step_by_step_loop(cls, mode, corpus, models):
    model = models[cls]
    sources = [s for s, _ in corpus.test_pairs]
    lengths = set()
    with use_kernel_mode(mode):
        for start in range(0, len(sources), 16):
            src = corpus.encoder_inputs(sources[start : start + 16])
            got = model.greedy_decode(src, max_len=MAX_LEN)
            assert got == _ORACLES[cls](model, src, MAX_LEN)
            assert all(type(tok) is int for seq in got for tok in seq)
            lengths.update(len(seq) for seq in got)
    assert min(lengths) < MAX_LEN, "no sentence ended: the EOS cut is untested"


@pytest.mark.parametrize("cls", [MiniGNMT, MiniTransformer], ids=lambda c: c.__name__)
def test_zero_length_budget(cls, corpus, models):
    src = corpus.encoder_inputs([s for s, _ in corpus.test_pairs[:3]])
    assert models[cls].greedy_decode(src, max_len=0) == [[], [], []]
