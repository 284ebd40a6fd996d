"""Greedy decoding emits the tokens the step-by-step loops did.

Both models' ``greedy_decode`` avoid work that does not change from one
generated token to the next: the Transformer decodes one row per step over
cached keys and values, GNMT drops its per-row bookkeeping.  The loops they
replaced are kept here as oracles -- for the Transformer the loop that
re-runs the decoder over the whole prefix.  The contract is the tokens,
sentence for sentence (DESIGN.md, *Decode contract*): one differing
sentence here revokes the incremental decode.
"""

import numpy as np
import pytest

from repro.datasets import SyntheticTranslation, TranslationConfig
from repro.datasets.translation import BOS, EOS, PAD
from repro.framework import Adam, TransformerDecoderLayer, causal_mask, no_grad
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
def test_matches_step_by_step_loop(reference_kernels, cls, mode, corpus, models):
    model = models[cls]
    sources = [s for s, _ in corpus.test_pairs]
    lengths = set()
    with reference_kernels(mode == "naive"):
        for start in range(0, len(sources), 16):
            src = corpus.encoder_inputs(sources[start : start + 16])
            got = model.greedy_decode(src, max_len=MAX_LEN)
            assert got == _ORACLES[cls](model, src, MAX_LEN)
            assert all(type(tok) is int for seq in got for tok in seq)
            # rows of one batch end at different steps: a finished row rides
            # along as PAD while the others go on
            assert len({len(seq) for seq in got}) > 1
            lengths.update(len(seq) for seq in got)
    assert min(lengths) < MAX_LEN, "no sentence ended: the EOS cut is untested"


@pytest.mark.parametrize("cls", [MiniGNMT, MiniTransformer], ids=lambda c: c.__name__)
@pytest.mark.parametrize("mode", ["naive", "fused"])
def test_batch_of_one(reference_kernels, cls, mode, corpus, models):
    with reference_kernels(mode == "naive"):
        for source, _ in corpus.test_pairs[:6]:
            src = corpus.encoder_inputs([source])
            assert models[cls].greedy_decode(src, max_len=MAX_LEN) == \
                _ORACLES[cls](models[cls], src, MAX_LEN)


@pytest.mark.parametrize("cls", [MiniGNMT, MiniTransformer], ids=lambda c: c.__name__)
def test_zero_length_budget(cls, corpus, models):
    src = corpus.encoder_inputs([s for s, _ in corpus.test_pairs[:3]])
    assert models[cls].greedy_decode(src, max_len=0) == [[], [], []]


@pytest.mark.parametrize("cls", [MiniGNMT, MiniTransformer], ids=lambda c: c.__name__)
@pytest.mark.parametrize("mode", ["naive", "fused"])
def test_budget_of_one(reference_kernels, cls, mode, corpus, models):
    src = corpus.encoder_inputs([s for s, _ in corpus.test_pairs[:3]])
    with reference_kernels(mode == "naive"):
        one = models[cls].greedy_decode(src, max_len=1)
    assert one == _ORACLES[cls](models[cls], src, 1)
    assert all(len(seq) <= 1 for seq in one)


def test_transformer_decodes_one_row_per_step(corpus, models, monkeypatch):
    """Every decoder-layer call of a decode sees a length-1 query -- the
    newest row -- and each layer is called once per generated position: a
    return to re-running the prefix fails here, not in a benchmark."""
    model = models[MiniTransformer]
    queries = []
    forward = TransformerDecoderLayer.forward

    def recording_forward(self, x, *args, **kwargs):
        queries.append(x.shape)
        return forward(self, x, *args, **kwargs)

    monkeypatch.setattr(TransformerDecoderLayer, "forward", recording_forward)
    src = corpus.encoder_inputs([s for s, _ in corpus.test_pairs[:16]])
    got = model.greedy_decode(src, max_len=MAX_LEN)
    steps = min(MAX_LEN, max(len(seq) for seq in got) + 1)  # + the step that emits EOS
    assert steps > 2
    assert queries == [(16, 1, model.d_model)] * (steps * len(model.dec_layers))


class TestPositionalTableBound:
    """A sequence longer than the positional table is refused at entry,
    naming ``max_len``, not by a broadcast error from inside ``_embed``."""

    @pytest.fixture(scope="class")
    def model(self, corpus):
        return MiniTransformer(corpus.vocab.size, np.random.default_rng(0), max_len=10).eval()

    def test_decode_budget(self, model, corpus):
        src = corpus.encoder_inputs([s for s, _ in corpus.test_pairs[:2]])[:, :10]
        assert len(model.greedy_decode(src, max_len=10)) == 2
        with pytest.raises(ValueError, match=r"length 11 .*max_len=10"):
            model.greedy_decode(src, max_len=11)
        assert model.greedy_decode(src, max_len=0) == [[], []]

    def test_default_table_and_the_reported_call(self, corpus):
        model = MiniTransformer(corpus.vocab.size, np.random.default_rng(0)).eval()
        src = corpus.encoder_inputs([s for s, _ in corpus.test_pairs[:2]])
        with pytest.raises(ValueError, match=r"length 70 .*max_len=64"):
            model.greedy_decode(src, max_len=70)

    def test_source_and_decoder_input(self, model):
        long, short = np.full((2, 11), 5, dtype=np.int64), np.full((2, 4), 5, dtype=np.int64)
        with pytest.raises(ValueError, match=r"source of length 11 .*max_len=10"):
            model.encode(long)
        with pytest.raises(ValueError, match=r"source of length 11 .*max_len=10"):
            model.greedy_decode(long, max_len=3)
        with pytest.raises(ValueError, match=r"decoder input of length 11 .*max_len=10"):
            model(short, long)
        assert model(short, long[:, :10]).shape[:2] == (2, 10)
