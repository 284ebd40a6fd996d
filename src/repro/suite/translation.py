"""Translation benchmarks: MiniGNMT (recurrent) and MiniTransformer.

The two Table 1 translation rows (§3.1.3), sharing the synthetic corpus the
way the paper's pair shares WMT EN-DE.  Quality = corpus BLEU of greedy
decodes against the deterministic reference translations of the held-out
test sentences.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..datasets import SyntheticTranslation, TranslationConfig
from ..framework import Adam, NoamLR, clip_grad_norm
from ..metrics import corpus_bleu
from ..models import MiniGNMT, MiniTransformer
from .base import Benchmark, BenchmarkSpec, TrainingSession

__all__ = ["TranslationRecurrentBenchmark", "TranslationTransformerBenchmark"]


class _TranslationSession(TrainingSession):
    """Shared epoch/eval loop; subclass plugs in the model."""

    def __init__(self, corpus: SyntheticTranslation, model, seed: int, hp: Mapping[str, Any]):
        self.corpus = corpus
        self.model = model
        self.hp = dict(hp)
        self.seed = seed
        self.optimizer = Adam(model.parameters(), lr=hp["base_lr"])
        self.scheduler = None
        if hp.get("noam_warmup"):
            self.scheduler = NoamLR(
                self.optimizer, d_model=hp["d_model"], warmup_steps=hp["noam_warmup"],
                scale=hp["base_lr"] * hp["noam_warmup"] ** 0.5 * hp["d_model"] ** 0.5,
            )

    def _loss(self, src, dec_in, dec_out):
        return self.model.loss(src, dec_in, dec_out)

    def run_epoch(self, epoch: int) -> int:
        self.model.train()
        rng = np.random.default_rng((self.seed, epoch))
        pairs = self.corpus.train_pairs
        order = rng.permutation(len(pairs))
        bs = self.hp["batch_size"]
        seen = 0
        # Bucket by length to limit padding waste: sort each shuffled window.
        for start in range(0, len(order) - bs + 1, bs):
            chunk = [pairs[i] for i in order[start : start + bs]]
            chunk.sort(key=lambda p: len(p[0]))
            src = self.corpus.encoder_inputs([s for s, _ in chunk])
            dec_in, dec_out = self.corpus.decoder_io([t for _, t in chunk])
            loss = self.step_executor().step(
                lambda: self._loss(src, dec_in, dec_out),
                pre_backward=self.optimizer.zero_grad,
            )
            clip_grad_norm(self.optimizer.params, self.hp["grad_clip"])
            self.optimizer.step()
            if self.scheduler is not None:
                self.scheduler.step()
            seen += bs
        return seen

    def evaluate(self) -> float:
        self.model.eval()
        sources = [s for s, _ in self.corpus.test_pairs]
        references = [t for _, t in self.corpus.test_pairs]
        hypotheses: list[list[int]] = []
        for start in range(0, len(sources), 64):
            src = self.corpus.encoder_inputs(sources[start : start + 64])
            hypotheses.extend(self.model.greedy_decode(src, max_len=self.hp["max_decode_len"]))
        return corpus_bleu(hypotheses, references)


_GNMT_SPEC = BenchmarkSpec(
    name="translation_recurrent",
    area="language",
    dataset="SyntheticTranslation",
    model="MiniGNMT",
    quality_metric="BLEU",
    quality_threshold=38.0,
    required_runs=10,
    max_epochs=30,
    default_hyperparameters={
        "batch_size": 32,
        "base_lr": 4e-3,
        "grad_clip": 5.0,
        "embed_dim": 48,
        "hidden": 64,
        "layers": 2,
        "max_decode_len": 24,
        "noam_warmup": 0,
        "d_model": 0,
    },
    modifiable_hyperparameters=frozenset({"batch_size", "base_lr", "grad_clip"}),
)


class TranslationRecurrentBenchmark(Benchmark):
    spec = _GNMT_SPEC

    def __init__(self, corpus_config: TranslationConfig = TranslationConfig()):
        self.corpus_config = corpus_config
        self.corpus: SyntheticTranslation | None = None

    def prepare_data(self) -> None:
        if self.corpus is None:
            self.corpus = SyntheticTranslation(self.corpus_config)

    def create_session(self, seed: int, hyperparameters: Mapping[str, Any]) -> TrainingSession:
        if self.corpus is None:
            raise RuntimeError("call prepare_data() before create_session()")
        hp = dict(hyperparameters)
        rng = np.random.default_rng(seed)
        model = MiniGNMT(
            self.corpus.vocab.size, rng,
            embed_dim=hp["embed_dim"], hidden=hp["hidden"], layers=hp["layers"],
        )
        return _TranslationSession(self.corpus, model, seed, hp)


_TRANSFORMER_SPEC = BenchmarkSpec(
    name="translation_transformer",
    area="language",
    dataset="SyntheticTranslation",
    model="MiniTransformer",
    quality_metric="BLEU",
    quality_threshold=42.0,
    required_runs=10,
    max_epochs=30,
    default_hyperparameters={
        "batch_size": 32,
        "base_lr": 1e-3,
        "grad_clip": 5.0,
        "d_model": 64,
        "num_heads": 4,
        "d_ff": 128,
        "layers": 2,
        "label_smoothing": 0.1,
        "max_decode_len": 24,
        "noam_warmup": 60,
    },
    modifiable_hyperparameters=frozenset(
        {"batch_size", "base_lr", "grad_clip", "noam_warmup", "label_smoothing"}
    ),
)


class _TransformerSession(_TranslationSession):
    def _loss(self, src, dec_in, dec_out):
        return self.model.loss(src, dec_in, dec_out, label_smoothing=self.hp["label_smoothing"])


class TranslationTransformerBenchmark(Benchmark):
    spec = _TRANSFORMER_SPEC

    def __init__(self, corpus_config: TranslationConfig = TranslationConfig()):
        self.corpus_config = corpus_config
        self.corpus: SyntheticTranslation | None = None

    def prepare_data(self) -> None:
        if self.corpus is None:
            self.corpus = SyntheticTranslation(self.corpus_config)

    def create_session(self, seed: int, hyperparameters: Mapping[str, Any]) -> TrainingSession:
        if self.corpus is None:
            raise RuntimeError("call prepare_data() before create_session()")
        hp = dict(hyperparameters)
        rng = np.random.default_rng(seed)
        model = MiniTransformer(
            self.corpus.vocab.size, rng,
            d_model=hp["d_model"], num_heads=hp["num_heads"], d_ff=hp["d_ff"], layers=hp["layers"],
        )
        return _TransformerSession(self.corpus, model, seed, hp)
