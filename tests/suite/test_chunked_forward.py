"""Inference forwards one training batch at a time.

``chunked_forward`` is the one helper both inference forwards share:
image classification's ``logits`` (evaluate and serving) and MiniGo's
move-match evaluate.  What MiniGo promises is its predicted moves and its
quality, not its logit bits: BLAS may round a row differently at another
batch size.
"""

import numpy as np
import pytest

from repro.framework import is_grad_enabled, no_grad
from repro.metrics import move_match_rate
from repro.suite import create_benchmark
from repro.suite.base import chunked_forward


class TestChunkedForward:
    @pytest.mark.parametrize("batch", [7, 64])
    def test_one_call_when_the_batch_covers_the_inputs(self, batch):
        inputs = np.arange(14.0).reshape(7, 2)
        calls = []
        out = chunked_forward(lambda x: calls.append(x) or 2 * x, inputs, batch)
        assert len(calls) == 1 and calls[0].shape == inputs.shape
        np.testing.assert_array_equal(out, 2 * inputs)

    @pytest.mark.parametrize("batch, sizes", [(1, [1] * 7), (3, [3, 3, 1]), (6, [6, 1])])
    def test_every_row_once_in_order(self, batch, sizes):
        inputs = np.arange(14.0).reshape(7, 2)
        seen = []
        out = chunked_forward(lambda x: seen.append(x.copy()) or x[:, :1] + 100, inputs, batch)
        assert [len(chunk) for chunk in seen] == sizes
        np.testing.assert_array_equal(np.concatenate(seen), inputs)
        np.testing.assert_array_equal(out, inputs[:, :1] + 100)

    def test_forward_runs_without_the_tape(self):
        flags = []
        chunked_forward(lambda x: flags.append(is_grad_enabled()) or x, np.zeros((3, 1)), 2)
        assert flags == [False, False]
        assert is_grad_enabled()


@pytest.fixture(scope="module")
def minigo():
    """A briefly trained MiniGo session (one game, two simulations a move)."""
    bench = create_benchmark("reinforcement")
    bench.prepare_data()
    hp = bench.spec.resolve_hyperparameters({"games_per_iteration": 1, "mcts_simulations": 2})
    session = bench.create_session(0, hp)
    session.run_epoch(0)
    return bench, session


class TestMiniGoEvaluate:
    def test_never_forwards_more_than_one_training_batch(self, minigo, monkeypatch):
        bench, session = minigo
        rows, forward = [], session.model.forward
        monkeypatch.setattr(session.model, "forward",
                            lambda x: rows.append(len(x)) or forward(x))
        session.evaluate()
        assert sum(rows) == len(bench.ref_planes)
        assert max(rows) <= session.hp["batch_size"] < len(bench.ref_planes)

    def test_moves_and_quality_equal_the_one_shot_forward(self, minigo):
        bench, session = minigo
        quality = session.evaluate()
        with no_grad():
            one_shot = session.model(bench.ref_planes)[0].data
        chunked = chunked_forward(lambda x: session.model(x)[0].data, bench.ref_planes,
                                  session.hp["batch_size"])
        np.testing.assert_allclose(chunked, one_shot, rtol=0, atol=1e-4)

        def moves(logits):
            return np.where(bench.ref_legal_masks, logits, -np.inf).argmax(axis=1)

        np.testing.assert_array_equal(moves(chunked), moves(one_shot))
        assert quality == move_match_rate(moves(one_shot), bench.ref_moves)
