"""The no-graph entry points equal the Tensor forward, bit for bit.

``NCF.score`` (served queries, HR@10 ranking) and ``MiniGoNet.evaluate``
(MCTS expansions, the pro corpus) are wired over the kernels' array
functions instead of the tape machinery.  The Tensor forward is their
oracle: same output bits, same ``IndexError`` for a bad id, and, for a
batch norm in training mode, the same running statistics and the same
``recorded_moments`` log.  Operands of mixed dtype send each entry point to
that forward, counting the fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framework import no_grad
from repro.framework.layers import _BatchNorm, recorded_moments
from repro.go import GoBoard
from repro.models import NCF, MiniGoNet
from repro.telemetry import Telemetry

USERS, ITEMS = 40, 70


@pytest.fixture(scope="module")
def ncf():
    return NCF(USERS, ITEMS, np.random.default_rng(3))


def _ids(limit):
    return st.one_of(st.just(0), st.just(1), st.integers(2, 300)).flatmap(
        lambda n: st.lists(st.integers(0, limit - 1), min_size=n, max_size=n)).map(
        lambda ids: np.array(ids, dtype=np.int64))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_ncf_score_is_the_forward_bit_for_bit(ncf, data):
    users = data.draw(_ids(USERS))
    items = data.draw(st.lists(st.integers(0, ITEMS - 1), min_size=len(users),
                               max_size=len(users)).map(lambda v: np.array(v, dtype=np.int64)))
    scores = ncf.score(users, items)
    with no_grad():
        oracle = ncf.forward(users, items).data
    assert scores.dtype == oracle.dtype == np.float32
    assert scores.shape == oracle.shape == (len(users),)
    assert scores.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("users, items", [
    ([USERS], [0]), ([-1], [0]), ([0], [ITEMS]), ([0], [-3]), ([1, USERS + 5], [ITEMS, 2]),
])
def test_ncf_score_raises_the_forwards_index_error(ncf, users, items):
    users, items = np.array(users), np.array(items)
    with pytest.raises(IndexError) as forward_error:
        ncf.forward(users, items)
    with pytest.raises(IndexError) as score_error:
        ncf.score(users, items)
    assert str(score_error.value) == str(forward_error.value)


def _oracle_evaluate(net, board):
    with no_grad():
        logits, value = net.forward(board.feature_planes()[None])
    p = logits.data[0]
    p = np.exp(p - p.max())
    return p / p.sum(), float(value.data[0])


def _bn_state(net):
    return [(bn.running_mean.tobytes(), bn.running_var.tobytes())
            for bn in net.modules() if isinstance(bn, _BatchNorm)]


@pytest.mark.parametrize("training", [True, False], ids=["training", "eval"])
def test_minigo_evaluate_is_the_forward_bit_for_bit(training):
    net, oracle = (MiniGoNet(5, np.random.default_rng(11)) for _ in range(2))
    net.train(training)
    oracle.train(training)
    board = GoBoard(5)
    for move in (12, 6, 18, 7, 25, 0, 13):
        board = board.play(move)
        with recorded_moments() as log:
            policy, value = net.evaluate(board)
        with recorded_moments() as oracle_log:
            oracle_policy, oracle_value = _oracle_evaluate(oracle, board)
        assert policy.dtype == oracle_policy.dtype == np.float32
        assert policy.tobytes() == oracle_policy.tobytes()
        assert value == oracle_value
        assert len(log) == len(oracle_log) == (3 if training else 0)
        for (layer, mean, var), (oracle_layer, oracle_mean, oracle_var) in zip(log, oracle_log):
            assert layer.num_features == oracle_layer.num_features
            assert mean.tobytes() == oracle_mean.tobytes()
            assert var.tobytes() == oracle_var.tobytes()
        assert _bn_state(net) == _bn_state(oracle)


def _fallbacks(telemetry):
    return {name: inst["value"] for name, inst in telemetry.metrics.snapshot().items()
            if name.startswith("kernel_fallbacks")}


def test_mixed_dtype_entry_points_run_the_tensor_forward():
    """One float64 bias sends each entry point to the Tensor forward under
    ``no_grad`` (where the kernels it reaches run their references), and
    the entry point counts its fallback."""
    ncf = NCF(USERS, ITEMS, np.random.default_rng(4))
    ncf.head.bias.data = ncf.head.bias.data.astype(np.float64)
    users, items = np.array([0, 3, 39]), np.array([5, 69, 0])
    net = MiniGoNet(5, np.random.default_rng(5))
    net.value_fc2.bias.data = net.value_fc2.bias.data.astype(np.float64)
    board = GoBoard(5).play(7)
    telemetry = Telemetry()
    with telemetry.activate():
        scores = ncf.score(users, items)
        policy, value = net.evaluate(board)
    with no_grad():
        assert scores.tobytes() == ncf.forward(users, items).data.tobytes()
    assert scores.dtype == np.float64
    oracle_policy, oracle_value = _oracle_evaluate(net, board)
    assert policy.tobytes() == oracle_policy.tobytes() and value == oracle_value
    counts = _fallbacks(telemetry)
    assert counts["kernel_fallbacks.ncf_score.mixed_dtype"] == 1
    assert counts["kernel_fallbacks.minigo_evaluate.mixed_dtype"] == 1
    assert counts["kernel_fallbacks.linear.mixed_dtype"] == 2  # each model's last layer


def test_reference_kernels_reach_the_entry_points(reference_kernels):
    """Under the fixture the entry points take the Tensor forward too, so a
    comparison with the references compares them, not the array path."""
    ncf = NCF(USERS, ITEMS, np.random.default_rng(6))
    net = MiniGoNet(5, np.random.default_rng(7))
    board = GoBoard(5).play(3)
    users, items = np.arange(5), np.arange(5)
    fused = ncf.score(users, items), net.evaluate(board)
    with reference_kernels():
        reference = ncf.score(users, items), net.evaluate(board)
    assert fused[0].tobytes() == reference[0].tobytes()
    assert fused[1][0].tobytes() == reference[1][0].tobytes()
