"""The per-game evaluation memo against the game that has none.

``_unmemoised_game`` is self-play as it shipped: ``MCTS(network.evaluate)``
directly, one forward pass per request.  A memoised game from an equal
state must return the same examples, leave the generator and every batch
norm's running statistics in the same state, and run the network exactly on
the oracle's first occurrence of each position, in its order.
"""

import numpy as np
import pytest

from repro.framework import Adam
from repro.framework.layers import _BatchNorm, recorded_moments, replay_moments
from repro.go import GoBoard, MCTS, MCTSConfig, play_selfplay_game
from repro.go.selfplay import EvaluationMemo
from repro.models import MiniGoNet

from .test_selfplay_identity import HOST_PROBE, _host_probe

SIZE = 4
CONFIG = MCTSConfig(num_simulations=6)


def _unmemoised_game(network, board_size, rng, mcts_config, temperature_moves=6, komi=0.5):
    mcts = MCTS(network.evaluate, mcts_config, rng=rng)
    board = GoBoard(board_size, komi=komi)
    trajectory = []
    while not board.is_over:
        policy = mcts.search(board)
        trajectory.append((board.feature_planes(), policy, board.to_play))
        if board.move_count < temperature_moves:
            move = int(rng.choice(len(policy), p=policy))
        else:
            move = int(policy.argmax())
        board = board.play(move)
    winner = board.winner()
    return [(planes, policy, 1.0 if color == winner else -1.0)
            for planes, policy, color in trajectory]


def _recording_net(seed, training):
    """A seeded network whose ``evaluate`` notes the positions it is run on."""
    rng = np.random.default_rng(seed)
    net = MiniGoNet(SIZE, rng)
    net.train(training)
    forwards = []
    forward = net.evaluate

    def evaluate(board):
        forwards.append((board.board.tobytes(), board.to_play))
        return forward(board)

    net.evaluate = evaluate
    return net, rng, forwards


def _bn_layers(net):
    return [m for m in net.modules() if isinstance(m, _BatchNorm)]


def _first_occurrences(keys):
    return list(dict.fromkeys(keys))


@pytest.mark.parametrize("mode", ["naive", "fused"])
@pytest.mark.parametrize("training", [True, False], ids=["training", "eval"])
@pytest.mark.parametrize("seed", range(5))
def test_memoised_game_equals_the_unmemoised_one(reference_kernels, seed, training, mode):
    with reference_kernels(mode == "naive"):
        net, rng, forwards = _recording_net(seed, training)
        examples = play_selfplay_game(net, SIZE, rng, CONFIG)
        oracle_net, oracle_rng, requests = _recording_net(seed, training)
        oracle = _unmemoised_game(oracle_net, SIZE, oracle_rng, CONFIG)

    assert len(examples) == len(oracle)
    for example, (planes, policy, value) in zip(examples, oracle):
        assert example.planes.tobytes() == planes.tobytes()
        assert example.policy.tobytes() == policy.tobytes()
        assert example.value == value
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    for layer, oracle_layer in zip(_bn_layers(net), _bn_layers(oracle_net), strict=True):
        assert layer.running_mean.tobytes() == oracle_layer.running_mean.tobytes()
        assert layer.running_var.tobytes() == oracle_layer.running_var.tobytes()
    assert len(forwards) < len(requests)  # the property the memo lives on
    assert forwards == _first_occurrences(requests)


def test_training_mode_hit_updates_each_batch_norm_once_in_forward_order(monkeypatch):
    net = MiniGoNet(SIZE, np.random.default_rng(0))
    twin = MiniGoNet(SIZE, np.random.default_rng(0))
    board = GoBoard(SIZE).play(5)
    memo = EvaluationMemo(net.evaluate)
    policy, value = memo(board)

    updated = []
    update = _BatchNorm._update_running

    def noting_update(self, mean, var):
        updated.append(self)
        update(self, mean, var)

    monkeypatch.setattr(_BatchNorm, "_update_running", noting_update)
    again = memo(board)
    assert memo.hits == 1
    assert again[0] is policy and again[1] == value
    assert updated == [net.stem_bn, net.tower_bn0, net.tower_bn1]

    twin.evaluate(board)
    twin.evaluate(board)
    for layer, twin_layer in zip(_bn_layers(net), _bn_layers(twin), strict=True):
        assert layer.running_mean.tobytes() == twin_layer.running_mean.tobytes()
        assert layer.running_var.tobytes() == twin_layer.running_var.tobytes()


def test_state_dict_reads_the_statistics_a_hit_replays():
    net, rng, forwards = _recording_net(0, training=True)
    oracle_net, oracle_rng, requests = _recording_net(0, training=True)
    play_selfplay_game(net, SIZE, rng, CONFIG)
    _unmemoised_game(oracle_net, SIZE, oracle_rng, CONFIG)
    assert len(forwards) < len(requests)  # hits replayed updates
    state, oracle = net.state_dict(), oracle_net.state_dict()
    assert state.keys() == oracle.keys()
    for name in ("stem_bn", "tower_bn0", "tower_bn1"):
        for stat in ("running_mean", "running_var"):
            key = f"{name}.{stat}"
            assert state[key].tobytes() == getattr(getattr(net, name), stat).tobytes()
            assert state[key].tobytes() == oracle[key].tobytes()


def test_eval_mode_records_nothing_and_a_hit_changes_nothing():
    net = MiniGoNet(SIZE, np.random.default_rng(0)).eval()
    before = [(m.running_mean, m.running_var) for m in _bn_layers(net)]
    with recorded_moments() as log:
        net.evaluate(GoBoard(SIZE))
    assert log == []
    memo = EvaluationMemo(net.evaluate)
    memo(GoBoard(SIZE))
    memo(GoBoard(SIZE))
    assert memo.hits == 1
    assert all(m.running_mean is mean and m.running_var is var
               for m, (mean, var) in zip(_bn_layers(net), before))


def test_stored_policy_is_read_only():
    net = MiniGoNet(SIZE, np.random.default_rng(0))
    policy, _ = EvaluationMemo(net.evaluate)(GoBoard(SIZE))
    assert not policy.flags.writeable
    with pytest.raises(ValueError):
        policy[0] = 1.0


def test_side_to_move_is_part_of_the_key():
    net = MiniGoNet(SIZE, np.random.default_rng(0))
    memo = EvaluationMemo(net.evaluate)
    black_to_play = GoBoard(SIZE)
    white_to_play = black_to_play.play(black_to_play.pass_move)  # same stones
    memo(black_to_play)
    memo(white_to_play)
    assert memo.hits == 0


def test_a_memo_does_not_outlive_its_game():
    net, rng, forwards = _recording_net(0, training=True)
    play_selfplay_game(net, SIZE, rng, CONFIG)
    empty_board = (bytes(SIZE * SIZE), GoBoard(SIZE).to_play)
    assert forwards[0] == empty_board
    first_game = len(forwards)

    optimizer = Adam(net.parameters(), lr=1e-2)
    planes = np.stack([GoBoard(SIZE).feature_planes()])
    target = np.full((1, SIZE * SIZE + 1), 1.0 / (SIZE * SIZE + 1))
    net.loss(planes, target, np.ones(1)).backward()
    optimizer.step()

    play_selfplay_game(net, SIZE, rng, CONFIG)
    # The second game asks about the empty board first, and the changed
    # weights are asked, not the first game's answer.
    assert forwards[first_game] == empty_board


class TestRecordedMoments:
    def _layer_and_input(self):
        from repro.framework import BatchNorm1d, Tensor

        x = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        return BatchNorm1d(3), x

    def test_replay_repeats_the_update_bit_for_bit(self):
        layer, x = self._layer_and_input()
        twin, _ = self._layer_and_input()
        with recorded_moments() as log:
            layer(x)
        assert [entry[0] for entry in log] == [layer]
        replay_moments(log)
        twin(x)
        twin(x)
        assert layer.running_mean.tobytes() == twin.running_mean.tobytes()
        assert layer.running_var.tobytes() == twin.running_var.tobytes()

    def test_nothing_is_logged_outside_a_block(self):
        layer, x = self._layer_and_input()
        with recorded_moments() as log:
            pass
        layer(x)
        assert log == []

    def test_nested_blocks_both_see_the_inner_updates(self):
        layer, x = self._layer_and_input()
        with recorded_moments() as outer:
            layer(x)
            with recorded_moments() as inner:
                layer(x)
            layer(x)
        assert len(inner) == 1
        assert len(outer) == 3
        assert outer[1] is inner[0]

    def test_previous_log_is_restored_on_exception(self):
        layer, x = self._layer_and_input()
        with recorded_moments() as outer:
            with pytest.raises(RuntimeError):
                with recorded_moments():
                    layer(x)
                    raise RuntimeError("forward failed")
            layer(x)
        assert len(outer) == 2  # the failed block's update happened too
        with recorded_moments() as after:
            pass
        layer(x)
        assert after == []


def test_seed0_reinforcement_cell_work_counts(reference_kernels):
    """Requests, memo hits and searches of the ledger's seed-0 cell, exactly."""
    if _host_probe(reference_kernels) != HOST_PROBE:
        pytest.skip("BLAS rounds differently here than on the host that recorded the counts")
    from repro.core import BenchmarkRunner
    from repro.suite import create_benchmark
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    run = BenchmarkRunner().run(create_benchmark("reinforcement"), seed=0, telemetry=telemetry)
    counters = {name: inst["value"] for name, inst in telemetry.metrics.snapshot().items()
                if name.startswith("mcts_")}
    assert run.epochs == 1
    assert counters == {"mcts_searches": 92, "mcts_evaluations": 1452, "mcts_memo_hits": 459}
