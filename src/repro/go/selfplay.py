"""Self-play data generation for the reinforcement-learning benchmark.

§3.1.4: MiniGo "uses self-play (simulated games) between agents to
generate data, which performs many forward passes through the model to
generate actions".  Each self-play game records, per move, the position's
feature planes, the MCTS visit distribution (the policy target), and the
eventual game outcome from the mover's perspective (the value target).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..framework.layers import recorded_moments, replay_moments
from ..telemetry import current_metrics
from .board import GoBoard
from .mcts import MCTS, MCTSConfig

__all__ = ["EvaluationMemo", "SelfPlayExample", "play_selfplay_game", "selfplay_batch"]


class EvaluationMemo:
    """``evaluate`` for one game, running the network once per position.

    A search re-asks about positions the previous move's search expanded.
    Within a game the weights are fixed, so ``(stones, side to move)`` decides
    the answer; what a repeated forward would still change is batch norm's
    running statistics (first-epoch self-play runs in training mode), so a
    hit replays the updates its miss recorded and the network ends every
    game in the state the unmemoised game leaves it in.  Make one per game.
    """

    def __init__(self, evaluate):
        self._evaluate = evaluate
        self._answers: dict = {}
        self.hits = 0

    def __call__(self, board: GoBoard):
        key = (board._cells, board.to_play)
        answer = self._answers.get(key)
        if answer is None:
            with recorded_moments() as moments:
                policy, value = self._evaluate(board)
            policy.setflags(write=False)  # every later hit shares it
            self._answers[key] = (policy, value, moments)
            return policy, value
        policy, value, moments = answer
        self.hits += 1
        replay_moments(moments)
        return policy, value

    def count_hits(self) -> None:
        """Add this game's hits to the ambient ``mcts_memo_hits`` counter."""
        current_metrics().counter("mcts_memo_hits").inc(self.hits)


@dataclass
class SelfPlayExample:
    """One training example from self-play."""

    planes: np.ndarray  # (3, size, size)
    policy: np.ndarray  # (size*size + 1,) visit distribution
    value: float  # game outcome for the side to move at this position


def play_selfplay_game(
    network,
    board_size: int,
    rng: np.random.Generator,
    mcts_config: MCTSConfig = MCTSConfig(),
    temperature_moves: int = 6,
    komi: float = 0.5,
) -> list[SelfPlayExample]:
    """Play one self-play game; return its training examples.

    Early moves sample from the visit distribution (temperature 1) for
    diversity; later moves play the max-visit move.
    """
    memo = EvaluationMemo(network.evaluate)
    mcts = MCTS(memo, mcts_config, rng=rng)
    board = GoBoard(board_size, komi=komi)
    trajectory: list[tuple[np.ndarray, np.ndarray, int]] = []  # planes, policy, color
    while not board.is_over:
        policy = mcts.search(board)
        trajectory.append((board.feature_planes(), policy, board.to_play))
        if board.move_count < temperature_moves:
            move = int(rng.choice(len(policy), p=policy))
        else:
            move = int(policy.argmax())
        board = board.play(move)
    memo.count_hits()
    winner = board.winner()
    return [
        SelfPlayExample(planes=planes, policy=policy, value=1.0 if color == winner else -1.0)
        for planes, policy, color in trajectory
    ]


def selfplay_batch(
    network,
    num_games: int,
    board_size: int,
    rng: np.random.Generator,
    mcts_config: MCTSConfig = MCTSConfig(),
    komi: float = 0.5,
) -> list[SelfPlayExample]:
    """Generate examples from ``num_games`` self-play games."""
    examples: list[SelfPlayExample] = []
    for _ in range(num_games):
        examples.extend(play_selfplay_game(network, board_size, rng, mcts_config, komi=komi))
    return examples
