"""Reference ("pro") game generation for the MiniGo quality metric.

The paper's MiniGo quality metric is "the percentage of predicted moves
that match human reference games" (§3.1.4) — move prediction against games
played by far stronger players.  We have no humans, so the reference corpus
is produced by a *pro network*: a MiniGoNet trained offline with the same
self-play pipeline for many more iterations, then used to play reference
games with exploration-free search.  This preserves the metric's structure
(predict a stronger player's moves) and its dynamics (match rate rises as
the benchmarked network trains), without human data.

The game uses a competitive komi (8.5 on 5×5) so that games are genuinely
contested; with a token komi every black move wins and move choice carries
no signal.

Pro training is deterministic given its seed; the resulting corpus is
cached on disk (dataset preparation is performed once and untimed under
the §3.2.1 "data reformatting" rule).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .board import GoBoard
from .mcts import MCTS, MCTSConfig
from .reference_player import ReferenceGame
from .selfplay import EvaluationMemo, play_selfplay_game

__all__ = [
    "ProConfig",
    "DEFAULT_KOMI",
    "train_pro_network",
    "generate_pro_games",
    "pro_reference_games",
]

DEFAULT_KOMI = 8.5


@dataclass(frozen=True)
class ProConfig:
    """Offline pro-network training budget."""

    board_size: int = 5
    komi: float = DEFAULT_KOMI
    iterations: int = 24
    games_per_iteration: int = 3
    train_steps_per_iteration: int = 24
    batch_size: int = 64
    learning_rate: float = 2e-3
    mcts_simulations: int = 16
    replay_capacity: int = 1500
    seed: int = 20190530  # v0.5 results publication date


def train_pro_network(config: ProConfig = ProConfig()):
    """Train the pro network with the standard self-play RL loop."""
    from ..framework import Adam
    from ..models import MiniGoNet

    rng = np.random.default_rng(config.seed)
    net = MiniGoNet(config.board_size, rng)
    optimizer = Adam(net.parameters(), lr=config.learning_rate)
    mcts_config = MCTSConfig(num_simulations=config.mcts_simulations)
    replay: list = []
    for _ in range(config.iterations):
        for _ in range(config.games_per_iteration):
            replay.extend(
                play_selfplay_game(net, config.board_size, rng, mcts_config, komi=config.komi)
            )
        replay = replay[-config.replay_capacity :]
        net.train()
        for _ in range(config.train_steps_per_iteration):
            idx = rng.integers(0, len(replay), size=min(config.batch_size, len(replay)))
            planes = np.stack([replay[i].planes for i in idx])
            policy = np.stack([replay[i].policy for i in idx])
            value = np.array([replay[i].value for i in idx])
            loss = net.loss(planes, policy, value)
            net.zero_grad()
            loss.backward(release_tape=True)
            optimizer.step()
    net.eval()
    return net


def generate_pro_games(
    net,
    num_games: int,
    board_size: int,
    seed: int,
    komi: float = DEFAULT_KOMI,
    mcts_simulations: int = 24,
    opening_moves: int = 2,
) -> list[ReferenceGame]:
    """Play reference games with the pro net + exploration-free search.

    Openings are randomized (seeded) for position diversity; from there the
    pro plays its max-visit move.
    """
    rng = np.random.default_rng(seed)
    games: list[ReferenceGame] = []
    config = MCTSConfig(num_simulations=mcts_simulations, dirichlet_weight=0.0)
    for _ in range(num_games):
        memo = EvaluationMemo(net.evaluate)
        mcts = MCTS(memo, config, rng=np.random.default_rng(rng.integers(2**31)))
        board = GoBoard(board_size, komi=komi)
        positions: list[np.ndarray] = []
        moves: list[int] = []
        ply = 0
        while not board.is_over:
            if ply < opening_moves:
                stone_moves = [m for m in board.legal_moves() if m != board.pass_move]
                move = int(rng.choice(stone_moves)) if stone_moves else board.pass_move
            else:
                policy = mcts.search(board, add_noise=False)
                move = int(policy.argmax())
                positions.append(board.feature_planes())
                moves.append(move)
            board = board.play(move)
            ply += 1
        memo.count_hits()
        games.append(ReferenceGame(positions=positions, moves=moves))
    return games


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR", os.path.join(os.path.expanduser("~"), ".cache"))
    path = Path(root) / "repro_mlperf"
    path.mkdir(parents=True, exist_ok=True)
    return path


@functools.lru_cache(maxsize=4)
def pro_reference_games(
    num_games: int = 12,
    board_size: int = 5,
    seed: int = 7,
    komi: float = DEFAULT_KOMI,
) -> tuple[ReferenceGame, ...]:
    """Cached pro-reference corpus.

    In-process via ``lru_cache``; across processes via an ``.npz`` file in
    the user cache directory, so the one-time pro training cost is paid
    once per machine, mirroring the paper's once-per-dataset reformatting.
    """
    key = f"pro_games_v1_n{num_games}_b{board_size}_s{seed}_k{komi}"
    cache_file = _cache_dir() / f"{key}.npz"
    if cache_file.exists():
        data = np.load(cache_file)
        games = []
        for i in range(int(data["num_games"])):
            games.append(
                ReferenceGame(
                    positions=list(data[f"positions_{i}"]),
                    moves=[int(m) for m in data[f"moves_{i}"]],
                )
            )
        return tuple(games)

    net = train_pro_network(ProConfig(board_size=board_size, komi=komi))
    games = generate_pro_games(net, num_games, board_size, seed, komi=komi)
    payload: dict[str, np.ndarray] = {"num_games": np.array(len(games))}
    for i, game in enumerate(games):
        payload[f"positions_{i}"] = np.stack(game.positions).astype(np.float32)
        payload[f"moves_{i}"] = np.array(game.moves, dtype=np.int64)
    np.savez(cache_file, **payload)
    return tuple(games)
