"""Reinforcement-learning benchmark: MiniGo on a small board.

The MiniGo row of Table 1 (§3.1.4): the only benchmark that *generates its
own training data* through self-play exploration instead of consuming a
fixed dataset.  Each "epoch" is one RL iteration — a batch of MCTS
self-play games, gradient steps on the replay buffer, and evaluation.
Quality = fraction of predicted moves (policy argmax over plausibly-legal
moves) matching the moves of held-out reference games.

The reference corpus is self-play of a stronger, offline-trained "pro"
network (see :mod:`repro.go.pro`) — our stand-in for human reference
games.  Threshold placement follows the paper's §3.3 policy: independently
seeded agents at this scale agree with the pro on ~15% of moves at their
plateau, so the target (0.14) sits slightly below that, ensuring compliant
runs consistently converge — the same relative placement as the paper's
40% target for full-scale MiniGo.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..framework import Adam, no_grad
from ..go import MCTSConfig, selfplay_batch
from ..go.pro import DEFAULT_KOMI, pro_reference_games
from ..metrics import move_match_rate
from ..models import MiniGoNet
from ..telemetry import current_metrics, current_tracer
from .base import Benchmark, BenchmarkSpec, TrainingSession

__all__ = ["ReinforcementBenchmark"]

_SPEC = BenchmarkSpec(
    name="reinforcement",
    area="research",
    dataset="Go 5x5 self-play",
    model="MiniGoNet",
    quality_metric="move_match",
    quality_threshold=0.14,
    required_runs=10,
    max_epochs=20,
    default_hyperparameters={
        "games_per_iteration": 3,
        "mcts_simulations": 16,
        "train_steps_per_iteration": 24,
        "batch_size": 64,
        "base_lr": 2e-3,
        "replay_capacity": 1500,
        "board_size": 5,
        "komi": DEFAULT_KOMI,
    },
    modifiable_hyperparameters=frozenset(
        {"games_per_iteration", "mcts_simulations", "train_steps_per_iteration",
         "batch_size", "base_lr"}
    ),
)


class _Session(TrainingSession):
    def __init__(self, benchmark: "ReinforcementBenchmark", seed: int, hp: Mapping[str, Any]):
        self.hp = dict(hp)
        self.board_size = hp["board_size"]
        self.komi = hp["komi"]
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.model = MiniGoNet(self.board_size, rng)
        self.optimizer = Adam(self.model.parameters(), lr=hp["base_lr"])
        self.mcts_config = MCTSConfig(num_simulations=hp["mcts_simulations"])
        self.replay: list = []
        # Fixed reference evaluation set, shared across runs.
        self.ref_planes = benchmark.ref_planes
        self.ref_moves = benchmark.ref_moves
        self.ref_legal_masks = benchmark.ref_legal_masks

    def run_epoch(self, epoch: int) -> None:
        tracer = current_tracer()
        metrics = current_metrics()
        # 1. Self-play data generation (the expensive exploration phase).
        # evaluations = answers the searches asked for; memo_hits of them
        # came from the game's memo instead of a forward pass.
        counters = {attr: metrics.counter(f"mcts_{attr}")
                    for attr in ("searches", "evaluations", "memo_hits")}
        before = {attr: counter.value for attr, counter in counters.items()}
        with tracer.span("selfplay", games=self.hp["games_per_iteration"]) as span:
            examples = selfplay_batch(
                self.model, self.hp["games_per_iteration"], self.board_size, self.rng,
                self.mcts_config, komi=self.komi,
            )
            span.set(moves=len(examples),
                     **{attr: int(counter.value - before[attr])
                        for attr, counter in counters.items()})
        self.replay.extend(examples)
        if len(self.replay) > self.hp["replay_capacity"]:
            self.replay = self.replay[-self.hp["replay_capacity"] :]
        metrics.gauge("replay_buffer_size").set(len(self.replay))
        # 2. Gradient steps on the replay buffer.
        self.model.train()
        samples = metrics.counter("samples_seen")
        with tracer.span("train_steps", steps=self.hp["train_steps_per_iteration"]):
            for _ in range(self.hp["train_steps_per_iteration"]):
                idx = self.rng.integers(0, len(self.replay), size=min(self.hp["batch_size"],
                                                                      len(self.replay)))
                planes = np.stack([self.replay[i].planes for i in idx])
                policy = np.stack([self.replay[i].policy for i in idx])
                value = np.array([self.replay[i].value for i in idx])
                loss = self.step_executor().step(
                    lambda: self.model.loss(planes, policy, value),
                    pre_backward=self.model.zero_grad,
                )
                self.optimizer.step()
                samples.inc(len(idx))

    def evaluate(self) -> float:
        self.model.eval()
        with no_grad():
            logits, _ = self.model(self.ref_planes)
        masked = np.where(self.ref_legal_masks, logits.data, -np.inf)
        predicted = masked.argmax(axis=1)
        return move_match_rate(predicted, self.ref_moves)


class ReinforcementBenchmark(Benchmark):
    spec = _SPEC

    def __init__(self, num_reference_games: int = 12, reference_seed: int = 7):
        self.num_reference_games = num_reference_games
        self.reference_seed = reference_seed
        self.ref_planes: np.ndarray | None = None
        self.ref_moves: np.ndarray | None = None
        self.ref_legal_masks: np.ndarray | None = None

    def prepare_data(self) -> None:
        """Build the pro reference-game corpus (untimed, cached on disk)."""
        if self.ref_planes is not None:
            return
        board_size = self.spec.default_hyperparameters["board_size"]
        komi = self.spec.default_hyperparameters["komi"]
        games = pro_reference_games(
            self.num_reference_games, board_size, self.reference_seed, komi
        )
        self.ref_planes, self.ref_moves, self.ref_legal_masks = _reference_eval_arrays(
            games, board_size
        )

    def create_session(self, seed: int, hyperparameters: Mapping[str, Any]) -> TrainingSession:
        if self.ref_planes is None:
            raise RuntimeError("call prepare_data() before create_session()")
        return _Session(self, seed, hyperparameters)


def _reference_eval_arrays(games, board_size: int):
    """Flatten reference games into (planes, moves, legal-move masks).

    Legality masks are derived from occupancy ("empty points + pass"),
    which upper-bounds the true legal set — exact except for the rare
    suicide/ko points, and sufficient to keep the predictor from being
    credited for grossly illegal moves.
    """
    planes, moves = [], []
    for game in games:
        for pos_planes, move in zip(game.positions, game.moves):
            planes.append(pos_planes)
            moves.append(move)
    n_moves = board_size * board_size + 1
    mask_arr = np.zeros((len(planes), n_moves), dtype=bool)
    for i, p in enumerate(planes):
        occupied = (p[0] + p[1]) > 0
        mask_arr[i, : n_moves - 1] = ~occupied.reshape(-1)
        mask_arr[i, n_moves - 1] = True
    return np.stack(planes).astype(np.float32), np.array(moves), mask_arr
