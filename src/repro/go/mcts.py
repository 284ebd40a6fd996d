"""Monte-Carlo tree search guided by a policy/value network.

The AlphaGo-style search MiniGo uses (§3.1.4): PUCT selection with network
policy priors, leaf evaluation by the value head (no rollouts), Dirichlet
exploration noise at the root, and visit-count move selection.  The search
"performs many forward passes through the model to generate actions rather
than using a simulator" — exactly the compute profile the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..telemetry import current_metrics
from .board import GoBoard

__all__ = ["MCTSConfig", "MCTS"]


@dataclass(frozen=True)
class MCTSConfig:
    num_simulations: int = 24
    c_puct: float = 1.5
    dirichlet_alpha: float = 0.5
    dirichlet_weight: float = 0.25
    # Passing is excluded from search before this many moves have been
    # played (unless no stone move is legal).  Real MiniGo restricts early
    # passing the same way; without it self-play collapses into trivial
    # double-pass games and the value net degenerates.
    min_moves_before_pass: int = 10

    def __post_init__(self):
        # A search with no simulation returns an all-zero visit vector, which
        # has no best move and cannot be sampled from.
        for field, bound, ok in (
            ("num_simulations", ">= 1", self.num_simulations >= 1),
            ("c_puct", "> 0", self.c_puct > 0),
            ("dirichlet_alpha", "> 0", self.dirichlet_alpha > 0),
            ("dirichlet_weight", "in [0, 1]", 0 <= self.dirichlet_weight <= 1),
            ("min_moves_before_pass", ">= 0", self.min_moves_before_pass >= 0),
        ):
            if not ok:
                raise ValueError(f"{field} must be {bound}, got {getattr(self, field)!r}")


class _Node:
    """One position in the search tree.

    A child is created from ``(parent board, move, prior)`` and plays its
    move the first time :attr:`board` is read — a 16-simulation search makes
    ~340 children and visits ~17 of them.  ``GoBoard`` remembers what each
    move leads to, so this costs no second capture computation.
    """

    __slots__ = ("_board", "_move", "prior", "children", "visit_count", "value_sum", "expanded")

    def __init__(self, board: GoBoard, prior: float, move: int | None = None):
        # ``board`` is this node's position, or its parent's when ``move``
        # (the move that leads here) is given.
        self._board = board
        self._move = move
        self.prior = prior
        self.children: dict[int, _Node] = {}
        self.visit_count = 0
        self.value_sum = 0.0
        self.expanded = False

    @property
    def board(self) -> GoBoard:
        if self._move is not None:
            self._board = self._board.play(self._move)
            self._move = None
        return self._board

    @property
    def mean_value(self) -> float:
        return self.value_sum / self.visit_count if self.visit_count else 0.0


class MCTS:
    """PUCT search over ``GoBoard`` positions.

    ``evaluate(board) -> (policy, value)`` must return a probability vector
    over the full move space (``board.num_moves``) and a scalar value in
    [-1, 1] from the perspective of the side to move.
    """

    def __init__(self, evaluate, config: MCTSConfig = MCTSConfig(),
                 rng: np.random.Generator | None = None):
        self.evaluate = evaluate
        self.config = config
        self.rng = rng or np.random.default_rng()
        self._evaluations = 0  # network forward passes so far

    def search(self, board: GoBoard, add_noise: bool = True) -> np.ndarray:
        """Run simulations from ``board``; return root visit distribution."""
        if board.is_over:
            raise ValueError("game is over")
        evaluated = self._evaluations
        root = _Node(board, prior=1.0)
        self._expand(root, add_noise=add_noise)
        for _ in range(self.config.num_simulations):
            self._simulate(root)
        visits = np.zeros(board.num_moves, dtype=np.float64)
        for move, child in root.children.items():
            visits[move] = child.visit_count
        total = visits.sum()
        # The registry is touched once per search; per expansion the tally
        # is one integer add.
        metrics = current_metrics()
        metrics.counter("mcts_searches").inc()
        metrics.counter("mcts_evaluations").inc(self._evaluations - evaluated)
        return visits / total if total > 0 else visits

    def best_move(self, board: GoBoard, temperature: float = 0.0) -> int:
        """Pick a move: argmax of visits, or sample with ``temperature``."""
        policy = self.search(board)
        if temperature <= 1e-6:
            return int(policy.argmax())
        scaled = policy ** (1.0 / temperature)
        scaled /= scaled.sum()
        return int(self.rng.choice(len(scaled), p=scaled))

    # -- internals ------------------------------------------------------------
    def _expand(self, node: _Node, add_noise: bool = False) -> float:
        """Expand a leaf: create children with priors; return leaf value."""
        board = node.board
        if board.is_over:
            # Terminal value from the perspective of the side to move.
            return board.result_for(board.to_play)
        policy, value = self.evaluate(board)
        self._evaluations += 1
        legal = board.legal_moves()
        if board.move_count < self.config.min_moves_before_pass and len(legal) > 1:
            legal = [m for m in legal if m != board.pass_move]
        priors = np.array([policy[m] for m in legal], dtype=np.float64)
        total = priors.sum()
        priors = priors / total if total > 0 else np.full(len(legal), 1.0 / len(legal))
        if add_noise and len(legal) > 1:
            noise = self.rng.dirichlet([self.config.dirichlet_alpha] * len(legal))
            w = self.config.dirichlet_weight
            priors = (1 - w) * priors + w * noise
        for move, prior in zip(legal, priors):
            node.children[move] = _Node(board, float(prior), move)
        node.expanded = True
        return float(value)

    def _select_child(self, node: _Node) -> tuple[int, _Node]:
        """PUCT: maximize Q + c * P * sqrt(N_parent) / (1 + N_child)."""
        sqrt_total = np.sqrt(max(node.visit_count, 1))
        best_score, best = -np.inf, None
        for move, child in node.children.items():
            # Child value is stored from the child's to-move perspective;
            # negate for the parent.
            q = -child.mean_value
            u = self.config.c_puct * child.prior * sqrt_total / (1 + child.visit_count)
            score = q + u
            if score > best_score:
                best_score, best = score, (move, child)
        assert best is not None
        return best

    def _simulate(self, root: _Node) -> None:
        path = [root]
        node = root
        while node.expanded and not node.board.is_over:
            _, node = self._select_child(node)
            path.append(node)
        value = self._expand(node) if not node.board.is_over else node.board.result_for(
            node.board.to_play
        )
        # Backpropagate, flipping the sign at each ply.
        for depth, visited in enumerate(reversed(path)):
            visited.visit_count += 1
            visited.value_sum += value if depth % 2 == 0 else -value
