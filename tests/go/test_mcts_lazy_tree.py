"""The lazy search tree against the eager one it replaced.

``EagerMCTS`` is the search as it shipped: every child node is built with
its own ``GoBoard`` at expansion time.  The lazy tree must evaluate the same
positions in the same order, draw the same random numbers and return the
same visit distribution — while building one board per *visited* node.
"""

import zlib

import numpy as np
import pytest

from repro.go import GoBoard, MCTS, MCTSConfig


class _EagerNode:
    def __init__(self, board, prior):
        self.board = board
        self.prior = prior
        self.children = {}
        self.visit_count = 0
        self.value_sum = 0.0
        self.expanded = False

    @property
    def mean_value(self):
        return self.value_sum / self.visit_count if self.visit_count else 0.0


class EagerMCTS:
    """The pre-lazy-tree search (reference only)."""

    def __init__(self, evaluate, config, rng):
        self.evaluate, self.config, self.rng = evaluate, config, rng

    def search(self, board, add_noise=True):
        root = _EagerNode(board, prior=1.0)
        self._expand(root, add_noise=add_noise)
        for _ in range(self.config.num_simulations):
            self._simulate(root)
        visits = np.zeros(board.num_moves, dtype=np.float64)
        for move, child in root.children.items():
            visits[move] = child.visit_count
        total = visits.sum()
        return visits / total if total > 0 else visits

    def _expand(self, node, add_noise=False):
        board = node.board
        if board.is_over:
            return board.result_for(board.to_play)
        policy, value = self.evaluate(board)
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
            node.children[move] = _EagerNode(board.play(move), float(prior))
        node.expanded = True
        return float(value)

    def _select_child(self, node):
        sqrt_total = np.sqrt(max(node.visit_count, 1))
        best_score, best = -np.inf, None
        for move, child in node.children.items():
            q = -child.mean_value
            u = self.config.c_puct * child.prior * sqrt_total / (1 + child.visit_count)
            if q + u > best_score:
                best_score, best = q + u, (move, child)
        return best

    def _simulate(self, root):
        path = [root]
        node = root
        while node.expanded and not node.board.is_over:
            _, node = self._select_child(node)
            path.append(node)
        value = self._expand(node) if not node.board.is_over else node.board.result_for(
            node.board.to_play)
        for depth, visited in enumerate(reversed(path)):
            visited.visit_count += 1
            visited.value_sum += value if depth % 2 == 0 else -value


class _RecordingEvaluator:
    """A position-dependent policy and value, and the order of the calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, board):
        key = board.board.tobytes() + bytes([board.to_play, board.passes])
        self.calls.append(key)
        rng = np.random.default_rng(zlib.crc32(key))
        return rng.dirichlet(np.ones(board.num_moves)).astype(np.float32), rng.uniform(-1, 1)


def _random_positions(size, count, seed):
    rng = np.random.default_rng(seed)
    positions = []
    while len(positions) < count:
        board = GoBoard(size, komi=2.5)
        for _ in range(int(rng.integers(0, 3 * size * size))):
            if board.is_over:
                break
            move = int(rng.choice(board.legal_moves()))
            board = board.play(move)
        if not board.is_over:
            positions.append(board)
    return positions


@pytest.mark.parametrize("size,min_moves_before_pass", [(4, 10), (5, 0)])
def test_lazy_tree_matches_eager_tree(size, min_moves_before_pass):
    config = MCTSConfig(num_simulations=24, min_moves_before_pass=min_moves_before_pass)
    for index, board in enumerate(_random_positions(size, 12, seed=size)):
        runs = []
        for cls in (EagerMCTS, MCTS):
            evaluator = _RecordingEvaluator()
            rng = np.random.default_rng(index)
            mcts = cls(evaluator, config, rng)
            policies = [mcts.search(board), mcts.search(board, add_noise=False)]
            runs.append((policies, evaluator.calls, rng.bit_generator.state))
        (eager_policies, eager_calls, eager_rng), (policies, calls, rng_state) = runs
        for expected, got in zip(eager_policies, policies):
            assert np.array_equal(expected, got)
        assert calls == eager_calls
        assert rng_state == eager_rng


def test_one_board_per_visited_node(monkeypatch):
    built = []
    original = GoBoard.play
    monkeypatch.setattr(GoBoard, "play",
                        lambda self, move: built.append(move) or original(self, move))
    config = MCTSConfig(num_simulations=16)
    mcts = MCTS(_RecordingEvaluator(), config, np.random.default_rng(0))
    mcts.search(GoBoard(5))
    # Each simulation walks to one unvisited child and plays its move; the
    # eager tree built one board per legal move per expansion (~25 each).
    assert len(built) == config.num_simulations

