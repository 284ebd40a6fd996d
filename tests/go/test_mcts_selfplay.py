"""MCTS, the heuristic reference player, and self-play data generation."""

import numpy as np
import pytest

from repro.go import (
    BLACK,
    GoBoard,
    HeuristicPlayer,
    MCTS,
    MCTSConfig,
    generate_reference_games,
    play_selfplay_game,
    selfplay_batch,
)


def uniform_evaluate(board):
    """Uninformed evaluator: uniform policy, neutral value."""
    n = board.num_moves
    return np.full(n, 1.0 / n), 0.0


def make_mcts(sims=16, seed=0):
    return MCTS(uniform_evaluate, MCTSConfig(num_simulations=sims), rng=np.random.default_rng(seed))


class TestMCTS:
    def test_policy_is_distribution(self):
        policy = make_mcts().search(GoBoard(4))
        assert policy.shape == (17,)
        assert policy.min() >= 0
        np.testing.assert_allclose(policy.sum(), 1.0)

    def test_policy_zero_on_illegal(self):
        b = GoBoard(4).play(0)
        policy = make_mcts().search(b)
        assert policy[0] == 0.0  # occupied point gets no visits

    def test_finds_winning_capture(self):
        # White group in atari: MCTS (with terminal-value feedback) should
        # prefer the capturing move heavily over random alternatives.
        b = GoBoard(3)
        # B(0,1) W(0,0) B(2,2): white corner stone has one liberty at (1,0).
        b = b.play(1).play(0).play(8)
        b = b.play(4)  # W plays center; black to move, can capture at (1,0)
        policy = make_mcts(sims=100, seed=1).search(b)
        capture_move = 3  # (1,0)
        assert policy[capture_move] >= policy.max() * 0.5

    def test_best_move_deterministic_at_zero_temperature(self):
        b = GoBoard(4)
        m1 = make_mcts(seed=3).best_move(b, temperature=0.0)
        m2 = make_mcts(seed=3).best_move(b, temperature=0.0)
        assert m1 == m2

    def test_temperature_sampling_varies(self):
        b = GoBoard(4)
        moves = {make_mcts(seed=s).best_move(b, temperature=1.0) for s in range(8)}
        assert len(moves) > 1

    def test_terminal_board_value(self):
        b = GoBoard(3).play(4)  # black owns board
        b = b.play(b.pass_move).play(b.pass_move)
        assert b.is_over
        # A finished game has no move to search for: the old all-zero
        # distribution turned into move 0 and failed later, inside play().
        assert b.legal_moves() == []
        assert not b.is_legal(b.pass_move)
        with pytest.raises(ValueError, match="game is over"):
            make_mcts().search(b)
        with pytest.raises(ValueError, match="game is over"):
            make_mcts().best_move(b)


class TestHeuristicPlayer:
    def test_deterministic_without_jitter(self):
        b = GoBoard(5)
        p = HeuristicPlayer(jitter=0.0)
        assert p.select_move(b) == p.select_move(b)

    def test_prefers_capture(self):
        # White stone in atari: black's capture should be chosen.
        b = GoBoard(4)
        b = b.play(1).play(0).play(15)  # B(0,1) W(0,0) B corner; white to move
        b = b.play(10)  # white elsewhere; black to move, capture at (1,0)=4
        p = HeuristicPlayer(jitter=0.0)
        assert p.select_move(b) == 4

    def test_never_selects_illegal(self):
        rng = np.random.default_rng(0)
        b = GoBoard(4)
        p = HeuristicPlayer(jitter=0.5, rng=rng)
        for _ in range(20):
            if b.is_over:
                break
            move = p.select_move(b)
            assert b.is_legal(move)
            b = b.play(move)


class TestReferenceGames:
    def test_deterministic_given_seed(self):
        a = generate_reference_games(2, board_size=4, seed=5)
        b = generate_reference_games(2, board_size=4, seed=5)
        assert [g.moves for g in a] == [g.moves for g in b]

    def test_positions_align_with_moves(self):
        games = generate_reference_games(2, board_size=4, seed=1)
        for g in games:
            assert len(g.positions) == len(g.moves)
            for planes in g.positions:
                assert planes.shape == (3, 4, 4)

    def test_openings_vary(self):
        games = generate_reference_games(6, board_size=5, seed=2)
        first_moves = {g.moves[0] for g in games}
        assert len(first_moves) > 1

    def test_moves_within_move_space(self):
        games = generate_reference_games(2, board_size=4, seed=3)
        for g in games:
            for m in g.moves:
                assert 0 <= m <= 16


class TestMCTSConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("num_simulations", 0),
        ("num_simulations", -3),
        ("c_puct", 0.0),
        ("c_puct", float("nan")),
        ("dirichlet_alpha", 0.0),
        ("dirichlet_weight", -0.1),
        ("dirichlet_weight", 1.5),
        ("min_moves_before_pass", -1),
    ])
    def test_out_of_range_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            MCTSConfig(**{field: value})

    def test_boundary_values_are_accepted(self):
        config = MCTSConfig(num_simulations=1, dirichlet_weight=0.0, min_moves_before_pass=0)
        policy = MCTS(uniform_evaluate, config, rng=np.random.default_rng(0)).search(GoBoard(3))
        np.testing.assert_allclose(policy.sum(), 1.0)
        MCTSConfig(dirichlet_weight=1.0)

    def test_zero_simulations_is_rejected_where_the_hyperparameter_enters(self):
        from repro.suite import create_benchmark

        bench = create_benchmark("reinforcement")
        bench.prepare_data()
        hp = bench.spec.resolve_hyperparameters({"mcts_simulations": 0})
        with pytest.raises(ValueError, match="num_simulations"):
            bench.create_session(seed=0, hyperparameters=hp)


class TestSelfPlay:
    def test_game_produces_examples(self):
        rng = np.random.default_rng(0)
        examples = play_selfplay_game(
            _UniformNet(4), 4, rng, MCTSConfig(num_simulations=8)
        )
        assert len(examples) > 0
        for ex in examples:
            assert ex.planes.shape == (3, 4, 4)
            np.testing.assert_allclose(ex.policy.sum(), 1.0)
            assert ex.value in (1.0, -1.0)

    def test_values_consistent_with_single_winner(self):
        rng = np.random.default_rng(1)
        examples = play_selfplay_game(_UniformNet(4), 4, rng, MCTSConfig(num_simulations=8))
        # Alternating perspectives: consecutive values must alternate sign
        # whenever both positions were before the end (single winner).
        values = [ex.value for ex in examples]
        assert all(a == -b for a, b in zip(values, values[1:]))

    def test_batch_concatenates(self):
        rng = np.random.default_rng(2)
        examples = selfplay_batch(_UniformNet(4), 2, 4, rng, MCTSConfig(num_simulations=4))
        assert len(examples) > 2


class _UniformNet:
    """Minimal evaluator object exposing .evaluate like MiniGoNet."""

    def __init__(self, size):
        self.n = size * size + 1

    def evaluate(self, board):
        return np.full(self.n, 1.0 / self.n), 0.0


class TestKomiAndPassRestriction:
    def test_competitive_komi_flips_winner(self):
        from repro.go import GoBoard

        b = GoBoard(3, komi=0.5).play(4)  # black owns 9 points
        assert b.score() == pytest.approx(8.5)
        b_high = GoBoard(3, komi=12.5).play(4)
        assert b_high.score() == pytest.approx(-3.5)
        assert b_high.winner() != b.winner()

    def test_early_pass_excluded_from_search(self):
        from repro.go import GoBoard, MCTSConfig
        from repro.go.mcts import MCTS, _Node

        cfg = MCTSConfig(num_simulations=4, min_moves_before_pass=10)
        mcts = MCTS(uniform_evaluate, cfg, rng=np.random.default_rng(0))
        board = GoBoard(4)
        root = _Node(board, prior=1.0)
        mcts._expand(root)
        assert board.pass_move not in root.children

    def test_late_pass_allowed(self):
        from repro.go import GoBoard, MCTSConfig
        from repro.go.mcts import MCTS, _Node

        cfg = MCTSConfig(num_simulations=4, min_moves_before_pass=0)
        mcts = MCTS(uniform_evaluate, cfg, rng=np.random.default_rng(0))
        board = GoBoard(4)
        root = _Node(board, prior=1.0)
        mcts._expand(root)
        assert board.pass_move in root.children

    def test_selfplay_passes_komi_through(self):
        from repro.go import play_selfplay_game, MCTSConfig

        rng = np.random.default_rng(0)
        examples = play_selfplay_game(_UniformNet(4), 4, rng,
                                      MCTSConfig(num_simulations=4), komi=7.5)
        assert len(examples) > 0
        # With a heavy komi and random play, white (the komi holder) often
        # wins; at minimum the values are still a valid +1/-1 labelling.
        assert set(abs(e.value) for e in examples) == {1.0}
