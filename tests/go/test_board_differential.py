"""Differential test: the flat-cell ``GoBoard`` against the ndarray/BFS rules
engine it replaced.

``OracleBoard`` is that engine as it shipped — a grid copy and a
breadth-first liberty walk over NumPy scalars for every candidate move, no
memo — kept here as the reference.  Random playouts on 5x5 and 9x9 compare,
at every position, each point's classification (occupied or suicide /
superko / legal), the grid each legal move leads to, the superko history and
the area score.
"""

import numpy as np
import pytest

from repro.go import BLACK, EMPTY, WHITE, GoBoard


class OracleBoard:
    """The pre-flat-cell rules engine (reference only)."""

    def __init__(self, size, komi=0.5):
        self.size = size
        self.komi = komi
        self.board = np.zeros((size, size), dtype=np.int8)
        self.to_play = BLACK
        self.passes = 0
        self.move_count = 0
        self._history = frozenset([self.board.tobytes()])

    @property
    def pass_move(self):
        return self.size * self.size

    @property
    def is_over(self):
        return self.passes >= 2 or self.move_count >= 4 * self.size * self.size

    def _neighbors(self, y, x):
        if y > 0:
            yield y - 1, x
        if y < self.size - 1:
            yield y + 1, x
        if x > 0:
            yield y, x - 1
        if x < self.size - 1:
            yield y, x + 1

    def _group_and_liberties(self, y, x, grid):
        color = grid[y, x]
        stones = {(y, x)}
        liberties = set()
        frontier = [(y, x)]
        while frontier:
            cy, cx = frontier.pop()
            for ny, nx in self._neighbors(cy, cx):
                v = grid[ny, nx]
                if v == EMPTY:
                    liberties.add((ny, nx))
                elif v == color and (ny, nx) not in stones:
                    stones.add((ny, nx))
                    frontier.append((ny, nx))
        return stones, liberties

    def _apply_stone(self, move):
        y, x = divmod(move, self.size)
        if self.board[y, x] != EMPTY:
            return None
        grid = self.board.copy()
        color = self.to_play
        grid[y, x] = color
        opponent = BLACK + WHITE - color
        for ny, nx in self._neighbors(y, x):
            if grid[ny, nx] == opponent:
                stones, libs = self._group_and_liberties(ny, nx, grid)
                if not libs:
                    for sy, sx in stones:
                        grid[sy, sx] = EMPTY
        _, libs = self._group_and_liberties(y, x, grid)
        if not libs:
            return None
        return grid

    def play(self, move):
        child = OracleBoard.__new__(OracleBoard)
        child.size, child.komi = self.size, self.komi
        child.move_count = self.move_count + 1
        child.to_play = BLACK + WHITE - self.to_play
        if move == self.pass_move:
            child.board = self.board.copy()
            child.passes = self.passes + 1
            child._history = self._history
            return child
        grid = self._apply_stone(move)
        child.board = grid
        child.passes = 0
        child._history = self._history | {grid.tobytes()}
        return child

    def score(self):
        grid = self.board
        black = float((grid == BLACK).sum())
        white = float((grid == WHITE).sum())
        visited = np.zeros_like(grid, dtype=bool)
        for y in range(self.size):
            for x in range(self.size):
                if grid[y, x] != EMPTY or visited[y, x]:
                    continue
                region = {(y, x)}
                frontier = [(y, x)]
                borders = set()
                while frontier:
                    cy, cx = frontier.pop()
                    visited[cy, cx] = True
                    for ny, nx in self._neighbors(cy, cx):
                        v = grid[ny, nx]
                        if v == EMPTY and (ny, nx) not in region:
                            region.add((ny, nx))
                            frontier.append((ny, nx))
                        elif v != EMPTY:
                            borders.add(int(v))
                if borders == {BLACK}:
                    black += len(region)
                elif borders == {WHITE}:
                    white += len(region)
        return black - white - self.komi


def _compare_position(board: GoBoard, oracle: OracleBoard, seen: dict) -> list[int]:
    """Assert ``board`` and ``oracle`` agree on everything; return the legal
    stone moves."""
    assert np.array_equal(board.board, oracle.board)
    assert board.board.dtype == np.int8
    assert board._history == oracle._history
    assert (board.to_play, board.passes, board.move_count) == (
        oracle.to_play, oracle.passes, oracle.move_count)
    assert board.is_over == oracle.is_over
    assert board.score() == oracle.score()
    assert board.winner() == (BLACK if oracle.score() > 0 else WHITE)

    legal = []
    listed = board.legal_moves()
    for move in range(board.pass_move):
        grid = oracle._apply_stone(move)
        if grid is None:
            kind = "occupied" if oracle.board.flat[move] != EMPTY else "suicide"
        elif grid.tobytes() in oracle._history:
            kind = "superko"
        else:
            kind = "legal"
            legal.append(move)
            captured = int((oracle.board != EMPTY).sum()) + 1 - int((grid != EMPTY).sum())
            seen["captures"] += captured > 0
        seen[kind] += 1
        assert board.is_legal(move) == (kind == "legal"), (move, kind)
        if kind == "legal":
            child = board.play(move)
            assert np.array_equal(child.board, grid), move
            assert child._history == oracle._history | {grid.tobytes()}
        else:
            reason = "superko" if kind == "superko" else "occupied or suicide"
            with pytest.raises(ValueError, match=reason):
                board.play(move)
    assert listed == legal + [board.pass_move]
    return legal


@pytest.mark.parametrize("size,seeds,max_moves", [(5, range(6), 100), (9, range(2), 140)])
def test_random_playouts_match_oracle(size, seeds, max_moves):
    seen = dict.fromkeys(("legal", "occupied", "suicide", "superko", "captures"), 0)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        board, oracle = GoBoard(size, komi=2.5), OracleBoard(size, komi=2.5)
        while not board.is_over and board.move_count < max_moves:
            legal = _compare_position(board, oracle, seen)
            if not legal or rng.random() < 0.04:
                move = board.pass_move
            else:
                move = int(rng.choice(legal))
            board, oracle = board.play(move), oracle.play(move)
    # The playouts must have exercised every rule, or the comparison is hollow.
    assert all(seen.values()), seen


def test_groups_and_neighbors_match_oracle():
    rng = np.random.default_rng(3)
    board, oracle = GoBoard(5), OracleBoard(5)
    for _ in range(14):
        move = int(rng.choice([m for m in board.legal_moves() if m != board.pass_move]))
        board, oracle = board.play(move), oracle.play(move)
    for y in range(5):
        for x in range(5):
            assert list(board._neighbors(y, x)) == list(oracle._neighbors(y, x))
            assert board._group_and_liberties(y, x, board.board) == \
                oracle._group_and_liberties(y, x, oracle.board)


def test_remembered_moves_do_not_outlive_the_position():
    """``b.board = grid`` (how ``test_scoring_cases.py`` builds positions) and
    a changed ``to_play`` must not be answered from the previous position."""
    board = GoBoard(3)
    assert board.legal_moves() == list(range(10))  # every point remembered as playable
    grid = np.array([[0, 1, 0],
                     [1, 0, 1],
                     [0, 1, 0]], dtype=np.int8)
    board.board = grid
    board._history = frozenset([grid.tobytes()])
    assert board.winner() == BLACK
    board.to_play = WHITE
    # Every empty point is a black eye: suicide for white, playable for black.
    assert board.legal_moves() == [board.pass_move]
    board.to_play = BLACK
    oracle = OracleBoard(3)
    oracle.board, oracle._history = grid, frozenset([grid.tobytes()])
    expected = [m for m in range(9) if oracle._apply_stone(m) is not None]
    assert board.legal_moves() == expected + [board.pass_move]
    assert expected == [0, 2, 4, 6, 8]
    assert np.array_equal(board.play(4).board, oracle._apply_stone(4))
    board.board = np.where(grid == BLACK, WHITE, EMPTY)  # the remembered winner goes too
    assert board.winner() == WHITE


def test_board_view_cannot_be_written_through():
    board = GoBoard(3).play(4)
    with pytest.raises(ValueError):
        board.board[0, 0] = WHITE
    with pytest.raises(ValueError):
        board.board = np.zeros((2, 2), dtype=np.int8)
