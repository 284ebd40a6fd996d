"""Go board rules: captures, suicide, positional superko, area scoring.

The MiniGo benchmark (§3.1.4) generates its training data by self-play
rather than from a fixed dataset, which requires a full game engine.  This
is a complete small-board Go implementation:

- stones and captures with breadth-first group/liberty computation,
- the suicide rule (self-capture moves are illegal),
- positional superko (a move may not recreate any previous whole-board
  position, which also forbids simple ko),
- two consecutive passes end the game,
- Tromp-Taylor area scoring with komi.

Boards are immutable from the caller's perspective: :meth:`play` returns a
new ``GoBoard``, which keeps MCTS tree code simple and bug-resistant.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["GoBoard", "EMPTY", "BLACK", "WHITE"]

EMPTY, BLACK, WHITE = 0, 1, 2


def _opponent(color: int) -> int:
    return BLACK + WHITE - color


@functools.cache
def _neighbor_table(size: int) -> tuple[tuple[int, ...], ...]:
    """Flat indices of each point's neighbours (up, down, left, right)."""
    table = []
    for y in range(size):
        for x in range(size):
            around = []
            if y > 0:
                around.append((y - 1) * size + x)
            if y < size - 1:
                around.append((y + 1) * size + x)
            if x > 0:
                around.append(y * size + x - 1)
            if x < size - 1:
                around.append(y * size + x + 1)
            table.append(tuple(around))
    return tuple(table)


def _flood(cells, start: int, neighbors) -> tuple[set[int], set[int]]:
    """The group containing ``start`` and its liberties, as flat indices."""
    color = cells[start]
    stones = {start}
    liberties: set[int] = set()
    frontier = [start]
    while frontier:
        for n in neighbors[frontier.pop()]:
            v = cells[n]
            if v == EMPTY:
                liberties.add(n)
            elif v == color and n not in stones:
                stones.add(n)
                frontier.append(n)
    return stones, liberties


def _dead_group(cells, start: int, neighbors) -> set[int] | None:
    """The group containing ``start`` if it has no liberty, else None.

    Stops at the first liberty, which for most groups is the first
    neighbour looked at.
    """
    color = cells[start]
    stones = {start}
    frontier = [start]
    while frontier:
        for n in neighbors[frontier.pop()]:
            v = cells[n]
            if v == EMPTY:
                return None
            if v == color and n not in stones:
                stones.add(n)
                frontier.append(n)
    return stones


def _place(cells: bytes, move: int, color: int, neighbors) -> bytes | None:
    """Cells after ``color`` plays ``move``, or None if the point is
    occupied or the move is suicide.  Superko is checked by the caller."""
    if cells[move] != EMPTY:
        return None
    grid = bytearray(cells)
    grid[move] = color
    opponent = _opponent(color)
    for n in neighbors[move]:
        if grid[n] == opponent:
            for stone in _dead_group(grid, n, neighbors) or ():
                grid[stone] = EMPTY
    if _dead_group(grid, move, neighbors):
        return None
    return bytes(grid)


class GoBoard:
    """Immutable Go position.  Moves are flat indices; ``size*size`` = pass.

    Stones live in ``_cells``, one byte per point in row-major order;
    ``board`` is a read-only ``(size, size)`` int8 view of them.  Because a
    position never changes, the cells each move leads to (and the winner)
    are computed at most once per board: ``legal_moves()`` and a later
    ``play(m)`` share one capture/suicide computation.  Assigning ``board``
    (as test fixtures do) starts a new position and drops what was cached.
    """

    def __init__(self, size: int = 5, komi: float = 0.5):
        if size < 2:
            raise ValueError("board size must be at least 2")
        self.size = size
        self.komi = komi
        self.to_play = BLACK
        self.passes = 0
        self.move_count = 0
        self.last_move: int | None = None
        self._set_cells(bytes(size * size))
        self._history: frozenset[bytes] = frozenset([self._cells])

    def _set_cells(self, cells: bytes) -> None:
        self._cells = cells
        self._grid: np.ndarray | None = None
        # (move, to_play) -> cells after the move, None if occupied/suicide.
        self._placed: dict[tuple[int, int], bytes | None] = {}
        self._winner: int | None = None

    # -- basic helpers --------------------------------------------------------
    @property
    def board(self) -> np.ndarray:
        grid = self._grid
        if grid is None:
            grid = self._grid = np.frombuffer(self._cells, dtype=np.int8).reshape(
                self.size, self.size)
        return grid

    @board.setter
    def board(self, grid) -> None:
        grid = np.asarray(grid, dtype=np.int8)
        if grid.shape != (self.size, self.size):
            raise ValueError(f"board must be {self.size}x{self.size}, got {grid.shape}")
        self._set_cells(grid.tobytes())

    @property
    def pass_move(self) -> int:
        return self.size * self.size

    @property
    def num_moves(self) -> int:
        """Size of the move space including pass."""
        return self.size * self.size + 1

    def to_coord(self, move: int) -> tuple[int, int]:
        return divmod(move, self.size)

    def _neighbors(self, y: int, x: int):
        for n in _neighbor_table(self.size)[y * self.size + x]:
            yield divmod(n, self.size)

    def _group_and_liberties(self, y: int, x: int, grid: np.ndarray) -> tuple[set, set]:
        """The group containing (y, x) on ``grid``: (stones, liberties) as
        sets of ``(y, x)``."""
        size = self.size
        stones, liberties = _flood(grid.tobytes(), y * size + x, _neighbor_table(size))
        return {divmod(s, size) for s in stones}, {divmod(p, size) for p in liberties}

    # -- move application -----------------------------------------------------
    def _apply_stone(self, move: int) -> bytes | None:
        """Cells after the side to move plays ``move``, or None if illegal
        (occupied or suicide).  Superko is checked by the caller."""
        key = (move, self.to_play)
        placed = self._placed
        if key not in placed:
            placed[key] = _place(self._cells, move, self.to_play, _neighbor_table(self.size))
        return placed[key]

    def is_legal(self, move: int) -> bool:
        if self.is_over:
            return False
        if move == self.pass_move:
            return True
        if not 0 <= move < self.pass_move:
            return False
        cells = self._apply_stone(move)
        return cells is not None and cells not in self._history

    def legal_moves(self) -> list[int]:
        """All legal moves including pass; none once the game is over."""
        if self.is_over:
            return []
        history = self._history
        moves = []
        for move, stone in enumerate(self._cells):
            if stone == EMPTY:
                cells = self._apply_stone(move)
                if cells is not None and cells not in history:
                    moves.append(move)
        moves.append(self.pass_move)
        return moves

    def play(self, move: int) -> "GoBoard":
        """Return the position after ``move``; raises on illegal moves."""
        if self.is_over:
            raise ValueError("game is over")
        if move == self.pass_move:
            cells, passes, history = self._cells, self.passes + 1, self._history
        else:
            if not 0 <= move < self.pass_move:
                raise ValueError(f"illegal move {move} (off the board)")
            cells = self._apply_stone(move)
            if cells is None:
                raise ValueError(f"illegal move {move} (occupied or suicide)")
            if cells in self._history:
                raise ValueError(f"illegal move {move} (superko)")
            passes, history = 0, self._history | {cells}
        child = GoBoard.__new__(GoBoard)
        child.size = self.size
        child.komi = self.komi
        child.to_play = _opponent(self.to_play)
        child.passes = passes
        child.move_count = self.move_count + 1
        child.last_move = move
        child._set_cells(cells)
        child._history = history
        return child

    # -- game end & scoring ---------------------------------------------------
    @property
    def is_over(self) -> bool:
        return self.passes >= 2 or self.move_count >= 4 * self.size * self.size

    def score(self) -> float:
        """Tromp-Taylor area score from Black's perspective (minus komi).

        Empty regions count for a color iff they touch only that color.
        """
        cells = self._cells
        neighbors = _neighbor_table(self.size)
        black = float(cells.count(BLACK))
        white = float(cells.count(WHITE))
        visited: set[int] = set()
        for start, stone in enumerate(cells):
            if stone != EMPTY or start in visited:
                continue
            region = {start}
            frontier = [start]
            borders = set()
            while frontier:
                for n in neighbors[frontier.pop()]:
                    v = cells[n]
                    if v != EMPTY:
                        borders.add(v)
                    elif n not in region:
                        region.add(n)
                        frontier.append(n)
            visited |= region
            if borders == {BLACK}:
                black += len(region)
            elif borders == {WHITE}:
                white += len(region)
        return black - white - self.komi

    def winner(self) -> int:
        """BLACK or WHITE by area score (komi breaks ties)."""
        if self._winner is None:
            self._winner = BLACK if self.score() > 0 else WHITE
        return self._winner

    def result_for(self, color: int) -> float:
        """+1 if ``color`` wins, -1 otherwise."""
        return 1.0 if self.winner() == color else -1.0

    # -- features ----------------------------------------------------------------
    def feature_planes(self) -> np.ndarray:
        """Network input ``(3, size, size)``: own stones, opponent stones,
        a constant plane encoding the side to move (1 = black)."""
        own = (self.board == self.to_play).astype(np.float32)
        opp = (self.board == _opponent(self.to_play)).astype(np.float32)
        turn = np.full_like(own, 1.0 if self.to_play == BLACK else 0.0)
        return np.stack([own, opp, turn])

    def __repr__(self) -> str:
        symbols = {EMPTY: ".", BLACK: "X", WHITE: "O"}
        rows = ["".join(symbols[int(v)] for v in row) for row in self.board]
        return "\n".join(rows) + f"\nto_play={'B' if self.to_play == BLACK else 'W'}"
