"""Reducer schedules and the canonical-order determinism contract."""

import numpy as np
import pytest

from repro.comms.reducers import (
    PARENT,
    FlatReducer,
    RingReducer,
    make_reducer,
    reduce_chunk,
)


def _chain_reference(contribs):
    """The canonical ascending-rank chain, computed the obvious way."""
    out = contribs[0].copy()
    for c in contribs[1:]:
        out += c
    return out


ALGORITHMS = ["flat", "ring"]


class TestSchedules:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("n,workers", [(1, 1), (7, 2), (16, 3), (5, 4),
                                           (100, 5), (3, 8)])
    def test_chunks_partition_the_bucket(self, algo, n, workers):
        chunks = make_reducer(algo).chunks(n, workers)
        covered = []
        for c in chunks:
            assert 0 <= c.start <= c.stop <= n
            covered.extend(range(c.start, c.stop))
        assert covered == list(range(n))  # disjoint, ordered, complete

    def test_flat_is_parent_owned(self):
        chunks = FlatReducer().chunks(64, 4)
        assert len(chunks) == 1 and chunks[0].owner == PARENT

    def test_ring_assigns_one_chunk_per_rank(self):
        chunks = RingReducer().chunks(64, 4)
        assert [c.owner for c in chunks] == [0, 1, 2, 3]

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError, match="unknown reduction algorithm"):
            make_reducer("butterfly")


class TestCanonicalOrder:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("n,workers", [(1, 1), (7, 3), (101, 2), (64, 4),
                                           (33, 5)])
    def test_reduce_matches_sequential_chain_bitwise(self, algo, n, workers):
        rng = np.random.default_rng(hash((algo, n, workers)) % 2**32)
        contribs = [rng.standard_normal(n).astype(np.float32)
                    for _ in range(workers)]
        out = np.empty(n, dtype=np.float32)
        make_reducer(algo).reduce(out, contribs)
        assert np.array_equal(out, _chain_reference(contribs))

    def test_algorithms_agree_bitwise(self):
        rng = np.random.default_rng(7)
        contribs = [rng.standard_normal(513) * 10.0 ** float(rng.integers(-3, 3))
                    for _ in range(4)]
        outs = []
        for algo in ALGORITHMS:
            out = np.empty(513)
            make_reducer(algo).reduce(out, contribs)
            outs.append(out)
        assert np.array_equal(outs[0], outs[1])

    def test_reduce_chunk_may_alias_rank_zero(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(32)
        b = rng.standard_normal(32)
        expected = a + b
        reduce_chunk(a, [a, b], 0, 32)
        assert np.array_equal(a, expected)
