"""Unit-disk graph construction tests: dense vs grid strategies."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.sparse import CSRBatch
from repro.errors import TopologyError
from repro.graphs import bitset, unitdisk
from repro.graphs.unitdisk import (
    unit_disk_adjacency,
    unit_disk_adjacency_dense,
    unit_disk_adjacency_grid,
    unit_disk_edge_lists,
    unit_disk_edges,
)


class TestSmallCases:
    def test_two_points_within_radius(self):
        adj = unit_disk_adjacency(np.array([[0.0, 0.0], [3.0, 4.0]]), 5.0)
        assert adj == [0b10, 0b01]  # distance exactly 5: inclusive edge

    def test_two_points_beyond_radius(self):
        adj = unit_disk_adjacency(np.array([[0.0, 0.0], [3.0, 4.0]]), 4.999)
        assert adj == [0, 0]

    def test_no_self_loops(self):
        adj = unit_disk_adjacency(np.zeros((3, 2)), 1.0)
        for v, m in enumerate(adj):
            assert not m >> v & 1

    def test_coincident_points_are_adjacent(self):
        adj = unit_disk_adjacency(np.zeros((2, 2)), 0.0)
        assert adj == [0b10, 0b01]

    def test_empty_input(self):
        assert unit_disk_adjacency(np.zeros((0, 2)), 1.0) == []

    def test_zero_radius_grid_isolates_distinct_points(self):
        pos = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert unit_disk_adjacency_grid(pos, 0.0) == [0, 0]


class TestZeroRadius:
    """At radius 0 exactly the coincident hosts are adjacent (d ≤ r)."""

    def test_coincident_edge_on_both_sides_of_cutoff(self):
        # hosts 0 and 1 coincide; the rest sit 3 apart on a diagonal.
        # n = 100 runs the dense builder, n = 600 the grid builder
        for n in (100, 600):
            pos = np.zeros((n, 2))
            pos[2:] = np.arange(n - 2)[:, None] * 3.0 + 1.0
            assert unit_disk_adjacency(pos, 0.0)[:3] == [0b10, 0b01, 0]

    def test_edge_lists_have_no_float_warnings(self):
        pos = np.array([[0.0, 0.0], [0.0, 0.0], [-2.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            src, dst = unit_disk_edge_lists(pos, 0.0, np.arange(3), 64)
            csr = CSRBatch.from_positions(pos, 0.0)
        assert sorted(zip(src.tolist(), dst.tolist())) == [(0, 1), (1, 0)]
        assert csr.indptr.tolist() == [0, 1, 2, 2]
        assert csr.dst.tolist() == [1, 0]


class TestValidation:
    def test_bad_shape_rejected(self):
        with pytest.raises(TopologyError, match=r"\(n, 2\)"):
            unit_disk_adjacency(np.zeros((3, 3)), 1.0)

    def test_nan_rejected(self):
        pos = np.array([[0.0, np.nan]])
        with pytest.raises(TopologyError, match="NaN"):
            unit_disk_adjacency(pos, 1.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(TopologyError, match="non-negative"):
            unit_disk_adjacency(np.zeros((2, 2)), -1.0)


class TestStrategyEquivalence:
    @pytest.mark.parametrize("n,radius", [(10, 25.0), (60, 10.0), (120, 30.0)])
    def test_dense_equals_grid(self, rng, n, radius):
        pos = rng.random((n, 2)) * 100.0
        assert unit_disk_adjacency_dense(pos, radius) == unit_disk_adjacency_grid(
            pos, radius
        )

    def test_tiny_budget_chunks_and_blocks_match(self, rng, monkeypatch):
        # a 16-word budget forces one packing block per row and many
        # edge-list chunks; the rows must not change
        pos = rng.random((90, 2)) * 100.0
        want = unit_disk_adjacency_dense(pos, 18.0)
        monkeypatch.setattr(unitdisk, "_CHUNK_WORDS", 16)
        assert unit_disk_adjacency_grid(pos, 18.0) == want

    def test_dispatch_uses_grid_above_cutoff(self, rng):
        pos = rng.random((600, 2)) * 100.0
        assert unit_disk_adjacency(pos, 15.0) == unit_disk_adjacency_grid(
            pos, 15.0
        )

    def test_matches_networkx_reference(self, rng):
        nx = pytest.importorskip("networkx")
        pos = rng.random((40, 2)) * 100.0
        adj = unit_disk_adjacency(pos, 25.0)
        ours = {frozenset(e) for e in unit_disk_edges(pos, 25.0)}
        g = nx.Graph()
        g.add_nodes_from(range(40))
        for i in range(40):
            for j in range(i + 1, 40):
                if np.hypot(*(pos[i] - pos[j])) <= 25.0:
                    g.add_edge(i, j)
        theirs = {frozenset(e) for e in g.edges()}
        assert ours == theirs
        # and adjacency masks agree with the edge list
        rebuilt = [0] * 40
        for u, v in unit_disk_edges(pos, 25.0):
            rebuilt[u] |= 1 << v
            rebuilt[v] |= 1 << u
        assert rebuilt == adj


class TestEdges:
    def test_edges_are_ordered_pairs(self, rng):
        pos = rng.random((30, 2)) * 50.0
        for u, v in unit_disk_edges(pos, 20.0):
            assert u < v

    def test_edge_count_matches_popcount(self, rng):
        pos = rng.random((25, 2)) * 50.0
        adj = unit_disk_adjacency(pos, 20.0)
        assert (
            len(unit_disk_edges(pos, 20.0))
            == sum(bitset.popcount(m) for m in adj) // 2
        )
