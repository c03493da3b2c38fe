"""AdHocNetwork container tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.graphs.adhoc import AdHocNetwork


def tiny_net():
    pos = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [90.0, 90.0]])
    return AdHocNetwork(pos, radius=12.0)


class TestConstruction:
    def test_basic_properties(self):
        net = tiny_net()
        assert net.n == 4
        assert net.radius == 12.0
        assert net.neighbors(1) == [0, 2]
        assert net.degree(3) == 0

    def test_positions_are_owned_copy(self):
        pos = np.zeros((2, 2))
        net = AdHocNetwork(pos, 1.0)
        pos[0, 0] = 99.0
        assert net.positions[0, 0] == 0.0

    def test_bad_positions_rejected(self):
        with pytest.raises(TopologyError):
            AdHocNetwork(np.zeros((2, 3)), 1.0)

    def test_bad_radius_rejected(self):
        with pytest.raises(TopologyError):
            AdHocNetwork(np.zeros((2, 2)), float("nan"))


class TestMutation:
    def test_invalidate_rebuilds_adjacency(self):
        net = tiny_net()
        assert not net.has_edge(2, 3)
        net.positions[3] = [25.0, 0.0]
        net.invalidate()
        assert net.has_edge(2, 3)

    def test_move_host_invalidates(self):
        net = tiny_net()
        net.move_host(3, (25.0, 0.0))
        assert net.has_edge(2, 3)

    def test_snapshot_is_immutable_copy(self):
        net = tiny_net()
        snap = net.snapshot()
        net.move_host(3, (25.0, 0.0))
        assert snap.adjacency != net.adjacency

    def test_changed_nodes_since(self):
        net = tiny_net()
        before = net.snapshot()
        net.move_host(3, (25.0, 0.0))
        assert net.changed_nodes_since(before) == [2, 3]

    def test_changed_nodes_size_mismatch_raises(self):
        net = tiny_net()
        other = AdHocNetwork(np.zeros((2, 2)), 1.0)
        with pytest.raises(TopologyError, match="mismatch"):
            net.changed_nodes_since(other.snapshot())


class TestZeroRadiusMoves:
    def test_apply_moves_patches_coincident_edges(self):
        net = AdHocNetwork(np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]]), 0.0)
        assert net.adjacency == [0b010, 0b001, 0]
        net.positions[1] = (5.0, 5.0)
        assert net.apply_moves([1]) == 0b111
        assert net.adjacency == [0, 0b100, 0b010]

    def test_grid_path_at_zero_radius(self):
        # above the grid cutoff: 600 hosts on a 3-spaced diagonal
        pos = np.arange(600)[:, None] * 3.0 + np.zeros((1, 2))
        net = AdHocNetwork(pos, 0.0)
        assert not any(net.adjacency)
        net.positions[7] = net.positions[300]
        assert net.apply_moves([7]) == (1 << 7) | (1 << 300)
        assert net.neighbors(7) == [300] and net.neighbors(300) == [7]


class TestQueries:
    def test_connectivity(self):
        net = tiny_net()
        assert not net.is_connected()
        net.move_host(3, (30.0, 0.0))
        assert net.is_connected()

    def test_copy_is_independent(self):
        net = tiny_net()
        dup = net.copy()
        dup.move_host(3, (25.0, 0.0))
        assert not net.has_edge(2, 3)
        assert dup.has_edge(2, 3)
