"""Property tests for the incremental delta-CDS pipeline.

Three layers, each pinned against its from-scratch reference:

1. the one grid hash (:func:`unit_disk_edge_lists`, behind
   :func:`unit_disk_adjacency_grid` and :meth:`CSRBatch.from_positions`)
   == the dense builder, including negative coordinates, duplicate
   points, radius 0 and points exactly on cell boundaries (the
   floor-based bucketing's edge cases);
2. incrementally maintained adjacency (:meth:`AdHocNetwork.apply_moves`)
   == a full :func:`unit_disk_adjacency` rebuild over random move
   sequences — both the dense and the grid delta strategies;
3. :class:`DeltaCDSPipeline` gateway masks == :func:`compute_cds` for all
   five schemes over random move sequences with draining energy.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.cds import compute_cds
from repro.core.delta import DeltaCDSPipeline
from repro.core.priority import SCHEMES
from repro.core.sparse import CSRBatch
from repro.graphs import adhoc, bitset
from repro.graphs.adhoc import AdHocNetwork
from repro.graphs.unitdisk import (
    unit_disk_adjacency,
    unit_disk_adjacency_dense,
    unit_disk_adjacency_grid,
)

# Coordinates straddle zero and land on exact multiples of every radius
# below, exercising the floor-bucketing seams.  They are quantized to 0.5
# so squared distances are exact in float64: a coordinate within a
# sub-ulp of a cell seam can otherwise make the float ``d2 <= r*r``
# filter accept a point whose true distance exceeds r and which therefore
# legitimately lies outside the 3x3 cell block (a measure-zero tie the
# simulator's clamped [0, side] domain cannot produce).
coords = st.integers(-100, 100).map(lambda k: 0.5 * k)
radii = st.sampled_from([0.0, 1.0, 2.5, 5.0, 25.0])


@st.composite
def point_arrays(draw):
    """1-40 quantized points plus up to 5 exact copies of drawn rows."""
    pts = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=40))
    dup = draw(st.lists(st.integers(0, len(pts) - 1), max_size=5))
    return np.array(pts + [pts[i] for i in dup], dtype=np.float64)


def _csr_rows(pts: np.ndarray, radius: float) -> list[int]:
    csr = CSRBatch.from_positions(pts, radius)
    return [
        bitset.mask_from_ids(csr.dst[csr.indptr[v]:csr.indptr[v + 1]].tolist())
        for v in range(len(pts))
    ]


class TestGridHashProperties:
    @given(point_arrays(), radii)
    @settings(max_examples=150, deadline=None)
    def test_grid_and_csr_match_dense(self, pts, radius):
        dense = unit_disk_adjacency_dense(pts, radius)
        assert unit_disk_adjacency_grid(pts, radius) == dense
        assert _csr_rows(pts, radius) == dense

    @given(point_arrays(), radii, st.data())
    @settings(max_examples=100, deadline=None)
    def test_grid_mover_rows_after_moves(self, pts, radius, data):
        """The grid patch path (cutoff forced to 0) stays exact when hosts
        jump onto seams, across zero, or onto each other."""
        net = AdHocNetwork(pts, radius)
        prev = list(net.adjacency)
        n = net.n
        with mock.patch.object(adhoc, "_GRID_CUTOFF", 0):
            for _ in range(data.draw(st.integers(1, 5))):
                ids = data.draw(
                    st.lists(st.integers(0, n - 1), min_size=1, max_size=3)
                )
                for i in ids:
                    net.positions[i] = data.draw(st.tuples(coords, coords))
                changed = net.apply_moves(ids)
                cur = net.adjacency
                assert cur == unit_disk_adjacency_dense(net.positions, radius)
                assert changed == bitset.mask_from_ids(
                    [v for v in range(n) if cur[v] != prev[v]]
                )
                prev = list(cur)

    def test_point_on_cell_boundary(self):
        # x == k * radius exactly: the point sits on the seam between cells
        pts = np.array([[25.0, 0.0], [25.0 - 1e-9, 0.0], [-25.0, -25.0]])
        dense = unit_disk_adjacency_dense(pts, 25.0)
        assert dense == [0b010, 0b001, 0]
        assert unit_disk_adjacency_grid(pts, 25.0) == dense
        assert _csr_rows(pts, 25.0) == dense


# small regions force topology churn; mix fractional and full-set moves so
# both the dense/grid patch path and the rebuild fallback are exercised
move_counts = st.integers(1, 100)


@st.composite
def move_sequences(draw):
    n = draw(st.integers(1, 30))
    pts = draw(
        hnp.arrays(
            np.float64,
            (n, 2),
            elements=st.floats(0.0, 60.0, allow_nan=False),
        )
    )
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, n))
        ids = draw(
            st.lists(
                st.integers(0, n - 1), min_size=k, max_size=k, unique=True
            )
        )
        deltas = draw(
            hnp.arrays(
                np.float64,
                (k, 2),
                elements=st.floats(-20.0, 20.0, allow_nan=False),
            )
        )
        steps.append((ids, deltas))
    return pts, steps


class TestIncrementalAdjacency:
    @given(move_sequences())
    @settings(max_examples=150, deadline=None)
    def test_apply_moves_equals_full_rebuild(self, seq):
        pts, steps = seq
        net = AdHocNetwork(pts, 25.0, side=60.0)
        net.adjacency  # prime the cache so every step patches incrementally
        for ids, deltas in steps:
            net.positions[ids] += deltas
            net.apply_moves(ids)
            assert net.adjacency == unit_disk_adjacency(net.positions, 25.0)

    @given(move_sequences())
    @settings(max_examples=60, deadline=None)
    def test_apply_moves_reports_exact_changed_rows(self, seq):
        pts, steps = seq
        net = AdHocNetwork(pts, 25.0, side=60.0)
        prev = list(net.adjacency)
        for ids, deltas in steps:
            net.positions[ids] += deltas
            changed = net.apply_moves(ids)
            cur = net.adjacency
            expect = 0
            for v in range(net.n):
                if cur[v] != prev[v]:
                    expect |= 1 << v
            assert changed == expect
            prev = list(cur)


class TestDeltaPipelineEquivalence:
    @given(move_sequences(), st.sampled_from(sorted(SCHEMES)))
    @settings(max_examples=60, deadline=None)
    def test_masks_and_stats_match_scratch(self, seq, scheme_name):
        pts, steps = seq
        net = AdHocNetwork(pts, 25.0, side=60.0)
        net.adjacency
        n = net.n
        scheme = SCHEMES[scheme_name]
        pipe = DeltaCDSPipeline(scheme)
        energy = np.linspace(30.0, 100.0, n)
        for step_no, (ids, deltas) in enumerate([([], None)] + steps):
            if step_no:
                net.positions[ids] += deltas
                net.apply_moves(ids)
            e = energy if scheme.needs_energy else None
            got = pipe.compute(net, energy=e)
            want = compute_cds(net.snapshot(), scheme, energy=e)
            assert got.gateway_mask == want.gateway_mask
            assert got.stats == want.stats
            # drain so EL keys actually change between steps
            energy -= np.where(
                np.arange(n) % 3 == step_no % 3, 2.0, 0.5
            )

    @given(move_sequences())
    @settings(max_examples=30, deadline=None)
    def test_fixed_point_mode_matches_scratch(self, seq):
        pts, steps = seq
        net = AdHocNetwork(pts, 25.0, side=60.0)
        net.adjacency
        pipe = DeltaCDSPipeline("nd", fixed_point=True)
        for step_no, (ids, deltas) in enumerate([([], None)] + steps):
            if step_no:
                net.positions[ids] += deltas
                net.apply_moves(ids)
            got = pipe.compute(net)
            want = compute_cds(net.snapshot(), "nd", fixed_point=True)
            assert got.gateway_mask == want.gateway_mask
