"""Property-based tests for geometry and UDG construction."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.geometry.space import BoundaryPolicy, Region2D
from repro.graphs.neighborhoods import validate_adjacency
from repro.graphs.unitdisk import (
    unit_disk_adjacency_dense,
    unit_disk_adjacency_grid,
)


@st.composite
def positions(draw):
    """Up to 40 points plus up to 5 exact copies of drawn rows."""
    pos = draw(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 40), st.just(2)),
            elements=st.floats(0.0, 100.0, allow_nan=False),
        )
    )
    if len(pos):
        dup = draw(st.lists(st.integers(0, len(pos) - 1), max_size=5))
        pos = np.concatenate([pos, pos[dup]])
    return pos


# radius 0 keeps exactly the coincident pairs (d <= r is inclusive)
radii = st.one_of(st.just(0.0), st.floats(0.1, 60.0, allow_nan=False))


class TestUnitDisk:
    @given(positions(), radii)
    @settings(max_examples=100, deadline=None)
    def test_dense_equals_grid(self, pos, radius):
        assert unit_disk_adjacency_dense(pos, radius) == \
            unit_disk_adjacency_grid(pos, radius)

    @given(positions(), radii)
    @settings(max_examples=100, deadline=None)
    def test_output_is_valid_adjacency(self, pos, radius):
        validate_adjacency(unit_disk_adjacency_dense(pos, radius))

    @given(positions(), radii, radii)
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_radius(self, pos, r1, r2):
        small, big = sorted([r1, r2])
        a_small = unit_disk_adjacency_dense(pos, small)
        a_big = unit_disk_adjacency_dense(pos, big)
        for ms, mb in zip(a_small, a_big):
            assert ms & mb == ms  # edges only ever get added


policies = st.sampled_from(list(BoundaryPolicy))


class TestBoundary:
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 30), st.just(2)),
            elements=st.floats(-500.0, 500.0, allow_nan=False),
        ),
        policies,
    )
    @settings(max_examples=120, deadline=None)
    def test_every_policy_lands_inside(self, pos, policy):
        region = Region2D(side=100.0, policy=policy)
        region.apply_boundary(pos)
        assert np.all(region.contains(pos))

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 30), st.just(2)),
            elements=st.floats(0.0, 100.0, allow_nan=False),
        ),
        policies,
    )
    @settings(max_examples=60, deadline=None)
    def test_interior_points_are_fixed_points(self, pos, policy):
        region = Region2D(side=100.0, policy=policy)
        before = pos.copy()
        region.apply_boundary(pos)
        if policy is BoundaryPolicy.TORUS:
            # 100.0 wraps to 0.0 under mod; ignore exact-boundary inputs
            interior = np.all(before < 100.0, axis=1)
            np.testing.assert_allclose(pos[interior], before[interior])
        else:
            np.testing.assert_allclose(pos, before)

    @given(st.floats(-1000, 1000, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_torus_distance_symmetric_and_bounded(self, x):
        region = Region2D(side=100.0, policy=BoundaryPolicy.TORUS)
        a = np.array([x % 100.0, 0.0])
        b = np.array([0.0, 0.0])
        d1 = region.distances(a, b)
        d2 = region.distances(b, a)
        assert d1 == d2
        assert d1 <= 50.0 * np.sqrt(2) + 1e-9
