"""TenantState: replay purity, adjacency maintenance, digests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.graphs import bitset
from repro.service.state import TenantState
from repro.service.updates import Drain, Join, Leave, Move, UpdateStream


def _fresh(n: int = 6, *, radius: float = 30.0) -> TenantState:
    st = TenantState(radius=radius, side=100.0)
    rng = np.random.default_rng(5)
    st.seed_population(rng.uniform(0, 100, size=(n, 2)))
    return st


class TestApply:
    def test_join_extends_population(self):
        st = _fresh(4)
        changed = st.apply(Join(4, 10.0, 10.0, energy=55.0))
        assert st.n == 5
        assert st.index_of(4) == 4
        assert st.energy[4] == 55.0
        assert changed == (1 << 5) - 1  # membership change = all rows
        assert st.seq == 1

    def test_join_of_member_raises(self):
        st = _fresh(4)
        with pytest.raises(TopologyError, match="existing node"):
            st.apply(Join(2, 0.0, 0.0))

    def test_leave_renumbers_dense_indices(self):
        st = _fresh(5)
        st.apply(Leave(1))
        assert st.n == 4
        assert st.ids == [0, 2, 3, 4]
        # dense indices shift down; external ids keep resolving
        assert st.index_of(2) == 1
        with pytest.raises(TopologyError, match="not a member"):
            st.index_of(1)

    def test_move_reports_flipped_rows(self):
        st = TenantState(radius=10.0, side=100.0)
        st.seed_population(np.array([[0.0, 0.0], [30.0, 0.0], [50.0, 0.0]]))
        # bring node 2 next to node 0 only: rows 0 and 2 gain an edge,
        # row 1 (30 away from both) is untouched
        changed = st.apply(Move(2, 8.0, 0.0))
        assert bitset.popcount(st.adjacency[2] & (1 << 0)) == 1
        assert changed == (1 << 0) | (1 << 2)

    def test_noop_move_reports_nothing(self):
        st = TenantState(radius=10.0, side=100.0)
        st.seed_population(np.array([[0.0, 0.0], [50.0, 0.0]]))
        assert st.apply(Move(0, 0.5, 0.0)) == 0  # no neighborhood change

    def test_drain_changes_energy_not_structure(self):
        st = _fresh(4)
        before = list(st.adjacency)
        assert st.apply(Drain(0, 2.5)) == 0
        assert st.energy[0] == 97.5
        assert list(st.adjacency) == before

    def test_moving_a_ghost_raises(self):
        st = _fresh(3)
        with pytest.raises(TopologyError, match="not a member"):
            st.apply(Move(99, 1.0, 1.0))


class TestReplayPurity:
    def test_same_prefix_same_digest(self):
        updates = UpdateStream(seed=3, n_initial=8).take(60)
        a, b = _fresh(8), _fresh(8)
        for upd in updates:
            a.apply(upd)
            b.apply(upd)
        assert a.digest() == b.digest()
        assert a.seq == b.seq == 60

    def test_digest_distinguishes_prefixes(self):
        updates = UpdateStream(seed=3, n_initial=8).take(10)
        a, b = _fresh(8), _fresh(8)
        for upd in updates:
            a.apply(upd)
        for upd in updates[:-1]:
            b.apply(upd)
        assert a.digest() != b.digest()

    def test_snapshot_round_trip_is_bit_identical(self):
        st = _fresh(8)
        for upd in UpdateStream(seed=9, n_initial=8).take(30):
            st.apply(upd)
        back = TenantState.from_dict(st.to_dict())
        assert back.digest() == st.digest()
        assert back.adjacency == st.adjacency
        # and the restored state keeps evolving identically
        more = UpdateStream(seed=9, n_initial=8)
        more.skip(30)
        for upd in more.take(10):
            st.apply(upd)
            back.apply(upd)
        assert back.digest() == st.digest()


class TestValidation:
    def test_bad_radius_rejected(self):
        with pytest.raises(ConfigurationError, match="radius"):
            TenantState(radius=0.0)

    def test_double_seed_rejected(self):
        st = _fresh(3)
        with pytest.raises(ConfigurationError, match="already seeded"):
            st.seed_population(np.zeros((2, 2)))


class TestNonFiniteRejected:
    """A NaN or infinite number in an update is rejected before any state
    changes: the tenant keeps serving, and the node can still join."""

    @pytest.mark.parametrize(
        "update, error",
        [
            (Join(6, float("nan"), 10.0), TopologyError),
            (Join(6, 10.0, float("inf")), TopologyError),
            (Join(6, 10.0, 10.0, energy=float("nan")), ConfigurationError),
            (Join(6, 10.0, 10.0, energy=float("inf")), ConfigurationError),
            (Move(2, float("inf"), 10.0), TopologyError),
            (Move(2, 10.0, float("-inf")), TopologyError),
            (Move(2, float("nan"), float("nan")), TopologyError),
            (Drain(2, float("nan")), ConfigurationError),
            (Drain(2, float("-inf")), ConfigurationError),
        ],
        ids=[
            "join-nan-x", "join-inf-y", "join-nan-energy", "join-inf-energy",
            "move-inf-x", "move-neg-inf-y", "move-nan", "drain-nan",
            "drain-neg-inf",
        ],
    )
    def test_rejected_update_leaves_state_unchanged(self, update, error):
        st = _fresh(6)
        before = (st.n, list(st.ids), list(st.adjacency), st.seq, st.digest())
        with pytest.raises(error, match="non-finite"):
            st.apply(update)
        after = (st.n, list(st.ids), list(st.adjacency), st.seq, st.digest())
        assert after == before

    def test_tenant_keeps_working_after_a_rejection(self):
        st = _fresh(6)
        with pytest.raises(TopologyError):
            st.apply(Join(6, float("nan"), 10.0))
        with pytest.raises(TopologyError):
            st.apply(Move(2, float("inf"), 10.0))
        st.apply(Join(6, 10.0, 10.0))
        st.apply(Leave(0))
        assert st.ids == [1, 2, 3, 4, 5, 6]
        ref = _fresh(6)
        ref.apply(Join(6, 10.0, 10.0))
        ref.apply(Leave(0))
        assert st.digest() == ref.digest()
