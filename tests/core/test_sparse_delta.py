"""Unit tests for the incremental sparse pipeline (ISSUE 10).

The hypothesis equivalence grid lives in
``tests/property/test_sparse_delta_properties.py``; this file pins the
mechanics with deterministic cases: CSR patching equals a from-scratch
build, the short-circuit returns the cached result, component split/merge
churn stays bit-identical to the scalar oracle, cold restarts trigger on
shape changes, and the mobility manager's lazy path never materializes
the Python adjacency for position-native consumers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cds import compute_cds
from repro import obs
from repro.core.sparse import CSRBatch, SparseCDSEngine
from repro.core.sparse_delta import IncrementalSparseCDSPipeline, sub_csr
from repro.errors import ConfigurationError, InvariantViolation
from repro.geometry.space import Region2D
from repro.graphs.generators import random_connected_network
from repro.mobility.manager import MobilityManager
from repro.mobility.paper_walk import PaperWalk


def _assert_matches_scratch(net, result, scheme, energy):
    want = compute_cds(net.snapshot(), scheme, energy=energy)
    assert result.gateway_mask == want.gateway_mask
    assert result.stats == want.stats


class TestCSRPatching:
    def test_patched_csr_equals_full_rebuild(self, rng):
        net = random_connected_network(70, side=100.0, radius=25.0, rng=rng)
        pipe = IncrementalSparseCDSPipeline("id")
        pipe.compute(net)
        walk = PaperWalk(stability=0.4)
        region = Region2D(side=100.0)
        for _ in range(6):
            walk.step(net.positions, region, rng)
            net.invalidate()
            pipe.compute(net)
            want = CSRBatch.from_positions(net.positions, net.radius)
            got = pipe._csr
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.dst, want.dst)

    def test_sub_csr_restriction(self):
        # two triangles 0-1-2 and 3-4-5; restrict to the second
        adj = [0b110, 0b101, 0b011, 0, 0, 0]
        adj[3] |= (1 << 4) | (1 << 5)
        adj[4] |= (1 << 3) | (1 << 5)
        adj[5] |= (1 << 3) | (1 << 4)
        csr = CSRBatch.from_adjacency([adj])
        sub = sub_csr(csr, np.array([3, 4, 5], dtype=np.int64))
        want = CSRBatch.from_adjacency([[0b110, 0b101, 0b011]])
        assert np.array_equal(sub.indptr, want.indptr)
        assert np.array_equal(sub.dst, want.dst)


class TestShortCircuit:
    def test_incremental_returns_cached_result_object(self, rng):
        net = random_connected_network(40, side=100.0, radius=25.0, rng=rng)
        energy = [100.0] * 40
        pipe = IncrementalSparseCDSPipeline("el2")
        first = pipe.compute(net, energy=energy)
        again = pipe.compute(net, energy=list(energy))
        assert again is first  # nothing changed: cached object comes back

    def test_adjacency_input_short_circuits_too(self, rng):
        """Raw bitmask rows (the adjacency fallback mode) get the same
        fingerprint short-circuit as positions do."""
        net = random_connected_network(40, side=100.0, radius=25.0, rng=rng)
        adj = list(net.adjacency)
        energy = [100.0] * 40
        pipe = IncrementalSparseCDSPipeline("el2")
        first = pipe.compute(adj, energy=energy)
        again = pipe.compute(list(adj), energy=list(energy))
        assert again is first

    def test_quantum_sub_threshold_drain_still_short_circuits(self, rng):
        """Energy deltas below the scheme quantum cannot change any key,
        so the fingerprint (which quantizes) must not dirty anything."""
        net = random_connected_network(40, side=100.0, radius=25.0, rng=rng)
        energy = np.full(40, 100.0)
        pipe = IncrementalSparseCDSPipeline("el1")
        first = pipe.compute(net, energy=energy)
        again = pipe.compute(net, energy=energy + 1e-12)
        assert again is first

    def test_drain_recomputes_and_matches_scratch(self, rng):
        net = random_connected_network(50, side=100.0, radius=25.0, rng=rng)
        energy = np.full(50, 100.0)
        pipe = IncrementalSparseCDSPipeline("el2")
        for _ in range(8):
            res = pipe.compute(net, energy=list(energy))
            _assert_matches_scratch(net, res, "el2", list(energy))
            mask = res.gateway_mask
            for v in range(50):
                energy[v] -= 3.0 if (mask >> v) & 1 else 1.0


class TestChurnAndRestart:
    def test_split_then_merge_matches_scratch(self):
        rng = np.random.default_rng(5)
        net = random_connected_network(48, side=100.0, radius=25.0, rng=rng)
        pipe = IncrementalSparseCDSPipeline("nd", shadow_check=True)
        pipe.compute(net)
        home = net.positions[0].copy()
        # teleport host 0 far away: its component splits (or it isolates)
        net.move_host(0, (home + 400.0) % 100.0)
        res = pipe.compute(net)
        _assert_matches_scratch(net, res, "nd", None)
        # teleport it back: components merge again
        net.move_host(0, home)
        res = pipe.compute(net)
        _assert_matches_scratch(net, res, "nd", None)

    def test_cold_restart_on_host_count_change(self, rng):
        a = random_connected_network(30, side=100.0, radius=25.0, rng=rng)
        b = random_connected_network(31, side=100.0, radius=25.0, rng=rng)
        pipe = IncrementalSparseCDSPipeline("id")
        pipe.compute(a)
        res = pipe.compute(b)  # different n: must not try to patch
        _assert_matches_scratch(b, res, "id", None)

    def test_cold_restart_on_radius_change(self, rng):
        net = random_connected_network(30, side=100.0, radius=25.0, rng=rng)
        pipe = IncrementalSparseCDSPipeline("id")
        pipe.compute(net)
        shrunk = random_connected_network(
            30, side=100.0, radius=18.0, rng=rng
        )
        res = pipe.compute(shrunk)
        _assert_matches_scratch(shrunk, res, "id", None)

    def test_adjacency_fallback_mode(self, rng):
        """Raw bitmask-row inputs take the rebuild-CSR path but still
        reuse untouched components."""
        net = random_connected_network(40, side=100.0, radius=25.0, rng=rng)
        rows = [int(r) for r in net.adjacency]
        pipe = IncrementalSparseCDSPipeline("nr", shadow_check=True)
        res = pipe.compute(rows)
        want = compute_cds(rows, "nr")
        assert res.gateway_mask == want.gateway_mask
        assert res.stats == want.stats
        # drop one edge and recompute
        u = 0
        v = max(b for b in range(40) if (rows[u] >> b) & 1)
        rows2 = list(rows)
        rows2[u] = int(rows2[u]) & ~(1 << v)
        rows2[v] = int(rows2[v]) & ~(1 << u)
        res = pipe.compute(rows2)
        want = compute_cds(rows2, "nr")
        assert res.gateway_mask == want.gateway_mask
        assert res.stats == want.stats

    def test_empty_graph(self):
        pipe = IncrementalSparseCDSPipeline("id")
        res = pipe.compute([])
        assert res.gateway_mask == 0 and res.n == 0

    def test_energy_scheme_requires_energy(self, rng):
        net = random_connected_network(10, side=100.0, radius=40.0, rng=rng)
        pipe = IncrementalSparseCDSPipeline("el1")
        with pytest.raises(ConfigurationError, match="energy"):
            pipe.compute(net)


class TestEngineCounters:
    def test_scds_totals_match_engine_run(self):
        """``scds.marked/final/rounds`` on the incremental path equal what
        :meth:`SparseCDSEngine.run` reports on the same snapshot."""
        gen = np.random.default_rng(11)
        # a scattered field: several components, so some intervals reuse
        net = random_connected_network(60, side=100.0, radius=25.0, rng=gen)
        net.positions[:] = gen.random((60, 2)) * 160.0
        net.invalidate()
        energy = gen.uniform(50.0, 100.0, size=60)
        pipe = IncrementalSparseCDSPipeline("el2")
        engine = SparseCDSEngine("el2")
        walk = PaperWalk(stability=0.8)
        region = Region2D(side=160.0)
        keys = ("scds.marked", "scds.final", "scds.rounds")
        computed = 0
        for _ in range(12):
            with obs.capture() as got:
                pipe.compute(net, energy=energy)
            if got.counters.get("sdelta.short_circuit"):
                assert not any(k in got.counters for k in keys)
            else:
                computed += 1
                csr = CSRBatch.from_positions(net.positions, net.radius)
                with obs.capture() as want:
                    engine.run(csr, energy[None, :])
                for k in keys:
                    assert got.counters[k] == want.counters[k], k
            walk.step(net.positions, region, gen)
            net.invalidate()
            energy = energy - 0.5
        assert computed >= 2


class TestShadowCheckStats:
    def test_wrong_stats_with_right_mask_raise(self, rng, monkeypatch):
        net = random_connected_network(40, side=100.0, radius=25.0, rng=rng)
        pipe = IncrementalSparseCDSPipeline("nd", shadow_check=True)
        real = SparseCDSEngine.run_detailed

        def off_by_one(self, csr, energy=None):
            d = real(self, csr, energy)
            d.rem2_c[0] += 1  # right flags, wrong Rule-2 removal count
            return d

        monkeypatch.setattr(SparseCDSEngine, "run_detailed", off_by_one)
        with pytest.raises(InvariantViolation, match="diverged"):
            pipe.compute(net)


class TestLazyMobility:
    def test_accept_policy_skips_adjacency_build(self, rng):
        net = random_connected_network(30, side=100.0, radius=25.0, rng=rng)
        net.invalidate()
        assert not net.has_adjacency_cache
        mgr = MobilityManager(
            net, PaperWalk(stability=0.0), on_disconnect="accept", rng=rng
        )
        changed = mgr.step()
        assert changed  # stability 0: everyone moves
        # the lazy path must not have materialized the Python rows
        assert not net.has_adjacency_cache

    def test_retry_policy_still_builds_cache(self, rng):
        net = random_connected_network(30, side=100.0, radius=25.0, rng=rng)
        net.invalidate()
        mgr = MobilityManager(
            net, PaperWalk(stability=0.5), on_disconnect="retry", rng=rng
        )
        mgr.step()
        assert net.has_adjacency_cache  # connectivity checks need it
