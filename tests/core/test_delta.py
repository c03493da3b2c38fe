"""Unit tests for the incremental delta-CDS pipeline (repro.core.delta).

The equivalence *properties* (delta == scratch over random move
sequences) live in ``tests/property/test_incremental_properties.py``;
this file covers the machinery: cold starts, short-circuiting, cache
invalidation, reset, shadow checking, and input validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.cds import compute_cds
from repro.core.delta import CachedRuleEngine, DeltaCDSPipeline
from repro.errors import ConfigurationError, InvariantViolation
from repro.graphs.adhoc import AdHocNetwork
from repro.graphs.generators import random_connected_network


@pytest.fixture()
def net():
    return random_connected_network(30, rng=42)


class TestShortCircuit:
    def test_unchanged_interval_returns_previous_result(self, net):
        pipe = DeltaCDSPipeline("nd")
        first = pipe.compute(net)
        second = pipe.compute(net)
        assert second is first  # not merely equal: no stage re-ran

    def test_short_circuit_counter(self, net):
        pipe = DeltaCDSPipeline("nd")
        with obs.capture() as reg:
            pipe.compute(net)
            pipe.compute(net)
            pipe.compute(net)
        assert reg.counters["delta.intervals"] == 3
        assert reg.counters["delta.short_circuit"] == 2

    def test_sub_quantum_energy_change_short_circuits(self, net):
        # el1 quantizes energy; a change far below the quantum leaves the
        # key vector bit-identical, so the whole interval short-circuits
        pipe = DeltaCDSPipeline("el1")
        energy = np.full(net.n, 50.0)
        first = pipe.compute(net, energy=energy)
        second = pipe.compute(net, energy=energy + 1e-13)
        assert second is first

    def test_key_change_recomputes(self, net):
        pipe = DeltaCDSPipeline("el1")
        energy = np.linspace(10.0, 90.0, net.n)
        first = pipe.compute(net, energy=energy)
        flipped = pipe.compute(net, energy=energy[::-1].copy())
        assert flipped is not first
        want = compute_cds(net.snapshot(), "el1", energy=energy[::-1])
        assert flipped.gateway_mask == want.gateway_mask

    def test_topology_change_recomputes(self, net):
        pipe = DeltaCDSPipeline("nd")
        first = pipe.compute(net)
        net.positions[0] += 40.0
        net.apply_moves([0])
        second = pipe.compute(net)
        assert second is not first
        want = compute_cds(net.snapshot(), "nd")
        assert second.gateway_mask == want.gateway_mask


class TestLifecycle:
    def test_reset_forces_cold_start(self, net):
        pipe = DeltaCDSPipeline("nd")
        first = pipe.compute(net)
        pipe.reset()
        with obs.capture() as reg:
            again = pipe.compute(net)
        assert again is not first
        assert again.gateway_mask == first.gateway_mask
        # a cold start diffs nothing: every row counts as changed
        assert reg.counters["delta.changed_rows"] == net.n

    def test_size_change_forces_cold_start(self, net):
        pipe = DeltaCDSPipeline("nd")
        pipe.compute(net)
        smaller = random_connected_network(12, rng=7)
        got = pipe.compute(smaller)
        want = compute_cds(smaller.snapshot(), "nd")
        assert got.gateway_mask == want.gateway_mask

    def test_accepts_raw_adjacency_list(self, net):
        pipe = DeltaCDSPipeline("nd")
        got = pipe.compute(list(net.adjacency))
        want = compute_cds(net.snapshot(), "nd")
        assert got.gateway_mask == want.gateway_mask

    def test_single_host(self):
        single = AdHocNetwork(np.zeros((1, 2)), 25.0)
        pipe = DeltaCDSPipeline("nd")
        assert pipe.compute(single).gateway_mask == 0


class TestValidation:
    def test_energy_scheme_requires_energy(self, net):
        pipe = DeltaCDSPipeline("el2")
        with pytest.raises(ConfigurationError, match="energy"):
            pipe.compute(net)

    def test_energy_length_mismatch(self, net):
        pipe = DeltaCDSPipeline("el2")
        with pytest.raises(ConfigurationError, match="entries"):
            pipe.compute(net, energy=np.ones(net.n + 1))

    def test_verify_mode_accepts_valid_results(self, net):
        pipe = DeltaCDSPipeline("nd", verify=True)
        net.positions[3] += 10.0
        net.apply_moves([3])
        assert pipe.compute(net).size >= 1


class TestShadowCheck:
    def test_shadow_check_passes_silently(self, net):
        pipe = DeltaCDSPipeline("nd", shadow_check=True)
        with obs.capture() as reg:
            pipe.compute(net)
            net.positions[5] += 15.0
            net.apply_moves([5])
            pipe.compute(net)
        assert reg.counters["cds.shadow_checks"] == 2

    def test_shadow_check_raises_on_divergence(self, net, monkeypatch):
        pipe = DeltaCDSPipeline("nd", shadow_check=True)
        reference = pipe.compute(net)  # first call: genuine agreement

        import repro.core.cds as cds_mod

        def corrupted(adj, scheme, **kwargs):
            out = compute_cds(adj, scheme, **kwargs)
            object.__setattr__(
                out, "gateway_mask", out.gateway_mask ^ 1
            )
            return out

        monkeypatch.setattr(cds_mod, "compute_cds", corrupted)
        net.positions[5] += 15.0
        net.apply_moves([5])
        with pytest.raises(InvariantViolation, match="diverged"):
            pipe.compute(net)
        assert reference.gateway_mask  # untouched by the failed interval

    def test_wrong_stats_with_right_mask_raise(self, net, monkeypatch):
        from dataclasses import replace

        from repro.core.delta import CachedRuleEngine

        pipe = DeltaCDSPipeline("nd", shadow_check=True)
        real = CachedRuleEngine.run

        def off_by_one(self, marked, **kwargs):
            final, stats = real(self, marked, **kwargs)
            # right mask, wrong Rule-2 removal count
            return final, replace(stats, removed_rule2=stats.removed_rule2 + 1)

        monkeypatch.setattr(CachedRuleEngine, "run", off_by_one)
        with pytest.raises(InvariantViolation, match="diverged"):
            pipe.compute(net)


class TestCachedRuleEngine:
    def test_run_matches_scratch_prune(self, net):
        from repro.core.marking import marked_mask
        from repro.core.priority import scheme_by_name

        adj = list(net.adjacency)
        energy = np.linspace(5.0, 95.0, net.n)
        for name in ("nr", "id", "nd", "el1", "el2"):
            scheme = scheme_by_name(name)
            engine = CachedRuleEngine(scheme)
            e = energy if scheme.needs_energy else None
            engine.update(adj, (1 << net.n) - 1, e)
            marked = marked_mask(adj)
            final, stats = engine.run(marked)
            want = compute_cds(adj, scheme, energy=e)
            assert final == want.gateway_mask
            assert stats == want.stats

    def test_patch_only_touches_changed_rows(self, net):
        from repro.core.priority import scheme_by_name

        scheme_adj = list(net.adjacency)
        engine = CachedRuleEngine(scheme_by_name("nd"))
        engine.update(scheme_adj, (1 << net.n) - 1, None)
        # flip one edge symmetrically and patch just those two rows
        u, v = 0, next(iter(range(1, net.n)))
        scheme_adj[u] ^= 1 << v
        scheme_adj[v] ^= 1 << u
        engine.update(scheme_adj, (1 << u) | (1 << v), None)
        assert engine.adjacency == scheme_adj


class TestWordBoundarySizes:
    """Tail-word regression (ISSUE 7): the packed uint64 paths must be
    exact when n is not a multiple of 64 — stray bits in the last word
    would corrupt coverage verdicts and firing tables."""

    @pytest.mark.parametrize("n", [63, 64, 65, 127])
    def test_delta_pipeline_matches_scratch_across_moves(self, n):
        import math

        rng = np.random.default_rng(n)
        side = 100.0 * math.sqrt(n / 100)
        net = AdHocNetwork(
            rng.uniform(0.0, side, size=(n, 2)), 25.0, side=side
        )
        net.adjacency
        pipe = DeltaCDSPipeline("nd")
        for _ in range(4):
            got = pipe.compute(net)
            want = compute_cds(net.snapshot(), "nd")
            assert got.gateway_mask == want.gateway_mask
            assert got.stats == want.stats
            ids = rng.choice(n, size=max(1, n // 8), replace=False)
            net.positions[ids] += rng.uniform(-8.0, 8.0, size=(len(ids), 2))
            net.positions[:] = np.clip(net.positions, 0.0, side)
            net.apply_moves(list(ids))

    @pytest.mark.parametrize("n", [63, 64, 65, 127])
    def test_changed_row_detection_at_boundary(self, n):
        # the object-array row compare must see a single flipped edge on
        # the highest row (the one living in the tail word)
        adj = [0] * n
        for i in range(n - 1):
            adj[i] |= 1 << (i + 1)
            adj[i + 1] |= 1 << i
        pipe = DeltaCDSPipeline("id")
        pipe.compute(adj)
        adj2 = list(adj)
        adj2[n - 1] ^= 1 << 0
        adj2[0] ^= 1 << (n - 1)
        got = pipe.compute(adj2)
        want = compute_cds(adj2, "id")
        assert got.gateway_mask == want.gateway_mask
        assert got.stats == want.stats
