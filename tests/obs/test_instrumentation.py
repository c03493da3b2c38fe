"""Integration: the instrumented layers publish coherent spans/counters.

These tests run real pipeline/protocol/simulation code under
``obs.capture()`` and check that the numbers the registry reports agree
with what the instrumented code returned — the counters must be *true*,
not merely present.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.cds import compute_cds
from repro.core.pipeline import make_pipeline
from repro.graphs.generators import random_connected_network
from repro.protocol.async_sim import run_async_cds
from repro.protocol.distributed_cds import distributed_cds
from repro.simulation.config import SimulationConfig
from repro.simulation.lifespan import LifespanSimulator


@pytest.fixture(autouse=True)
def _clean_state():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def net():
    return random_connected_network(30, rng=17)


class TestPipelineCounters:
    def test_compute_cds_span_tree_and_counters(self, net):
        energy = np.linspace(1.0, 100.0, net.n)
        with obs.capture() as reg:
            result = compute_cds(net, "el2", energy=energy, verify=True)
        spans = reg.spans
        for path in ("cds", "cds/marking", "cds/rule1", "cds/rule2",
                     "cds/verify"):
            assert path in spans, f"missing span {path}"
        c = reg.counters
        assert c["marking.nodes_evaluated"] == net.n
        assert c["cds.size"] == result.size
        assert c["rule1.removed"] == result.stats.removed_rule1
        assert c["rule2.removed"] == result.stats.removed_rule2
        assert c["rule2.nodes_evaluated"] == (
            c["marking.marked"] - c["rule1.removed"]
        )
        # every candidate pair costs one primary coverage subset test
        assert c["rule2.coverage_tests"] >= c["rule2.firing_pairs"]
        if c["rule2.removed"]:
            assert c["rule2.candidate_rounds"] >= 1

    def test_nothing_recorded_when_disabled(self, net):
        energy = np.linspace(1.0, 100.0, net.n)
        obs.reset()
        compute_cds(net, "el2", energy=energy)
        reg = obs.get_registry()
        assert reg.counters == {} and reg.spans == {}

    def test_counters_scale_with_repetition(self, net):
        energy = np.linspace(1.0, 100.0, net.n)
        with obs.capture() as reg:
            compute_cds(net, "nd")
            compute_cds(net, "el1", energy=energy)
        assert reg.counters["cds.computed"] == 2
        assert reg.counters["marking.nodes_evaluated"] == 2 * net.n
        assert reg.spans["cds"].count == 2


class TestCanonicalPhaseSpans:
    """Every backend opens the same ``marking``/``rule1``/``rule2`` spans."""

    PHASES = {"marking", "rule1", "rule2"}

    def test_same_phase_spans_on_scalar_delta_and_sparse(self):
        net = random_connected_network(60, rng=23)
        energy = np.random.default_rng(23).uniform(50.0, 150.0, net.n)
        delta = make_pipeline("wu_li", "delta", "el2")
        sparse = make_pipeline("wu_li", "sparse", "el2")
        # components at or below the dense cutoff run in one dense call;
        # a cutoff of 2 sends this one through the CSR kernels
        sparse.engine.dense_cutoff = 2
        runs = {
            "scalar": lambda: compute_cds(net, "el2", energy=energy),
            "delta": lambda: delta.compute(net, energy),
            "sparse": lambda: sparse.compute(net, energy=energy),
        }
        results = {}
        for name, run in runs.items():
            with obs.capture() as reg:
                results[name] = run()
            names = {path.rsplit("/", 1)[-1] for path in reg.spans}
            assert names & self.PHASES == self.PHASES, name
        for phase in self.PHASES:
            assert f"cds/cds_sparse/{phase}" in reg.spans
        want = results["scalar"]
        for name, got in results.items():
            assert got.gateway_mask == want.gateway_mask, name
            assert got.stats == want.stats, name


class TestProtocolCounters:
    def test_sync_engine_matches_traffic_stats(self, net):
        with obs.capture() as reg:
            out = distributed_cds(net, "nd")
        c = reg.counters
        assert c["protocol.rounds"] == out.stats.rounds
        assert c["protocol.broadcasts"] == out.stats.broadcasts
        assert c["protocol.deliveries"] == out.stats.deliveries
        assert c["protocol.bytes_on_air"] == out.stats.bytes_on_air
        assert "protocol.retransmissions" not in c  # perfect channel

    def test_async_engine_matches_outcome(self, net):
        with obs.capture() as reg:
            out = run_async_cds(net, "nd", rng=3)
        c = reg.counters
        assert c["async.runs"] == 1
        assert c["async.messages_sent"] == out.messages_sent
        assert c["async.rule2_waves"] == out.rule2_waves
        assert reg.spans["async_cds"].count == 1

    def test_sync_async_agree_and_both_are_observable(self, net):
        with obs.capture() as reg:
            sync = distributed_cds(net, "nd")
            async_out = run_async_cds(net, "nd", rng=5)
        assert sync.gateways == async_out.gateways
        assert reg.counters["protocol.rounds"] > 0
        assert reg.counters["async.messages_sent"] > 0


class TestSimulationCounters:
    def test_lifespan_trial_spans_and_recompute_metrics(self):
        cfg = SimulationConfig(
            n_hosts=12, scheme="el1", drain_model="fixed", initial_energy=10.0
        )
        with obs.capture() as reg:
            result = LifespanSimulator(cfg, rng=5).run()
        c = reg.counters
        assert c["lifespan.trials"] == 1
        assert c["lifespan.intervals"] == result.lifespan
        assert c["interval.count"] == result.lifespan
        assert reg.spans["trial"].count == 1
        assert reg.spans["trial/interval"].count == result.lifespan
        assert "trial/interval/cds" in reg.spans
        assert "trial/interval/drain" in reg.spans
        # recompute-stability: changes can't exceed recomputations
        assert c.get("lifespan.cds_changed", 0) <= result.lifespan - 1
        assert c.get("interval.topology_changed", 0) <= result.lifespan
