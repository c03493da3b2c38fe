"""Traffic-driven and churn lifespan simulator tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cds import compute_cds
from repro.core.registry import ALGORITHMS
from repro.energy.traffic_model import TrafficEnergyModel
from repro.errors import SimulationError
from repro.mobility.churn import ChurnModel
from repro.simulation.config import SimulationConfig
from repro.simulation.churn_lifespan import ChurnLifespanSimulator
from repro.simulation.traffic_lifespan import TrafficLifespanSimulator


class TestTrafficLifespan:
    def test_runs_to_first_death(self):
        cfg = SimulationConfig(n_hosts=15, scheme="id", drain_model="fixed")
        result = TrafficLifespanSimulator(cfg, rng=3).run()
        assert result.lifespan >= 1
        assert result.first_dead_host is not None
        assert result.packets_routed > 0
        assert result.mean_gateway_share == pytest.approx(1.0)

    def test_reproducible(self):
        cfg = SimulationConfig(n_hosts=12, scheme="el1", drain_model="fixed")
        a = TrafficLifespanSimulator(cfg, rng=8).run()
        b = TrafficLifespanSimulator(cfg, rng=8).run()
        assert a.lifespan == b.lifespan

    def test_keep_records(self):
        cfg = SimulationConfig(n_hosts=10, scheme="id", drain_model="fixed")
        result = TrafficLifespanSimulator(cfg, rng=1).run(keep_records=True)
        assert len(result.records) == result.lifespan

    def test_zero_cost_guard(self):
        cfg = SimulationConfig(
            n_hosts=8, scheme="id", drain_model="fixed", max_intervals=15
        )
        traffic = TrafficEnergyModel(
            tx_cost=0.0, rx_cost=0.0, idle_cost=0.0, packets_per_interval=1
        )
        with pytest.raises(SimulationError, match="max_intervals"):
            TrafficLifespanSimulator(cfg, traffic, rng=1).run()

    def test_algorithm_selects_the_backbone(self):
        # one interval (every radio cost kills): the backbone that carried
        # the traffic is config.algorithm's, not the marking process's
        cfg = SimulationConfig(
            n_hosts=30, scheme="el2", drain_model="fixed",
            algorithm="mis_cds",
        )
        sim = TrafficLifespanSimulator(
            cfg, TrafficEnergyModel(tx_cost=1e6, rx_cost=1e6), rng=4
        )
        levels = sim.bank.levels.copy()
        want = ALGORITHMS["mis_cds"].compute(sim.network, "el2", levels)
        marking = compute_cds(sim.network, "el2", energy=levels)
        assert want.size != marking.size
        result = sim.run()
        assert result.lifespan == 1
        assert result.mean_cds_size == want.size

    def test_el_rotation_extends_life(self):
        """The paper's headline conclusion, validated under real routed
        traffic instead of the abstract drain constants."""
        lifespans = {}
        for scheme in ("id", "el1"):
            cfg = SimulationConfig(
                n_hosts=25, scheme=scheme, drain_model="fixed"
            )
            runs = [
                TrafficLifespanSimulator(
                    cfg, rng=np.random.default_rng(1000 + t)
                ).run().lifespan
                for t in range(6)
            ]
            lifespans[scheme] = float(np.mean(runs))
        assert lifespans["el1"] > lifespans["id"] * 0.98


class TestChurnLifespan:
    def test_runs_to_first_death(self):
        cfg = SimulationConfig(n_hosts=15, scheme="id", drain_model="fixed")
        result = ChurnLifespanSimulator(cfg, ChurnModel(0.1, 0.5), rng=2).run()
        assert result.lifespan >= 1
        assert 0 < result.mean_active_hosts <= 15
        assert result.mean_components >= 1.0

    def test_no_churn_behaves_like_connected_runs(self):
        cfg = SimulationConfig(n_hosts=12, scheme="id", drain_model="fixed")
        result = ChurnLifespanSimulator(
            cfg, ChurnModel(0.0, 0.0), rng=4
        ).run()
        assert result.mean_active_hosts == 12.0

    def test_switching_off_saves_energy(self):
        """Hosts that sleep part-time outlive an always-on population."""
        cfg = SimulationConfig(n_hosts=20, scheme="id", drain_model="fixed")
        always_on = np.mean([
            ChurnLifespanSimulator(
                cfg, ChurnModel(0.0, 0.0), rng=np.random.default_rng(t)
            ).run().lifespan
            for t in range(4)
        ])
        sleepy = np.mean([
            ChurnLifespanSimulator(
                cfg, ChurnModel(0.3, 0.3), rng=np.random.default_rng(t)
            ).run().lifespan
            for t in range(4)
        ])
        assert sleepy > always_on

    def test_heavy_churn_fragments_network(self):
        cfg = SimulationConfig(n_hosts=20, scheme="id", drain_model="fixed")
        result = ChurnLifespanSimulator(
            cfg, ChurnModel(0.4, 0.3), rng=6
        ).run()
        assert result.mean_components > 1.0

    def test_reproducible(self):
        cfg = SimulationConfig(n_hosts=10, scheme="el2", drain_model="fixed")
        a = ChurnLifespanSimulator(cfg, ChurnModel(0.2, 0.5), rng=9).run()
        b = ChurnLifespanSimulator(cfg, ChurnModel(0.2, 0.5), rng=9).run()
        assert a.lifespan == b.lifespan


class TestDirectedLifespan:
    def test_runs_to_first_death(self):
        from repro.simulation.directed_lifespan import DirectedLifespanSimulator

        cfg = SimulationConfig(n_hosts=15, scheme="id", drain_model="fixed")
        r = DirectedLifespanSimulator(cfg, rng=3).run()
        assert r.lifespan >= 1
        assert r.first_dead_host is not None
        assert 0.0 <= r.one_way_arc_fraction < 1.0
        assert r.mean_cds_size >= 1.0

    def test_reproducible(self):
        from repro.simulation.directed_lifespan import DirectedLifespanSimulator

        cfg = SimulationConfig(n_hosts=12, scheme="el1", drain_model="fixed")
        a = DirectedLifespanSimulator(cfg, rng=6).run()
        b = DirectedLifespanSimulator(cfg, rng=6).run()
        assert a.lifespan == b.lifespan

    def test_zero_spread_has_no_one_way_arcs(self):
        from repro.simulation.directed_lifespan import DirectedLifespanSimulator

        cfg = SimulationConfig(n_hosts=12, scheme="id", drain_model="fixed")
        r = DirectedLifespanSimulator(cfg, range_spread=0.0, rng=2).run()
        assert r.one_way_arc_fraction == 0.0

    def test_rotation_never_hurts(self):
        from repro.simulation.directed_lifespan import DirectedLifespanSimulator

        means = {}
        for scheme in ("id", "el1"):
            cfg = SimulationConfig(n_hosts=20, scheme=scheme, drain_model="fixed")
            runs = [
                DirectedLifespanSimulator(
                    cfg, rng=np.random.default_rng(300 + t)
                ).run().lifespan
                for t in range(4)
            ]
            means[scheme] = np.mean(runs)
        assert means["el1"] >= means["id"]
