"""Lifespan simulator and single-interval tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.priority import scheme_by_name
from repro.energy.accounting import EnergyAccountant
from repro.energy.battery import BatteryBank
from repro.energy.models import FixedDrain
from repro.errors import ConfigurationError, SimulationError
from repro.graphs.generators import random_connected_network
from repro.simulation.config import SimulationConfig
from repro.simulation.interval import run_interval
from repro.simulation.lifespan import LifespanSimulator
from repro.simulation.rng import generator_for_trial


class TestRunInterval:
    def test_interval_computes_cds_and_drains(self, rng):
        net = random_connected_network(15, rng=rng)
        bank = BatteryBank(15, initial=50.0)
        acct = EnergyAccountant(bank, FixedDrain(d=2.0))
        out = run_interval(
            net, scheme_by_name("id"), acct, None, interval_index=1
        )
        assert out.cds.size >= 1
        assert not out.someone_died
        assert out.metrics.cds_size == out.cds.size
        assert bank.total() < 50.0 * 15

    def test_death_stops_movement(self, rng):
        net = random_connected_network(8, rng=rng)
        before = net.positions.copy()
        bank = BatteryBank(8, initial=0.5)  # dies on the first drain
        acct = EnergyAccountant(bank, FixedDrain(d=2.0))
        from repro.geometry.space import Region2D
        from repro.mobility.manager import MobilityManager
        from repro.mobility.paper_walk import PaperWalk

        mgr = MobilityManager(net, PaperWalk(stability=0.0), Region2D(), rng=rng)
        out = run_interval(
            net, scheme_by_name("id"), acct, mgr, interval_index=1
        )
        assert out.someone_died
        np.testing.assert_array_equal(net.positions, before)

    def test_el_scheme_reads_live_battery(self, rng):
        net = random_connected_network(12, rng=rng)
        bank = BatteryBank(12, initial=30.0)
        acct = EnergyAccountant(bank, FixedDrain(d=3.0))
        out1 = run_interval(
            net, scheme_by_name("el1"), acct, None, interval_index=1
        )
        # second interval sees diverged energies; must still run cleanly
        out2 = run_interval(
            net, scheme_by_name("el1"), acct, None, interval_index=2
        )
        assert out2.metrics.interval == 2
        assert out1.cds.size >= 1 and out2.cds.size >= 1


class TestLifespanSimulator:
    def test_runs_to_first_death(self):
        cfg = SimulationConfig(n_hosts=12, scheme="id", drain_model="linear")
        result = LifespanSimulator(cfg, rng=3).run()
        assert result.lifespan >= 1
        assert result.metrics.first_dead_host is not None

    def test_seed_reproducibility(self):
        cfg = SimulationConfig(n_hosts=10, scheme="nd", drain_model="linear")
        a = LifespanSimulator(cfg, rng=11).run()
        b = LifespanSimulator(cfg, rng=11).run()
        assert a.lifespan == b.lifespan
        assert a.metrics.mean_cds_size == b.metrics.mean_cds_size

    def test_keep_intervals_records_every_step(self):
        cfg = SimulationConfig(n_hosts=8, scheme="id", drain_model="linear")
        result = LifespanSimulator(cfg, rng=5).run(keep_intervals=True)
        assert len(result.metrics.intervals) == result.lifespan
        assert [m.interval for m in result.metrics.intervals] == list(
            range(1, result.lifespan + 1)
        )

    def test_intervals_dropped_by_default(self):
        cfg = SimulationConfig(n_hosts=8, scheme="id", drain_model="linear")
        result = LifespanSimulator(cfg, rng=5).run()
        assert result.metrics.intervals == ()

    def test_max_intervals_guard(self):
        cfg = SimulationConfig(
            n_hosts=6,
            scheme="id",
            drain_model="constant",
            non_gateway_drain=0.0,  # nobody can ever die of d' drain
            max_intervals=20,
        )
        sim = LifespanSimulator(cfg, rng=1)
        # constant model d = 2/|G'| < 1 keeps gateways alive a long time;
        # with d' = 0 the guard must fire
        with pytest.raises(SimulationError, match="max_intervals"):
            sim.run()

    def test_all_schemes_complete(self):
        for scheme in ("nr", "id", "nd", "el1", "el2"):
            cfg = SimulationConfig(
                n_hosts=10, scheme=scheme, drain_model="quadratic"
            )
            result = LifespanSimulator(cfg, rng=2).run()
            assert result.lifespan >= 1

    def test_lifespan_at_least_100_under_constant_model(self):
        """With d = 2/|G'| < d' = 1 (for |G'| > 2), every host drains at
        most 1 per interval, so the first death cannot land before
        interval 100; gateway stints only delay it."""
        cfg = SimulationConfig(n_hosts=20, scheme="id", drain_model="constant")
        result = LifespanSimulator(cfg, rng=4).run()
        assert 100 <= result.lifespan <= 400


class TestHeterogeneousBatteries:
    def test_jitter_spreads_initial_levels(self):
        cfg = SimulationConfig(
            n_hosts=30, scheme="id", drain_model="fixed",
            initial_energy_jitter=0.3,
        )
        sim = LifespanSimulator(cfg, rng=1)
        levels = sim.bank.levels
        assert levels.min() >= 70.0 - 1e-9
        assert levels.max() <= 130.0 + 1e-9
        assert levels.std() > 1.0

    def test_zero_jitter_is_uniform(self):
        cfg = SimulationConfig(n_hosts=10, scheme="id", drain_model="fixed")
        sim = LifespanSimulator(cfg, rng=1)
        assert np.all(sim.bank.levels == 100.0)

    def test_bad_jitter_rejected(self):
        with pytest.raises(Exception):
            SimulationConfig(initial_energy_jitter=1.0)
        with pytest.raises(Exception):
            SimulationConfig(initial_energy_jitter=-0.1)

    def test_el_advantage_survives_heterogeneity(self):
        from repro.simulation.runner import run_trials

        means = {}
        for scheme in ("id", "el1"):
            cfg = SimulationConfig(
                n_hosts=30, scheme=scheme, drain_model="fixed",
                initial_energy_jitter=0.4,
            )
            ms = run_trials(cfg, 6, root_seed=55, parallel=False)
            means[scheme] = np.mean([m.lifespan for m in ms])
        assert means["el1"] > means["id"]


def _sparse_and_scalar(cfg: SimulationConfig, root_seed: int, trials: int):
    """Per-trial results of ``cfg`` on the sparse and the scalar backend."""

    def run(backend: str):
        c = cfg.with_overrides(backend=backend)
        return [
            LifespanSimulator(c, rng=generator_for_trial(root_seed, t)).run()
            for t in range(trials)
        ]

    return run("sparse"), run("scalar")


class TestBackendSwitch:
    def test_sparse_backend_bit_identical(self):
        cfg = SimulationConfig(n_hosts=30, scheme="el1", stability=0.7)
        sparse, scalar = _sparse_and_scalar(cfg, 8, 2)
        assert [r.metrics for r in sparse] == [r.metrics for r in scalar]

    def test_sparse_matches_scalar_with_staggered_deaths(self):
        # jittered batteries make the trials die at different intervals
        cfg = SimulationConfig(
            n_hosts=20, scheme="nd", initial_energy_jitter=0.5
        )
        sparse, scalar = _sparse_and_scalar(cfg, 9, 4)
        assert len({r.lifespan for r in scalar}) > 1
        assert [r.metrics for r in sparse] == [r.metrics for r in scalar]

    def test_sparse_shadow_check_passes_and_matches_scalar(self):
        cfg = SimulationConfig(n_hosts=15, scheme="nd", shadow_check=True)
        sparse, scalar = _sparse_and_scalar(cfg, 3, 2)
        assert all(r.lifespan > 0 for r in sparse)
        assert [r.metrics for r in sparse] == [r.metrics for r in scalar]

    def test_backend_validated(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(n_hosts=10, backend="simd")

    def test_backend_changes_fingerprint(self):
        # deliberate: checkpointed sweeps must not mix backends silently
        from repro.exec.shards import config_fingerprint

        base = SimulationConfig(n_hosts=10)
        sparse = base.with_overrides(backend="sparse")
        assert config_fingerprint(base) != config_fingerprint(sparse)
