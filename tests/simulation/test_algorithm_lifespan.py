"""Lifespan campaigns driven by non-default registry algorithms.

The whole point of the registry refactor: ``SimulationConfig.algorithm``
swaps the backbone construction without touching the simulator.  These
tests run real (small) lifespan trials through alternative algorithms and
pin the default path to the pre-refactor behavior.
"""

from __future__ import annotations

import pytest

from repro.core.registry import AlgorithmPipeline
from repro.simulation.config import SimulationConfig
from repro.simulation.lifespan import LifespanSimulator


def _cfg(**overrides):
    base = dict(
        n_hosts=12,
        side=60.0,
        radius=30.0,
        initial_energy=20.0,
        scheme="el2",
        max_intervals=500,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestAlternativeAlgorithmLifespans:
    @pytest.mark.parametrize(
        "algorithm", ["greedy_mcds", "energy_greedy", "aneja_2conn", "zhou_mwcds"]
    )
    def test_trial_runs_to_first_death(self, algorithm):
        result = LifespanSimulator(
            _cfg(algorithm=algorithm, verify_invariants=True), rng=7
        ).run()
        assert result.lifespan >= 1
        assert result.metrics.mean_cds_size >= 0.0

    def test_non_wu_li_disables_marking_pipelines(self):
        sim = LifespanSimulator(_cfg(algorithm="mis_cds", n_hosts=80), rng=3)
        assert isinstance(sim.pipeline, AlgorithmPipeline)
        assert sim.pipeline.algorithm.name == "mis_cds"
        assert sim.algorithm.name == "mis_cds"

    def test_default_algorithm_is_wu_li_and_unchanged(self):
        """algorithm='wu_li' must be a no-op relative to the pre-registry
        simulator: same rng stream, same pipeline selection, same result."""
        a = LifespanSimulator(_cfg(), rng=11).run()
        b = LifespanSimulator(_cfg(algorithm="wu_li"), rng=11).run()
        assert a.lifespan == b.lifespan
        assert a.metrics.mean_cds_size == b.metrics.mean_cds_size

    def test_cds_fn_wins_over_algorithm(self):
        def take_everyone(adjacency, energy):
            return (1 << len(adjacency)) - 1

        result = LifespanSimulator(
            _cfg(algorithm="greedy_mcds"), rng=5, cds_fn=take_everyone
        ).run(keep_intervals=True)
        for record in result.metrics.intervals:
            assert record.cds_size == result.config.n_hosts

