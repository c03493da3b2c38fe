"""Batched lifespan runner and backend switch: bit-identical to the
per-trial simulator (ISSUE 7)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.simulation import (
    LifespanSimulator,
    SimulationConfig,
    run_lifespan_batch,
)
from repro.simulation.rng import generator_for_trial


def _per_trial(cfg: SimulationConfig, root_seed: int, trials: int):
    return [
        LifespanSimulator(cfg, rng=generator_for_trial(root_seed, t)).run()
        for t in range(trials)
    ]


class TestBatchLifespan:
    @pytest.mark.parametrize("scheme", ["id", "el2"])
    def test_batch_equals_per_trial(self, scheme):
        cfg = SimulationConfig(n_hosts=25, scheme=scheme, stability=0.6)
        batch = run_lifespan_batch(cfg, 3, root_seed=42)
        ref = _per_trial(cfg, 42, 3)
        for got, want in zip(batch, ref):
            assert got.metrics == want.metrics

    def test_trials_die_at_different_intervals(self):
        # jittered batteries force staggered deaths; the lockstep batch
        # must narrow without disturbing the surviving trials' streams
        cfg = SimulationConfig(
            n_hosts=20, scheme="nd", initial_energy_jitter=0.5
        )
        batch = run_lifespan_batch(cfg, 4, root_seed=9)
        ref = _per_trial(cfg, 9, 4)
        lifespans = {r.lifespan for r in batch}
        assert len(lifespans) > 1  # the scenario actually staggers
        for got, want in zip(batch, ref):
            assert got.metrics == want.metrics

    def test_zero_trials(self):
        cfg = SimulationConfig(n_hosts=10)
        assert run_lifespan_batch(cfg, 0) == []

    def test_negative_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            run_lifespan_batch(SimulationConfig(n_hosts=10), -1)

    def test_shadow_check_passes_on_clean_engine(self):
        cfg = SimulationConfig(n_hosts=15, scheme="nd", shadow_check=True)
        batch = run_lifespan_batch(cfg, 2, root_seed=3)
        assert all(r.lifespan > 0 for r in batch)


class TestBackendSwitch:
    def test_sparse_backend_bit_identical(self):
        base = SimulationConfig(n_hosts=30, scheme="el1", stability=0.7)
        sparse = base.with_overrides(backend="sparse")
        for t in range(2):
            want = LifespanSimulator(base, rng=generator_for_trial(8, t)).run()
            got = LifespanSimulator(sparse, rng=generator_for_trial(8, t)).run()
            assert got.metrics == want.metrics

    def test_backend_validated(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(n_hosts=10, backend="simd")

    def test_backend_changes_fingerprint(self):
        # deliberate: checkpointed sweeps must not mix backends silently
        from repro.exec.shards import config_fingerprint

        base = SimulationConfig(n_hosts=10)
        sparse = base.with_overrides(backend="sparse")
        assert config_fingerprint(base) != config_fingerprint(sparse)
