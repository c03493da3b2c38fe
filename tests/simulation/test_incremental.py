"""Incremental vs scratch lifespan simulation must be indistinguishable.

The backend only changes *how* the per-interval CDS is computed, never
*what* it is — so two simulators with the same seed, one on the delta
pipeline and one given a :class:`ScratchPipeline`, must produce identical
trajectories, interval records, and lifespans.
"""

from __future__ import annotations

import pytest

from repro.core.cds import ScratchPipeline, SelectorPipeline
from repro.core.delta import DeltaCDSPipeline
from repro.simulation.config import SimulationConfig
from repro.simulation.lifespan import LifespanSimulator


def _run(incremental: bool, **overrides):
    cfg = SimulationConfig(
        n_hosts=overrides.pop("n_hosts", 50),
        scheme=overrides.pop("scheme", "el2"),
        drain_model="fixed",
        **overrides,
    )
    sim = LifespanSimulator(cfg, rng=1234)
    assert isinstance(sim.pipeline, DeltaCDSPipeline)  # n=50 >= the cutoff
    if not incremental:
        sim.pipeline = ScratchPipeline(
            sim.scheme, fixed_point=cfg.fixed_point,
            verify=cfg.verify_invariants,
        )
    return sim.run(keep_intervals=True)


@pytest.mark.parametrize("scheme", ["nr", "id", "nd", "el1", "el2"])
def test_lifespan_identical_across_paths(scheme):
    inc = _run(True, scheme=scheme)
    scr = _run(False, scheme=scheme)
    assert inc.lifespan == scr.lifespan
    assert inc.metrics.first_dead_host == scr.metrics.first_dead_host
    # every per-interval record (|G'|, drains, rule stats, mobility) matches
    assert inc.metrics.intervals == scr.metrics.intervals
    assert inc.metrics.gateway_duty == scr.metrics.gateway_duty


def test_pipeline_constructed_only_when_wanted():
    cfg = SimulationConfig(n_hosts=50)
    assert isinstance(LifespanSimulator(cfg, rng=0).pipeline, DeltaCDSPipeline)
    # a custom selector replaces the paper pipeline entirely
    sim = LifespanSimulator(cfg, rng=0, cds_fn=lambda adj, e: (1 << 50) - 1)
    assert isinstance(sim.pipeline, SelectorPipeline)


def test_small_networks_stay_on_scratch_path():
    # below the measured crossover the scratch path is faster; the choice
    # is invisible because the two paths are bit-identical anyway
    cfg = SimulationConfig(n_hosts=20)
    assert isinstance(LifespanSimulator(cfg, rng=0).pipeline, ScratchPipeline)
    # ... unless shadow checking was requested, which needs the delta
    # pipeline to check
    cfg = SimulationConfig(n_hosts=20, shadow_check=True)
    assert isinstance(LifespanSimulator(cfg, rng=0).pipeline, DeltaCDSPipeline)


def test_shadow_check_full_trial():
    # runs both paths on every interval and raises on any divergence
    result = _run(True, scheme="el1", n_hosts=30, shadow_check=True)
    assert result.lifespan >= 1
