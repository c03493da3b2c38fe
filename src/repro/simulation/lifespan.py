"""The lifespan simulator: run update intervals until the first host dies.

This is the paper's second simulation study (Figures 11-13): "record the
average number of update intervals when the first host runs out of
battery."  The full §4 procedure:

1. place hosts uniformly in the region, resampling until connected, with
   uniform initial energy;
2. each interval: compute the backbone (the paper's marking process +
   rules by default; any :mod:`repro.core.registry` algorithm via
   ``config.algorithm``) → record |G'| → drain by status;
3. if some host hit zero, stop and report the interval count; otherwise
   roam hosts per the mobility model and repeat.

The centralized-oracle comparison lives one level up: ``repro compare``
runs every registered construction on one network, and
:func:`repro.analysis.experiments.run_algorithm_matrix` runs the full
algorithm × scheme lifespan grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.pipeline import make_pipeline
from repro.core.priority import scheme_by_name
from repro.core.registry import algorithm_by_name
from repro.energy.accounting import EnergyAccountant
from repro.energy.battery import BatteryBank
from repro.energy.models import drain_model_by_name
from repro.errors import SimulationError
from repro.geometry.space import BoundaryPolicy, Region2D
from repro.graphs.generators import random_connected_network
from repro.mobility.manager import MobilityManager
from repro.mobility.paper_walk import PaperWalk
from repro.simulation.config import SimulationConfig
from repro.simulation.interval import run_interval
from repro.graphs import bitset
from repro.simulation.metrics import IntervalMetrics, TrialMetrics
from repro.types import as_generator, RngLike

__all__ = ["LifespanResult", "LifespanSimulator"]


@dataclass(frozen=True)
class LifespanResult:
    """Outcome of one lifespan trial (see :class:`TrialMetrics`)."""

    config: SimulationConfig
    metrics: TrialMetrics

    @property
    def lifespan(self) -> int:
        return self.metrics.lifespan


class LifespanSimulator:
    """Owns one trial's state; ``run()`` drives it to the first death.

    ``config.algorithm`` selects the backbone construction from
    :mod:`repro.core.registry` — any registered algorithm, not just the
    paper's marking path, so the lifespan campaigns genuinely compare
    constructions (``repro compare`` prints the one-network version of
    that comparison).  ``cds_fn`` optionally replaces the pipeline with a
    raw selector ``f(adjacency, energy) -> gateway bitmask`` and wins
    over ``config.algorithm`` when both are given.
    """

    def __init__(
        self, config: SimulationConfig, rng: RngLike = None, *, cds_fn=None
    ):
        self.config = config
        self.cds_fn = cds_fn
        self.rng = as_generator(rng)
        self.scheme = scheme_by_name(config.scheme)
        self.drain_model = drain_model_by_name(config.drain_model)
        self.algorithm = algorithm_by_name(config.algorithm)
        # one pipeline per trial so trials stay independent.  A custom
        # selector bypasses the pipelines, and non-wu_li algorithms
        # recompute from the live snapshot inside run_interval.
        self.pipeline = (
            make_pipeline(
                self.algorithm,
                config.backend,
                self.scheme,
                n_hosts=config.n_hosts,
                fixed_point=config.fixed_point,
                verify=config.verify_invariants,
                shadow_check=config.shadow_check,
                memory_budget_mb=config.memory_budget_mb,
            )
            if cds_fn is None and self.algorithm.name == "wu_li"
            else None
        )

        self.network = random_connected_network(
            config.n_hosts,
            side=config.side,
            radius=config.radius,
            rng=self.rng,
        )
        if config.initial_energy_jitter > 0.0:
            lo = config.initial_energy * (1.0 - config.initial_energy_jitter)
            hi = config.initial_energy * (1.0 + config.initial_energy_jitter)
            self.bank = BatteryBank.from_levels(
                self.rng.uniform(lo, hi, size=config.n_hosts)
            )
        else:
            self.bank = BatteryBank(config.n_hosts, initial=config.initial_energy)
        self.accountant = EnergyAccountant(
            self.bank, self.drain_model, non_gateway_drain=config.non_gateway_drain
        )
        region = Region2D(
            side=config.side, policy=BoundaryPolicy(config.boundary)
        )
        self.mobility = MobilityManager(
            self.network,
            PaperWalk(
                stability=config.stability,
                min_step=config.min_step,
                max_step=config.max_step,
                integer_steps=config.integer_steps,
            ),
            region,
            on_disconnect=config.on_disconnect,
            max_retries=config.max_move_retries,
            rng=self.rng,
        )

    def run(
        self, *, keep_intervals: bool = False, recorder=None
    ) -> LifespanResult:
        """Run intervals until the first death; return the trial summary.

        ``keep_intervals=True`` retains every per-interval record (memory
        grows with lifespan; the figure benches aggregate instead).
        ``recorder`` (a :class:`repro.io.replay.TraceRecorder`) captures
        each interval's pre-drain state + gateway set for offline replay.
        """
        cfg = self.config
        records: list[IntervalMetrics] = []
        gateway_counts = np.zeros(cfg.n_hosts, dtype=np.int64)
        prev_mask: int | None = None
        with obs.span("trial"):
            while True:
                if recorder is not None:
                    pos_snapshot = self.network.positions.copy()
                    energy_snapshot = self.bank.levels.copy()
                outcome = run_interval(
                    self.network,
                    self.scheme,
                    self.accountant,
                    self.mobility,
                    interval_index=len(records) + 1,
                    fixed_point=cfg.fixed_point,
                    verify=cfg.verify_invariants,
                    cds_fn=self.cds_fn,
                    pipeline=self.pipeline,
                    algorithm=self.algorithm,
                )
                records.append(outcome.metrics)
                gateways = bitset.ids_from_mask(outcome.cds.gateway_mask)
                if gateways:
                    gateway_counts[np.asarray(gateways, dtype=np.intp)] += 1
                if obs.enabled():
                    # recomputation-stability metric (how often mobility /
                    # energy rotation actually changes the backbone)
                    if (
                        prev_mask is not None
                        and outcome.cds.gateway_mask != prev_mask
                    ):
                        obs.count("lifespan.cds_changed")
                    prev_mask = outcome.cds.gateway_mask
                if recorder is not None:
                    recorder.record(
                        len(records), pos_snapshot, energy_snapshot,
                        outcome.cds.gateway_mask,
                    )
                if outcome.someone_died:
                    break
                if (
                    cfg.max_intervals is not None
                    and len(records) >= cfg.max_intervals
                ):
                    raise SimulationError(
                        f"no host died within max_intervals={cfg.max_intervals}; "
                        "check the drain configuration (d'=0 with tiny d never "
                        "terminates)"
                    )
            if obs.enabled():
                obs.count("lifespan.trials")
                obs.add("lifespan.intervals", len(records))
        metrics = TrialMetrics.summarize(
            records,
            first_dead_host=self.bank.first_death(),
            total_gateway_drain=self.accountant.total_gateway_drain,
            total_non_gateway_drain=self.accountant.total_non_gateway_drain,
            frozen_intervals=self.mobility.frozen_intervals,
            final_levels=np.asarray(self.bank.levels),
            keep_intervals=keep_intervals,
            gateway_counts=gateway_counts,
        )
        return LifespanResult(config=cfg, metrics=metrics)
