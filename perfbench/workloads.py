"""The benchmark's workloads and the simulator parts each one builds.

A workload is a :class:`SimulationConfig` plus the schedule of trials the
closed loop runs over it.  Trials are ``(trial index, scheme)`` units;
every scheme of one trial index starts from the same placement, as in the
paper's scheme comparisons.  All randomness comes from the command-line
seed: unit ``k`` draws from ``numpy.random.default_rng([seed, k])``, and
the library only ever receives that generator or arrays drawn from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.sparse_delta import IncrementalSparseCDSPipeline
from repro.energy.accounting import EnergyAccountant
from repro.energy.battery import BatteryBank
from repro.energy.models import drain_model_by_name
from repro.core.priority import scheme_by_name
from repro.geometry.space import BoundaryPolicy, Region2D
from repro.graphs.adhoc import AdHocNetwork
from repro.graphs.generators import scaled_side
from repro.mobility.manager import MobilityManager
from repro.mobility.paper_walk import PaperWalk
from repro.simulation.config import SimulationConfig
from repro.simulation.interval import IntervalOutcome, run_interval
from repro.simulation.lifespan import LifespanSimulator


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``max_intervals`` ends a unit after that many intervals (``None`` runs
    it to the first death).  ``prefix`` is how many intervals of the first
    unit the pinned digest and the exact counts cover; it is always run,
    whatever ``--seconds`` says.  Set-up is timed ``setup_reps`` times
    before the loop, and again for the units the loop builds, each sample
    over ``setup_group`` units.  The oracle compares the cold interval of
    every unit and every ``oracle_stride``-th after it, at most
    ``oracle_max`` per run.  ``connected`` placements go through
    :class:`LifespanSimulator` (which resamples until connected and picks
    the backend); the others assemble the same parts on a free placement.
    """

    name: str
    config: SimulationConfig
    schemes: tuple[str, ...]
    connected: bool
    max_intervals: int | None
    prefix: int
    setup_reps: int
    setup_group: int
    oracle_stride: int
    oracle_max: int


def _cfg(n: int, side: float, scheme: str, **kw) -> SimulationConfig:
    return SimulationConfig(
        n_hosts=n, side=side, radius=25.0, scheme=scheme,
        drain_model="constant", **kw,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-n100",
            _cfg(100, 100.0, "id", stability=0.5, on_disconnect="retry"),
            ("id", "nd", "el1", "el2"),
            connected=True, max_intervals=None, prefix=40,
            setup_reps=9, setup_group=6, oracle_stride=7, oracle_max=400,
        ),
        Workload(
            "default-n1000",
            _cfg(1000, scaled_side(1000), "el2", stability=0.5,
                 on_disconnect="retry"),
            ("el2",),
            connected=True, max_intervals=None, prefix=12,
            setup_reps=7, setup_group=1, oracle_stride=25, oracle_max=6,
        ),
        Workload(
            "giant-n4096",
            _cfg(4096, scaled_side(4096), "el2", stability=0.5,
                 on_disconnect="retry", backend="sparse"),
            ("el2",),
            connected=True, max_intervals=60, prefix=4,
            setup_reps=5, setup_group=1, oracle_stride=12, oracle_max=2,
        ),
        Workload(
            "scattered-n20k",
            _cfg(20000, 2.2 * scaled_side(20000), "nd", stability=0.999,
                 on_disconnect="accept", backend="sparse"),
            ("nd",),
            connected=False, max_intervals=10, prefix=8,
            setup_reps=7, setup_group=1, oracle_stride=60, oracle_max=2,
        ),
    )
}


def unit_rng(seed: int, trial: int) -> np.random.Generator:
    """The generator of trial ``trial`` of a run seeded with ``seed``."""
    return np.random.default_rng([seed, trial])


class Unit:
    """One trial of one scheme: the live simulator parts and its progress."""

    def __init__(self, workload: Workload, seed: int, trial: int, scheme: str):
        cfg = workload.config.with_overrides(scheme=scheme)
        self.workload = workload
        self.trial = trial
        self.cfg = cfg
        self.index = 0
        rng = unit_rng(seed, trial)
        if workload.connected:
            sim = LifespanSimulator(cfg, rng=rng)
            self.network = sim.network
            self.scheme = sim.scheme
            self.accountant = sim.accountant
            self.mobility = sim.mobility
            self.pipeline = sim.pipeline
            self.algorithm = sim.algorithm
        else:
            self.network = AdHocNetwork(
                rng.random((cfg.n_hosts, 2)) * cfg.side, cfg.radius, side=cfg.side
            )
            self.scheme = scheme_by_name(cfg.scheme)
            self.accountant = EnergyAccountant(
                BatteryBank(cfg.n_hosts, initial=cfg.initial_energy),
                drain_model_by_name(cfg.drain_model),
                non_gateway_drain=cfg.non_gateway_drain,
            )
            self.mobility = MobilityManager(
                self.network,
                PaperWalk(
                    stability=cfg.stability,
                    min_step=cfg.min_step,
                    max_step=cfg.max_step,
                    integer_steps=cfg.integer_steps,
                ),
                Region2D(side=cfg.side, policy=BoundaryPolicy(cfg.boundary)),
                on_disconnect=cfg.on_disconnect,
                max_retries=cfg.max_move_retries,
                rng=rng,
            )
            self.pipeline = IncrementalSparseCDSPipeline(
                self.scheme,
                fixed_point=cfg.fixed_point,
                verify=cfg.verify_invariants,
                shadow_check=cfg.shadow_check,
                memory_budget_mb=cfg.memory_budget_mb,
            )
            self.algorithm = None

    def interval(self) -> IntervalOutcome:
        """Run the next update interval (CDS, drain, mobility)."""
        self.index += 1
        return run_interval(
            self.network,
            self.scheme,
            self.accountant,
            self.mobility,
            interval_index=self.index,
            fixed_point=self.cfg.fixed_point,
            verify=self.cfg.verify_invariants,
            pipeline=self.pipeline,
            algorithm=self.algorithm,
        )

    def finished(self, outcome: IntervalOutcome) -> bool:
        cap = self.workload.max_intervals
        return outcome.someone_died or (cap is not None and self.index >= cap)


def unit_schedule(workload: Workload):
    """``(trial, scheme)`` in run order, without end."""
    trial = 0
    while True:
        for scheme in workload.schemes:
            yield trial, scheme
        trial += 1
