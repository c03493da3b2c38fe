"""Lockstep batched lifespan trials: one array pass per interval.

The sharded executor parallelizes trials across *processes*; this module
parallelizes them across the *batch axis* of
:class:`repro.core.sparse.SparseCDSEngine`.  All still-running trials of a
cell advance in lockstep — each interval stacks their adjacencies into one
:class:`~repro.core.sparse.CSRBatch` and runs marking + rules as a single
numpy pass (components up to the engine's dense cutoff go through its
dense tier), then drains energy and roams hosts per trial exactly as
:func:`repro.simulation.interval.run_interval` does.

Bit-identical by construction: every trial owns its
``generator_for_trial(root_seed, t)`` stream and its own network, battery
bank, accountant, and mobility manager (built by
:class:`~repro.simulation.lifespan.LifespanSimulator`); the only shared
step is the CDS computation, which is deterministic and per-element
equivalent to ``compute_cds``.  So the :class:`TrialMetrics` returned here
equal the ones ``LifespanSimulator.run()`` produces trial by trial — the
batch axis changes wall-clock, never results (pinned by
``tests/simulation/test_batch_lifespan.py``).

Trials die at different intervals; dead trials leave the batch, so the
array pass narrows as the cell drains.  This wins when per-interval numpy
overheads dominate (many small-n trials: one 200-wide batch at n = 100
amortizes ~200 kernel launches into one) or when process fan-out is
unavailable (``processes=1`` benches, pytest-benchmark).

``trial_ids`` lets a caller run an arbitrary subset of a cell's trials
(the batched figure drivers use it to fill only the shards a checkpoint
is missing); ``progress`` receives a :class:`BatchProgress` heartbeat per
interval so long stacked passes stay visible.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

import numpy as np

from repro import obs
from repro.core.cds import CDSResult
from repro.core.pipeline import check_result
from repro.core.registry import algorithm_by_name
from repro.core.sparse import CSRBatch, SparseCDSEngine
from repro.core.vectorized import flags_to_masks
from repro.errors import ConfigurationError, SimulationError
from repro.graphs import bitset
from repro.simulation.config import SimulationConfig
from repro.simulation.lifespan import LifespanResult, LifespanSimulator
from repro.simulation.metrics import IntervalMetrics, TrialMetrics
from repro.simulation.rng import generator_for_trial

__all__ = ["BatchProgress", "batch_progress_printer", "run_lifespan_batch"]


@dataclass(frozen=True)
class BatchProgress:
    """One heartbeat, emitted after every lockstep interval."""

    #: free-form label for the batch (the figure drivers pass the cell).
    label: str
    #: 1-based interval index just completed.
    interval: int
    #: trials still alive after this interval.
    alive: int
    #: trials the batch started with.
    trials: int


def batch_progress_printer(
    stream: TextIO | None = None,
) -> Callable[[BatchProgress], None]:
    """A heartbeat callback mirroring :func:`repro.exec.progress_printer`.

    On a TTY every interval redraws one status line; otherwise a line is
    printed every 25 intervals and whenever a trial dies (the narrowing
    batch is the interesting part of a log).
    """
    out = stream if stream is not None else sys.stderr
    is_tty = hasattr(out, "isatty") and out.isatty()
    last_alive = [-1]

    def emit(ev: BatchProgress) -> None:
        if is_tty:
            end = "\n" if ev.alive == 0 else "\r"
            print(
                f"  batch {ev.label}: interval {ev.interval} "
                f"({ev.alive}/{ev.trials} trials alive)",
                end=end, file=out, flush=True,
            )
        elif ev.interval % 25 == 0 or ev.alive != last_alive[0]:
            print(
                f"  batch {ev.label}: interval {ev.interval} "
                f"({ev.alive}/{ev.trials} trials alive)",
                file=out, flush=True,
            )
        last_alive[0] = ev.alive

    return emit


def run_lifespan_batch(
    config: SimulationConfig,
    trials: int,
    *,
    root_seed: int | None = None,
    keep_intervals: bool = False,
    trial_ids: Sequence[int] | None = None,
    progress: Callable[[BatchProgress], None] | None = None,
    label: str = "",
) -> list[LifespanResult]:
    """Run lifespan trials of ``config`` as lockstep batches.

    Returns one :class:`LifespanResult` per trial, index-aligned with
    ``trial_ids`` (default ``range(trials)``) — trial ``t`` uses the
    ``generator_for_trial(root_seed, t)`` stream, so the metrics equal
    what the per-trial simulator (and therefore the sharded executor)
    produces for the same ids.
    """
    if trials < 0:
        raise ConfigurationError(f"trials must be >= 0, got {trials}")
    if trial_ids is None:
        trial_ids = range(trials)
    else:
        trial_ids = list(trial_ids)
        if len(trial_ids) != trials:
            raise ConfigurationError(
                f"trial_ids has {len(trial_ids)} entries for trials={trials}"
            )
    if trials == 0:
        return []
    if not algorithm_by_name(config.algorithm).supports_sparse:
        # no batched kernels for this construction: fall back to driving
        # the per-trial simulators sequentially on the same rng streams,
        # so results stay index-aligned with the executor's
        return [
            LifespanSimulator(
                config, rng=generator_for_trial(root_seed, t)
            ).run(keep_intervals=keep_intervals)
            for t in trial_ids
        ]
    sims = [
        LifespanSimulator(config, rng=generator_for_trial(root_seed, t))
        for t in trial_ids
    ]
    scheme = sims[0].scheme
    engine = SparseCDSEngine(
        scheme,
        fixed_point=config.fixed_point,
        memory_budget_mb=config.memory_budget_mb,
    )
    n = config.n_hosts

    records: list[list[IntervalMetrics]] = [[] for _ in range(trials)]
    gateway_counts = np.zeros((trials, n), dtype=np.int64)
    alive = list(range(trials))
    interval_no = 0
    with obs.span("trial_batch"):
        while alive:
            adjacencies = [list(sims[t].network.adjacency) for t in alive]
            energies = None
            if scheme.needs_energy:
                energies = np.stack(
                    [np.asarray(sims[t].bank.levels) for t in alive]
                )
            csr = CSRBatch.from_adjacency(
                adjacencies, memory_budget_mb=config.memory_budget_mb
            )
            flags, stats = engine.run(csr, energies)
            masks = flags_to_masks(flags)
            interval_no += 1
            if obs.enabled():
                obs.count("vectorized.batch_intervals")
                obs.add("vectorized.batch_elements", len(alive))

            survivors: list[int] = []
            for k, t in enumerate(alive):
                sim = sims[t]
                cds = CDSResult(
                    scheme=scheme.name,
                    gateway_mask=masks[k],
                    n=n,
                    stats=stats[k],
                )
                check_result(
                    cds,
                    sim.network.adjacency,
                    energies[k] if energies is not None else None,
                    scheme=scheme,
                    fixed_point=config.fixed_point,
                    verify=config.verify_invariants,
                    shadow_check=config.shadow_check,
                    context=(
                        f"batch trial {trial_ids[t]} interval "
                        f"{len(records[t]) + 1}"
                    ),
                )
                drain = sim.accountant.apply(cds.gateway_mask)
                someone_died = bool(drain.died) or sim.bank.any_dead()
                topology_changed = False
                if not someone_died:
                    topology_changed = sim.mobility.step()
                records[t].append(
                    IntervalMetrics(
                        interval=len(records[t]) + 1,
                        cds_size=cds.size,
                        gateway_drain=drain.gateway_drain,
                        min_energy_after=drain.min_level_after,
                        topology_changed=topology_changed,
                        removed_rule1=cds.stats.removed_rule1,
                        removed_rule2=cds.stats.removed_rule2,
                    )
                )
                gateways = bitset.ids_from_mask(masks[k])
                if gateways:
                    gateway_counts[t, np.asarray(gateways, dtype=np.intp)] += 1
                if someone_died:
                    continue
                if (
                    config.max_intervals is not None
                    and len(records[t]) >= config.max_intervals
                ):
                    raise SimulationError(
                        f"no host died within max_intervals="
                        f"{config.max_intervals}; check the drain "
                        "configuration (d'=0 with tiny d never terminates)"
                    )
                survivors.append(t)
            alive = survivors
            if progress is not None:
                progress(
                    BatchProgress(
                        label=label,
                        interval=interval_no,
                        alive=len(alive),
                        trials=trials,
                    )
                )
        if obs.enabled():
            obs.add("lifespan.trials", trials)
            obs.add(
                "lifespan.intervals", sum(len(r) for r in records)
            )

    results = []
    for t, sim in enumerate(sims):
        metrics = TrialMetrics.summarize(
            records[t],
            first_dead_host=sim.bank.first_death(),
            total_gateway_drain=sim.accountant.total_gateway_drain,
            total_non_gateway_drain=sim.accountant.total_non_gateway_drain,
            frozen_intervals=sim.mobility.frozen_intervals,
            final_levels=np.asarray(sim.bank.levels),
            keep_intervals=keep_intervals,
            gateway_counts=gateway_counts[t],
        )
        results.append(LifespanResult(config=config, metrics=metrics))
    return results
