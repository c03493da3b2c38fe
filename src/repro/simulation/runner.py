"""Multi-trial fan-out: repeat lifespan trials over independent streams.

Experiments average many trials per (N, scheme, drain-model) cell.  Trials
are embarrassingly parallel, so the runner fans them out over a process
pool (``multiprocessing``; the work is pure Python/NumPy compute, so
threads would serialize on the GIL).  Each trial gets its own
``SeedSequence(root, spawn_key=(trial,))`` stream — workers never share
random state, and any single trial can be re-run in isolation for
debugging by reusing its (root_seed, trial index) pair.

Since the sharded executor landed, this module is a thin single-cell
facade over :class:`repro.exec.SweepExecutor`, which is what actually
schedules the shards.  That buys the runner, for free:

* worker-side observability survives the pool boundary — each trial runs
  under :func:`repro.obs.isolated_capture` and its snapshot is merged into
  the parent registry, so parallel counter totals equal serial ones;
* failures carry attribution — a trial that keeps failing raises
  :class:`~repro.errors.TrialExecutionError` with its (cell, trial,
  root_seed), after completed trials were drained (and checkpointed, when
  a checkpoint directory is set);
* crash-safe resume — pass ``checkpoint_dir`` and a killed run restarts
  exactly where it stopped, bit-identically;
* a configurable start method — ``fork``/``spawn``/``forkserver`` instead
  of the old hardcoded ``fork``.

Set ``processes=1`` (or leave ``parallel=False``) for deterministic
in-process execution — useful under pytest-benchmark where process
spawn overhead would dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import TrialMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.executor import SweepProgress

__all__ = ["TrialRunner", "batches_cells", "run_trials"]

#: the cell name single-config runs are checkpointed under.
_SINGLE_CELL = "trials"


def batches_cells(backend: str) -> bool:
    """Whether a cell's trials default to one stacked engine pass.

    Only ``sparse`` stacks them (:func:`repro.simulation.batch_lifespan.
    run_lifespan_batch`); ``batch_cells=False`` / ``--no-batch-cells``
    opt out.  Results are identical either way.
    """
    return backend == "sparse"


@dataclass(frozen=True)
class TrialRunner:
    """Reusable runner bound to a root seed and a process budget."""

    root_seed: int | None = None
    processes: int | None = None  # None = os.cpu_count()
    #: multiprocessing start method; None = the platform default.
    start_method: str | None = None
    #: per-trial retry budget beyond the first attempt.
    max_retries: int = 2
    #: seconds to wait for the next pool result before declaring a worker
    #: lost and retrying its shard (None = wait forever).
    timeout_s: float | None = None

    def run(
        self,
        config: SimulationConfig,
        trials: int,
        *,
        parallel: bool = True,
        checkpoint_dir: str | Path | None = None,
        progress: Callable[[SweepProgress], None] | None = None,
        batch_cells: bool | None = None,
    ) -> list[TrialMetrics]:
        """Execute ``trials`` independent lifespan runs of ``config``.

        ``batch_cells`` routes the cell through
        :meth:`SweepExecutor.run_batched` — all trials advance as ONE
        lockstep batched-engine pass per interval instead of per-trial
        pool tasks (bit-identical metrics, interchangeable checkpoints).
        ``None`` defers to :func:`batches_cells`.
        """
        # deferred so ``repro.exec`` and ``repro.simulation`` can be
        # imported in either order (exec's modules import simulation
        # submodules, whose package init imports this module)
        from repro.exec.executor import SweepExecutor

        if batch_cells is None:
            batch_cells = batches_cells(config.backend)
        executor = SweepExecutor(
            processes=self.processes,
            start_method=self.start_method,
            max_retries=self.max_retries,
            timeout_s=self.timeout_s,
            checkpoint=checkpoint_dir,
            progress=progress,
        )
        run = executor.run_batched if batch_cells else executor.run
        outcome = run(
            [(_SINGLE_CELL, config)],
            trials,
            root_seed=self.root_seed,
            parallel=parallel,
        )
        return outcome.cell(_SINGLE_CELL)


def run_trials(
    config: SimulationConfig,
    trials: int,
    *,
    root_seed: int | None = None,
    processes: int | None = None,
    parallel: bool = True,
    start_method: str | None = None,
    checkpoint_dir: str | Path | None = None,
    progress: Callable[[SweepProgress], None] | None = None,
    batch_cells: bool | None = None,
) -> list[TrialMetrics]:
    """Functional one-shot form of :class:`TrialRunner`."""
    return TrialRunner(
        root_seed=root_seed,
        processes=processes,
        start_method=start_method,
    ).run(
        config,
        trials,
        parallel=parallel,
        checkpoint_dir=checkpoint_dir,
        progress=progress,
        batch_cells=batch_cells,
    )
