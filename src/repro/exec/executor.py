"""The resilient sharded sweep executor.

Replaces the raw ``pool.map`` fan-out that multi-cell experiments used to
run on.  Differences that matter at campaign scale:

**One persistent pool per sweep.**  All (cell × trial) shards of a sweep
stream through a single process pool via ``imap_unordered`` — workers stay
warm across cells instead of a fork/teardown per cell, and results are
consumed (checkpointed, merged, reported) as they land rather than after
the slowest straggler.

**Crash-safe checkpointing.**  With a checkpoint directory configured,
every completed shard is appended to ``shards.jsonl`` the moment it
arrives (see :mod:`repro.exec.checkpoint`).  A killed sweep resumes
exactly where it stopped: shards are keyed by
``(config fingerprint, root_seed, trial)`` and each trial's random stream
is derived in isolation, so restored + freshly-run results are
bit-identical to an uninterrupted run.

**Bounded retries with attribution.**  A shard that raises (or that is
lost to a worker crash/timeout) is retried on the *same* seed up to
``max_retries`` times; past the budget the sweep raises
:class:`~repro.errors.TrialExecutionError` carrying the (cell, trial,
root_seed) needed to reproduce the failure — after draining and
checkpointing every other in-flight shard, so no completed work is lost.

**No silent observability loss.**  When instrumentation is on (or
``capture_obs=True``), every shard — worker-side *or* serial — runs under
:func:`repro.obs.isolated_capture`; its snapshot is merged into the
parent's registry and stored in the checkpoint record, so a parallel
``repro profile`` reports the same counter totals as a serial one, and a
resumed sweep reports the same totals as an uninterrupted one.

Fault injection for tests: set ``REPRO_EXEC_FAULT`` to a comma-separated
list of ``raise:<trial>:<n>`` / ``exit:<trial>:<n>`` entries to make the
first ``n`` attempts of ``trial`` raise (or hard-exit the worker).  The
variable crosses both ``fork`` and ``spawn`` boundaries; it exists so the
retry and crash-recovery paths stay testable without a real crash.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence, TextIO

from repro import obs
from repro.errors import ConfigurationError, TrialExecutionError
from repro.exec.checkpoint import CheckpointStore, sweep_fingerprint
from repro.faults.plan import mix_u01
from repro.exec.shards import ShardSpec, config_fingerprint
from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import TrialMetrics

__all__ = [
    "SweepExecutor",
    "SweepOutcome",
    "SweepProgress",
    "progress_printer",
]

_FAULT_ENV = "REPRO_EXEC_FAULT"


def _maybe_inject_fault(trial: int, attempt: int) -> None:
    """Test hook: fail this (trial, attempt) if REPRO_EXEC_FAULT says so."""
    spec = os.environ.get(_FAULT_ENV)
    if not spec:
        return
    for entry in spec.split(","):
        parts = entry.strip().split(":")
        if len(parts) != 3:
            continue
        kind, t, n = parts
        if int(t) == trial and attempt < int(n):
            if kind == "exit":
                os._exit(17)
            raise RuntimeError(
                f"injected fault for trial {trial} attempt {attempt}"
            )


@dataclass(frozen=True)
class _Reply:
    """What a shard execution sends back across the pool boundary."""

    cell: str
    trial: int
    attempt: int
    ok: bool
    metrics: TrialMetrics | None
    obs_snapshot: dict[str, Any] | None
    error: str | None
    dur_s: float


def _exec_shard(
    task: tuple[str, SimulationConfig, int | None, int, int, bool],
) -> _Reply:
    """Run one trial; never raises (failures travel back as data).

    Top-level so it pickles under every start method.  The import of the
    simulator is deferred: under ``spawn`` the worker pays it once, and the
    module graph stays cycle-free (``repro.simulation`` imports the runner,
    which imports this package).
    """
    cell, config, root_seed, trial, attempt, capture = task
    from repro.simulation.lifespan import LifespanSimulator
    from repro.simulation.rng import generator_for_trial

    t0 = time.perf_counter()
    try:
        _maybe_inject_fault(trial, attempt)
        if capture:
            with obs.isolated_capture() as reg:
                sim = LifespanSimulator(
                    config, rng=generator_for_trial(root_seed, trial)
                )
                metrics = sim.run().metrics
            snapshot: dict[str, Any] | None = reg.snapshot()
        else:
            sim = LifespanSimulator(
                config, rng=generator_for_trial(root_seed, trial)
            )
            metrics = sim.run().metrics
            snapshot = None
        return _Reply(
            cell, trial, attempt, True, metrics, snapshot, None,
            time.perf_counter() - t0,
        )
    except Exception as exc:  # noqa: BLE001 - shipped to the parent verbatim
        return _Reply(
            cell, trial, attempt, False, None, None,
            f"{type(exc).__name__}: {exc}", time.perf_counter() - t0,
        )


@dataclass(frozen=True)
class SweepProgress:
    """One progress tick, emitted after every shard lands."""

    done: int
    total: int
    restored: int
    retried: int
    cell: str
    trial: int
    #: "restored" (from checkpoint), "run", or "retry".
    source: str


def progress_printer(stream: TextIO | None = None) -> Callable[[SweepProgress], None]:
    """A progress callback that prints sensibly both on TTYs and in CI logs.

    On a TTY every tick redraws one status line; otherwise one line is
    printed roughly every 5% (and for every retry, which you want in logs).
    """
    out = stream if stream is not None else sys.stderr
    is_tty = hasattr(out, "isatty") and out.isatty()

    def emit(ev: SweepProgress) -> None:
        step = max(1, ev.total // 20)
        if is_tty:
            end = "\n" if ev.done == ev.total else "\r"
            print(
                f"  sweep: {ev.done}/{ev.total} shards "
                f"({ev.restored} restored, {ev.retried} retried)",
                end=end, file=out, flush=True,
            )
        elif ev.done % step == 0 or ev.done == ev.total or ev.source == "retry":
            print(
                f"  sweep: {ev.done}/{ev.total} shards "
                f"[{ev.source} {ev.cell} trial {ev.trial}] "
                f"({ev.restored} restored, {ev.retried} retried)",
                file=out, flush=True,
            )

    return emit


@dataclass
class SweepOutcome:
    """Everything a sweep produced, plus how it got there."""

    #: cell name -> trial-ordered metrics.
    cells: dict[str, list[TrialMetrics]]
    trials: int
    #: shards actually executed this run.
    executed: int
    #: shards restored from the checkpoint instead of executed.
    restored: int
    #: retry attempts that were performed (0 on a clean run).
    retried: int
    wall_s: float = 0.0

    def cell(self, name: str) -> list[TrialMetrics]:
        return self.cells[name]

    @property
    def total_shards(self) -> int:
        return self.executed + self.restored


@dataclass
class SweepExecutor:
    """Schedules (cell × trial) shards over one persistent process pool.

    Parameters
    ----------
    processes:
        worker count (``None`` = ``os.cpu_count()``); ``1`` runs serially
        in-process through the *same* retry/checkpoint/capture code path.
    start_method:
        multiprocessing start method (``fork``/``spawn``/``forkserver``),
        ``None`` for the platform default.  The old runner hardcoded
        ``fork``; ``spawn`` is now a first-class citizen — workers enable
        their own instrumentation instead of relying on inherited state.
    max_retries:
        re-attempts per shard beyond the first, on the same seed.
    retry_backoff_s:
        base delay before retry ``k`` (1-based):
        ``min(retry_backoff_max_s, retry_backoff_s * 2**(k-1))``, scaled
        by a deterministic jitter factor in ``[0.5, 1.0)`` keyed on the
        shard identity — a transient resource squeeze (OOM killer, disk
        stall) gets breathing room instead of an instant hammer, and
        replays are reproducible.  ``0`` disables the backoff entirely.
    retry_backoff_max_s:
        cap on the exponential growth of the retry delay.
    timeout_s:
        max seconds to wait for the *next* shard result before declaring
        the pool wedged (a hard-crashed worker never returns its task):
        the pool is rebuilt and unreturned shards are retried, each charged
        one attempt.  ``None`` (default) waits forever.
    checkpoint:
        a directory path or :class:`CheckpointStore`; completed shards are
        appended as they land and already-present shards are restored
        instead of re-run.  ``None`` disables checkpointing.
    capture_obs:
        ``None`` (default) captures per-shard observability exactly when
        instrumentation is enabled in the parent at :meth:`run` time;
        ``True``/``False`` force it.
    progress:
        callback receiving a :class:`SweepProgress` after every shard (see
        :func:`progress_printer`).
    """

    processes: int | None = None
    start_method: str | None = None
    max_retries: int = 2
    retry_backoff_s: float = 0.05
    retry_backoff_max_s: float = 2.0
    timeout_s: float | None = None
    checkpoint: CheckpointStore | str | Path | None = None
    capture_obs: bool | None = None
    progress: Callable[[SweepProgress], None] | None = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if self.start_method is not None:
            valid = mp.get_all_start_methods()
            if self.start_method not in valid:
                raise ConfigurationError(
                    f"unknown start method {self.start_method!r}; "
                    f"this platform supports {valid}"
                )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff_s < 0 or self.retry_backoff_max_s < 0:
            raise ConfigurationError(
                f"retry backoff must be >= 0, got "
                f"[{self.retry_backoff_s}, {self.retry_backoff_max_s}]"
            )
        if self.processes is not None and self.processes < 1:
            raise ConfigurationError(
                f"processes must be >= 1, got {self.processes}"
            )

    # -- public entry points -------------------------------------------------

    def run(
        self,
        cells: Mapping[str, SimulationConfig]
        | Sequence[tuple[str, SimulationConfig]],
        trials: int,
        *,
        root_seed: int | None = None,
        parallel: bool = True,
        shuffle_seed: int | None = None,
    ) -> SweepOutcome:
        """Execute ``trials`` trials of every cell; returns per-cell metrics.

        ``shuffle_seed`` deterministically permutes shard submission order
        (useful to spread heterogeneous cells across the pool instead of
        finishing one expensive cell at a time); results are keyed by
        (cell, trial), so the permutation never changes what is returned.
        """
        pairs = list(cells.items()) if isinstance(cells, Mapping) else list(cells)
        if len({name for name, _ in pairs}) != len(pairs):
            raise ConfigurationError("duplicate cell names in sweep")
        if trials < 0:
            raise ConfigurationError(f"trials must be >= 0, got {trials}")
        # degenerate sweeps (no cells, or zero trials) are valid and return
        # an empty outcome — callers that generate their grid (figure
        # drivers, ablation scripts) shouldn't have to special-case "this
        # slice happened to be empty"
        if not pairs or trials == 0:
            return SweepOutcome(
                cells={name: [] for name, _ in pairs},
                trials=trials,
                executed=0,
                restored=0,
                retried=0,
                wall_s=0.0,
            )

        t0 = time.perf_counter()
        fps = {name: config_fingerprint(cfg) for name, cfg in pairs}
        shards = [
            ShardSpec(name, cfg, root_seed, t, fps[name])
            for name, cfg in pairs
            for t in range(trials)
        ]
        if shuffle_seed is not None:
            import random

            random.Random(shuffle_seed).shuffle(shards)

        store = self._bind_store(fps, root_seed, trials)
        done_records = store.load() if store is not None else {}
        capture = (
            obs.enabled() if self.capture_obs is None else self.capture_obs
        )

        results: dict[tuple[str, int], TrialMetrics] = {}
        pending: list[tuple[ShardSpec, int]] = []
        first_restored: ShardSpec | None = None
        for spec in shards:
            rec = done_records.get(spec.key)
            if rec is not None:
                results[(spec.cell, spec.trial)] = TrialMetrics.from_dict(
                    rec["metrics"]
                )
                if capture and rec.get("obs"):
                    obs.get_registry().merge(rec["obs"])
                if first_restored is None:
                    first_restored = spec
            else:
                pending.append((spec, 0))

        total = len(shards)
        restored = len(results)
        retried = 0
        if first_restored is not None:
            # one tick is enough to announce the restore count
            self._tick(
                done=restored, total=total, restored=restored,
                retried=retried, spec=first_restored, source="restored",
            )

        procs = self.processes if self.processes is not None else (
            os.cpu_count() or 1
        )
        serial = not parallel or procs <= 1 or len(pending) <= 1
        try:
            if pending:
                runner = self._run_serial if serial else self._run_pooled
                retried = runner(
                    pending, capture, store, results,
                    total=total, restored=restored, done_start=restored,
                )
        finally:
            if store is not None:
                store.close()

        return SweepOutcome(
            cells={
                name: [results[(name, t)] for t in range(trials)]
                for name, _ in pairs
            },
            trials=trials,
            executed=len(pending),
            restored=restored,
            retried=retried,
            wall_s=time.perf_counter() - t0,
        )
        return outcome

    # -- internals -----------------------------------------------------------

    def _bind_store(
        self,
        fps: Mapping[str, str],
        root_seed: int | None,
        trials: int,
    ) -> CheckpointStore | None:
        if self.checkpoint is None:
            return None
        store = (
            self.checkpoint
            if isinstance(self.checkpoint, CheckpointStore)
            else CheckpointStore(self.checkpoint)
        )
        store.bind(
            sweep_fp=sweep_fingerprint(fps.values(), root_seed),
            root_seed=root_seed,
            trials=trials,
            cells=fps,
        )
        return store

    def _absorb(
        self,
        reply: _Reply,
        spec: ShardSpec,
        capture: bool,
        store: CheckpointStore | None,
        results: dict[tuple[str, int], TrialMetrics],
    ) -> None:
        """Fold one successful reply into results/obs/checkpoint."""
        assert reply.metrics is not None
        results[(spec.cell, spec.trial)] = reply.metrics
        if capture and reply.obs_snapshot is not None:
            obs.get_registry().merge(reply.obs_snapshot)
        if store is not None:
            store.append(
                {
                    "k": spec.key,
                    "cell": spec.cell,
                    "trial": spec.trial,
                    "attempts": reply.attempt + 1,
                    "dur_s": reply.dur_s,
                    "metrics": reply.metrics.to_dict(),
                    "obs": reply.obs_snapshot,
                }
            )

    def _budget_check(self, spec: ShardSpec, attempt: int, cause: str) -> int:
        """Next attempt number, or raise once the budget is exhausted."""
        if attempt + 1 > self.max_retries:
            raise TrialExecutionError(
                "trial failed after exhausting its retry budget",
                cell=spec.cell,
                trial=spec.trial,
                root_seed=spec.root_seed,
                attempts=attempt + 1,
                cause=cause,
            )
        if obs.enabled():
            obs.count("exec.retries")
        return attempt + 1

    def _retry_delay_s(self, spec: ShardSpec, next_attempt: int) -> float:
        """Jittered exponential backoff before retry ``next_attempt``.

        The jitter factor is a pure function of (shard key, attempt), so
        a resumed or replayed sweep waits the same spans — backoff never
        introduces nondeterminism into anything observable.
        """
        if self.retry_backoff_s <= 0.0:
            return 0.0
        raw = min(
            self.retry_backoff_max_s,
            self.retry_backoff_s * 2.0 ** (next_attempt - 1),
        )
        key = int.from_bytes(
            hashlib.sha256(spec.key.encode("utf-8")).digest()[:4], "little"
        )
        return raw * (0.5 + 0.5 * mix_u01(key, next_attempt))

    def _tick(
        self,
        *,
        done: int,
        total: int,
        restored: int,
        retried: int,
        spec: ShardSpec,
        source: str,
    ) -> None:
        if self.progress is not None:
            self.progress(
                SweepProgress(
                    done=done, total=total, restored=restored,
                    retried=retried, cell=spec.cell, trial=spec.trial,
                    source=source,
                )
            )

    def _run_serial(
        self,
        pending: list[tuple[ShardSpec, int]],
        capture: bool,
        store: CheckpointStore | None,
        results: dict[tuple[str, int], TrialMetrics],
        *,
        total: int,
        restored: int,
        done_start: int,
    ) -> int:
        retried = 0
        done = done_start
        queue = list(pending)
        while queue:
            spec, attempt = queue.pop(0)
            reply = _exec_shard(
                (spec.cell, spec.config, spec.root_seed, spec.trial,
                 attempt, capture)
            )
            if reply.ok:
                self._absorb(reply, spec, capture, store, results)
                done += 1
                self._tick(
                    done=done, total=total, restored=restored,
                    retried=retried, spec=spec,
                    source="retry" if attempt else "run",
                )
            else:
                next_attempt = self._budget_check(
                    spec, attempt, reply.error or "unknown error"
                )
                retried += 1
                delay = self._retry_delay_s(spec, next_attempt)
                if delay > 0.0 and len(queue) == 0:
                    # nothing else to interleave: wait out the backoff now.
                    # With other shards queued, running them first IS the
                    # backoff (the retry sits at the back of the queue).
                    time.sleep(delay)
                queue.append((spec, next_attempt))
        return retried

    def _run_pooled(
        self,
        pending: list[tuple[ShardSpec, int]],
        capture: bool,
        store: CheckpointStore | None,
        results: dict[tuple[str, int], TrialMetrics],
        *,
        total: int,
        restored: int,
        done_start: int,
    ) -> int:
        ctx = (
            mp.get_context(self.start_method)
            if self.start_method is not None
            else mp.get_context()
        )
        procs = self.processes if self.processes is not None else (
            os.cpu_count() or 1
        )
        retried = 0
        done = done_start
        wave = list(pending)
        pool = ctx.Pool(min(procs, max(1, len(wave))))
        try:
            while wave:
                by_id = {
                    (spec.cell, spec.trial): (spec, attempt)
                    for spec, attempt in wave
                }
                tasks = [
                    (spec.cell, spec.config, spec.root_seed, spec.trial,
                     attempt, capture)
                    for spec, attempt in wave
                ]
                next_wave: list[tuple[ShardSpec, int]] = []
                deferred: TrialExecutionError | None = None
                it = pool.imap_unordered(_exec_shard, tasks)
                while by_id:
                    try:
                        reply = self._next_reply(it)
                    except mp.TimeoutError:
                        # a worker died without returning its task: rebuild
                        # the pool and charge every unreturned shard one
                        # attempt.
                        pool.terminate()
                        pool.join()
                        for spec, attempt in by_id.values():
                            try:
                                next_attempt = self._budget_check(
                                    spec, attempt,
                                    "worker crashed or timed out",
                                )
                            except TrialExecutionError as exc:
                                if deferred is None:
                                    deferred = exc
                                continue
                            retried += 1
                            next_wave.append((spec, next_attempt))
                        by_id.clear()
                        if next_wave and deferred is None:
                            pool = ctx.Pool(min(procs, len(next_wave)))
                        break
                    spec, attempt = by_id.pop((reply.cell, reply.trial))
                    if reply.ok:
                        self._absorb(reply, spec, capture, store, results)
                        done += 1
                        self._tick(
                            done=done, total=total, restored=restored,
                            retried=retried, spec=spec,
                            source="retry" if attempt else "run",
                        )
                    else:
                        # keep draining the wave before raising so every
                        # completed shard is merged + checkpointed first
                        try:
                            next_attempt = self._budget_check(
                                spec, attempt, reply.error or "unknown error"
                            )
                        except TrialExecutionError as exc:
                            if deferred is None:
                                deferred = exc
                            continue
                        retried += 1
                        next_wave.append((spec, next_attempt))
                if deferred is not None:
                    raise deferred
                if next_wave:
                    # one wave-level pause: retries run concurrently, so
                    # the longest member delay is the wave's backoff
                    delay = max(
                        self._retry_delay_s(spec, attempt)
                        for spec, attempt in next_wave
                    )
                    if delay > 0.0:
                        time.sleep(delay)
                wave = next_wave
        finally:
            pool.terminate()
            pool.join()
        return retried

    def _next_reply(self, it: Iterator[Any]) -> Any:
        if self.timeout_s is None:
            return next(it)
        return it.next(timeout=self.timeout_s)  # type: ignore[attr-defined]
