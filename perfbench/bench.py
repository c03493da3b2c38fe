"""The closed measuring loop and the checks on its outputs.

One process, one thread: each interval starts only after the previous one
has returned.  Only the :meth:`Unit.interval` call sits inside a timer;
snapshots for the oracle, the digest, the backbone counts and the oracle
itself all run outside it (the oracle after the loop, so the oracle's own
memory does not show in the reported high-water mark).
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.cds import compute_cds
from repro.graphs.adhoc import AdHocNetwork

from workloads import Unit, Workload, unit_schedule


@dataclass
class Snapshot:
    """Inputs of one sampled interval and what the program returned."""

    where: str
    cfg: object
    scheme: object
    positions: np.ndarray
    levels: np.ndarray | None
    mask: int = 0
    stats: tuple = ()


@dataclass
class Prefix:
    """Exact record of the first unit's first ``workload.prefix`` intervals."""

    digest: str = ""
    masks: list[int] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)


class Calibrator:
    """A fixed kernel, timed between intervals, that tracks machine speed.

    The host this runs on is shared, and its speed drifts by up to 2x over
    minutes.  The kernel (an interpreter loop and an allocation-free numpy
    gather and sort, about 10 ms) never changes with the program and does
    not depend on the program's memory state.  The run's speed factor is
    the kernel's time on the reference machine over its median time in
    this run, and times are reported multiplied by it.
    """

    #: median kernel time on the reference machine (see README.md).
    NOMINAL_S = 0.0105

    def __init__(self, every_s: float = 0.5):
        rng = np.random.default_rng(0)
        self._data = rng.random(1 << 16)
        self._idx = rng.integers(0, 1 << 16, 1 << 16)
        self._buf = np.empty(1 << 16)
        self.every_s = every_s
        self.samples: list[float] = []
        self._next = 0.0

    def kernel(self) -> float:
        """Run the kernel once and return its duration."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc ^= (i * i) & 0xFF
        for _ in range(6):
            np.take(self._data, self._idx, out=self._buf)
            self._buf.sort()
        return time.perf_counter() - t0

    def maybe(self) -> None:
        """Time the kernel if ``every_s`` passed since the last sample."""
        now = time.perf_counter()
        if now >= self._next:
            self.sample()
            self._next = time.perf_counter() + self.every_s

    def sample(self) -> None:
        self.samples.append(self.kernel())

    @property
    def factor(self) -> float:
        """Multiply a time by this to get it at reference speed (<1: this
        run's machine was slower than the reference)."""
        return self.NOMINAL_S / statistics.median(self.samples)


@dataclass
class RunResult:
    warm_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    prefix: Prefix = field(default_factory=Prefix)
    units: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)


def _mask_bytes(mask: int, n: int) -> bytes:
    return mask.to_bytes((n + 7) // 8, "little")


def backbone_counts(masks: list[int]) -> dict[str, float]:
    """Gateways kept, added and dropped per interval, and the mean size."""
    pairs = list(zip(masks, masks[1:]))
    per = max(len(pairs), 1)
    return {
        "backbone.kept": sum((a & b).bit_count() for a, b in pairs) / per,
        "backbone.added": sum((b & ~a).bit_count() for a, b in pairs) / per,
        "backbone.dropped": sum((a & ~b).bit_count() for a, b in pairs) / per,
        "cds.size_mean": sum(m.bit_count() for m in masks) / max(len(masks), 1),
    }


class _PrefixRecorder:
    """Folds the first unit's first intervals into a digest and counts."""

    def __init__(self, length: int):
        self.length = length
        self.hash = hashlib.blake2b(digest_size=16)
        self.masks: list[int] = []

    @property
    def open(self) -> bool:
        return len(self.masks) < self.length

    def add(self, outcome) -> None:
        cds, drain = outcome.cds, outcome.drain
        h = self.hash
        h.update(_mask_bytes(cds.gateway_mask, cds.n))
        h.update(repr(tuple(cds.stats.__dict__.values())).encode())
        h.update(
            repr(
                (
                    drain.interval,
                    drain.n_gateways,
                    float(drain.gateway_drain).hex(),
                    float(drain.min_level_after).hex(),
                    drain.died,
                )
            ).encode()
        )
        self.masks.append(cds.gateway_mask)

    def close(self, unit: Unit, extra_counts: dict[str, float]) -> Prefix:
        h = self.hash
        h.update(np.ascontiguousarray(unit.network.positions).tobytes())
        h.update(np.ascontiguousarray(unit.accountant.bank.levels).tobytes())
        counts = backbone_counts(self.masks)
        counts["mobility.retries"] = float(unit.mobility.retries_used)
        counts["mobility.frozen"] = float(unit.mobility.frozen_intervals)
        counts.update(extra_counts)
        return Prefix(h.hexdigest(), self.masks, counts)


def _take_snapshot(unit: Unit) -> Snapshot:
    levels = unit.accountant.bank.levels.copy() if unit.scheme.needs_energy else None
    return Snapshot(
        f"trial {unit.trial} scheme {unit.cfg.scheme} interval {unit.index + 1}",
        unit.cfg,
        unit.scheme,
        unit.network.positions.copy(),
        levels,
    )


def oracle_mismatch(snap: Snapshot) -> str | None:
    """Compare one sampled interval with the scalar ``compute_cds``.

    The oracle rebuilds the unit-disk graph from the snapshot positions,
    so a drift in the incrementally maintained topology shows here too.
    Returns a description of the mismatch, or ``None`` when mask and
    ``PruneStats`` are bit-identical.
    """
    cfg = snap.cfg
    view = AdHocNetwork(snap.positions, cfg.radius, side=cfg.side).snapshot()
    ref = compute_cds(view, snap.scheme, energy=snap.levels, fixed_point=cfg.fixed_point)
    want = (ref.gateway_mask, tuple(ref.stats.__dict__.values()))
    if (snap.mask, snap.stats) != want:
        diff = (snap.mask ^ ref.gateway_mask).bit_count()
        return (
            f"{snap.where}: {diff} gateway bit(s) differ from compute_cds; "
            f"stats {snap.stats} vs {want[1]}"
        )
    return None


def _interval(unit: Unit, res: RunResult, step, snap: Snapshot | None):
    """Run and time one interval; ``(None, 0)`` when it raised."""
    where = f"trial {unit.trial} scheme {unit.cfg.scheme} interval {unit.index + 1}"
    res.attempted += 1
    t0 = time.perf_counter()
    try:
        outcome = step(unit)
    except Exception as exc:  # counted as failed; the run then fails
        res.failures.append(f"{where}: {type(exc).__name__}: {exc}")
        return None, 0.0
    dt = time.perf_counter() - t0
    if snap is not None:
        snap.mask = outcome.cds.gateway_mask
        snap.stats = tuple(outcome.cds.stats.__dict__.values())
    return outcome, dt


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    setup_reps: int,
    tracer=None,
    oracle: bool = True,
    calibrator: Calibrator | None = None,
) -> RunResult:
    """Set up ``setup_reps`` times, then run intervals for ``seconds``.

    An interval that raises is counted failed and ends its unit.  The
    first unit always runs its full prefix, however short ``seconds``.
    """
    res = RunResult()
    checks: list[Snapshot] = []
    recorder = _PrefixRecorder(workload.prefix)
    schedule = unit_schedule(workload)
    _, scheme = next(schedule)
    step = tracer.interval if tracer is not None else Unit.interval
    cal = calibrator.maybe if calibrator is not None else (lambda: None)

    # set-up: placement (+ resampling), construction, cold first interval.
    # One sample sets up ``setup_group`` trials, counting down to trial 0,
    # which the loop then continues; the units the loop builds later add
    # one sample per group, so the median spans the run.  Resampling until
    # connected takes a trial-dependent number of tries, so a sample sums
    # over a group rather than timing one trial: the median of single
    # set-ups would jump between whole numbers of tries.
    group = workload.setup_group
    trial = max(1, setup_reps) * group
    for _ in range(max(1, setup_reps)):
        cal()
        sample = 0.0
        for _ in range(group):
            trial -= 1
            if tracer is not None:
                tracer.reset()
            t0 = time.perf_counter()
            unit = Unit(workload, seed, trial, scheme)
            build = time.perf_counter() - t0
            snap = _take_snapshot(unit) if oracle and trial == 0 else None
            outcome, dt = _interval(unit, res, step, snap)
            if outcome is None:
                return res
            sample += build + dt
        res.setup_s.append(sample)
    if snap is not None:
        checks.append(snap)
    res.units = 1
    pending = 0.0  # set-up time of the loop's units not yet in a sample

    # the loop holds only the live unit: finished ones are freed, so the
    # high-water mark is that of one simulator
    deadline = time.perf_counter() + seconds
    while True:
        if recorder.open and res.units == 1 and outcome is not None:
            recorder.add(outcome)
            if not recorder.open:
                extra = tracer.prefix_counts() if tracer is not None else {}
                res.prefix = recorder.close(unit, extra)
        if outcome is None or unit.finished(outcome):
            if recorder.open:
                if outcome is None:
                    break
                raise RuntimeError(
                    f"{workload.name}: the first unit ended before its "
                    f"{workload.prefix}-interval prefix"
                )
            if time.perf_counter() >= deadline:
                break
            trial, scheme = next(schedule)
            t0 = time.perf_counter()
            unit = Unit(workload, seed, trial, scheme)
            pending += time.perf_counter() - t0
            res.units += 1
        elif time.perf_counter() >= deadline and not recorder.open:
            break
        cal()
        sampled = (
            oracle
            and len(checks) < workload.oracle_max
            and unit.index % workload.oracle_stride == 0
        )
        snap = _take_snapshot(unit) if sampled else None
        outcome, dt = _interval(unit, res, step, snap)
        if outcome is None:
            continue
        if unit.index > 1:
            res.warm_s.append(dt)
        elif res.units > 1:
            pending += dt
            if (res.units - 1) % group == 0:
                res.setup_s.append(pending)
                pending = 0.0
        if snap is not None:
            checks.append(snap)

    if calibrator is not None:
        calibrator.sample()
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for snap in checks:
        bad = oracle_mismatch(snap)
        if bad:
            res.failures.append(bad)
    return res
