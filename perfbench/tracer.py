"""Per-layer tracing from outside the library.

:class:`Tracer` replaces public class methods of each layer with timing
wrappers for the duration of a ``with`` block, then puts the originals
back.  Only calls made inside an interval (:meth:`Tracer.interval`) are
recorded.  A wrapped call's *self time* is its duration minus the
durations of the wrapped calls it made, so the self times of all layers,
plus the interval's own remainder (``sim.interval``), add up to the
traced interval total by construction; :meth:`Tracer.attribution_gap`
checks that they do.

Free functions imported by name into other modules (``run_interval``,
``connected_labels``, ``unit_disk_edge_lists`` ...) cannot be reached by
patching their module, so their time lands in the self time of the
wrapped method that called them.  A target the library no longer has is
skipped and listed in :attr:`Tracer.missing`.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

from repro import obs

ROOT = "sim.interval"

#: (layer name, module, class, method) — the public entry points traced.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("delta.compute", "repro.core.delta", "DeltaCDSPipeline", "compute"),
    ("delta.update", "repro.core.delta", "CachedRuleEngine", "update"),
    ("delta.rules", "repro.core.delta", "CachedRuleEngine", "run"),
    ("sdelta", "repro.core.sparse_delta", "IncrementalSparseCDSPipeline", "compute"),
    ("sparse.engine", "repro.core.sparse", "SparseCDSEngine", "run_detailed"),
    ("sparse.csr_build", "repro.core.sparse", "CSRBatch", "from_positions"),
    ("sparse.csr_build", "repro.core.sparse", "CSRBatch", "from_adjacency"),
    ("dense.engine", "repro.core.vectorized", "BatchCDSEngine", "run"),
    ("graphs.apply_moves", "repro.graphs.adhoc", "AdHocNetwork", "apply_moves"),
    ("graphs.is_connected", "repro.graphs.adhoc", "AdHocNetwork", "is_connected"),
    ("mobility.step", "repro.mobility.manager", "MobilityManager", "step"),
    ("energy.drain", "repro.energy.accounting", "EnergyAccountant", "apply"),
)

#: obs counter prefixes recorded over the pinned prefix.
OBS_PREFIXES = ("delta.", "sdelta.", "scds.")


class Tracer:
    """Wraps the layer entry points while used as a context manager.

    With ``timing=False`` the wrappers only count calls (and rows
    changed); the measuring phase that gives the untraced
    ``intervals_per_s`` of a traced run uses that mode so both phases
    can be checked against each other's exact counts.
    """

    def __init__(self, *, timing: bool = True):
        self.timing = timing
        self.missing: list[str] = []
        self._restore: list[tuple[type, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far, the obs counters included."""
        if obs.enabled():
            obs.reset()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.rows_changed = 0  # summed bitmask returns of apply_moves
        self.total_s = 0.0
        self.intervals = 0
        self._stack: list[list[float]] = []
        self._active = False

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, module, cls_name, attr in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name, None)
            if cls is None or attr not in cls.__dict__:
                self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            self._wrap(cls, attr, name)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            cls, attr, raw = self._restore.pop()
            setattr(cls, attr, raw)

    def _wrap(self, cls: type, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        counts_rows = name == "graphs.apply_moves"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            if not tracer.timing:
                out = fn(*args, **kwargs)
                tracer.calls[name] += 1
                if counts_rows:
                    tracer.rows_changed += out.bit_count()
                return out
            frame = [0.0]
            stack = tracer._stack
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                stack[-1][0] += dur
                tracer.self_s[name] += dur - frame[0]
                tracer.calls[name] += 1
            if counts_rows:
                tracer.rows_changed += out.bit_count()
            return out

        setattr(cls, attr, classmethod(wrapper) if is_cm else wrapper)
        self._restore.append((cls, attr, raw))

    # -- measuring -----------------------------------------------------------

    def interval(self, unit):
        """Run ``unit``'s next interval as the root span."""
        frame = [0.0]
        self._stack.append(frame)
        self._active = True
        t0 = time.perf_counter()
        try:
            return unit.interval()
        finally:
            dur = time.perf_counter() - t0
            self._active = False
            self._stack.pop()
            self.self_s[ROOT] += dur - frame[0]
            self.total_s += dur
            self.intervals += 1

    def prefix_counts(self) -> dict[str, float]:
        """Exact counts so far (called when the pinned prefix closes)."""
        counts = {
            "graphs.rows_changed": float(self.rows_changed),
            "graphs.is_connected_calls": float(self.calls["graphs.is_connected"]),
            "dense.calls": float(self.calls["dense.engine"]),
            "mobility.steps": float(self.calls["mobility.step"]),
        }
        if obs.enabled():
            for key, value in obs.get_registry().counters.items():
                if key.startswith(OBS_PREFIXES):
                    counts["obs." + key] = float(value)
        return counts

    def attribution_gap(self) -> float:
        """|Σ self times − traced interval total| as a share of the total."""
        if self.total_s <= 0.0:
            return 0.0
        return abs(sum(self.self_s.values()) - self.total_s) / self.total_s

    def per_interval_ms(self, name: str) -> float:
        return 1000.0 * self.self_s.get(name, 0.0) / max(self.intervals, 1)
