"""The asyncio backbone-maintenance service.

One :class:`BackboneService` hosts many tenant networks.  Each tenant
gets a FIFO update queue, a supervised maintenance task, and (when a
data directory is configured) a crash-safe journal.  The robustness
contract, stated once:

* **Never serve an unverified backbone.**  A freshly recomputed gateway
  set is published only after the :class:`~repro.service.invariants.
  BackboneChecker` hard invariants pass.  On recompute failure, timeout,
  or a rejected publish, the previous *verified* backbone keeps being
  served, stamped ``stale=True``.
* **Crashes are survivable at every instruction.**  Updates are WAL'd
  before they are applied; a maintenance-task failure triggers a
  restart-with-backoff that drops in-memory state and recovers from
  snapshot + WAL — the same code path a ``kill -9`` exercises — so the
  recovered state is bit-identical to the applied prefix.
* **Overload is shed, not absorbed.**  Non-blocking submission refuses
  work past the queue high-water mark with a typed
  :class:`~repro.errors.ServiceOverloaded`; the blocking variant applies
  backpressure instead.
* **Failures escalate, not loop.**  Repeated task failures quarantine
  the tenant: updates are refused, queries degrade to the last verified
  backbone.

Queries take explicit deadlines (:class:`~repro.errors.DeadlineExceeded`
on miss) and bounded retries.  Every interesting transition lands in
:mod:`repro.obs` counters (``service.*``) so ``repro serve`` can report
what actually happened.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro import obs
from repro.core.pipeline import make_pipeline
from repro.core.registry import algorithm_by_name
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    InvariantViolation,
    RoutingError,
    ServiceOverloaded,
    TenantQuarantinedError,
)
from repro.graphs import bitset
from repro.service.invariants import BackboneChecker, CheckReport
from repro.service.state import TenantState
from repro.service.supervisor import RestartPolicy, Supervisor
from repro.service.updates import Update
from repro.service.wal import TenantJournal

__all__ = ["ServiceConfig", "BackboneView", "BackboneService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one service instance (shared by all its tenants)."""

    radius: float = 25.0
    side: float = 100.0
    scheme: str = "el2"
    #: CDS construction from :mod:`repro.core.registry`.  ``wu_li`` keeps
    #: the incremental delta pipeline; any other registered algorithm is
    #: recomputed from scratch per update via
    #: :class:`repro.core.registry.AlgorithmPipeline`.  Algorithms with
    #: ``connectivity >= 2`` get the stronger publish gate (the backbone
    #: must survive any single non-cut-vertex gateway loss).
    algorithm: str = "wu_li"
    #: update-queue depth past which non-blocking submission sheds load.
    queue_high_water: int = 256
    #: snapshot (and rotate the WAL) every this many applied updates.
    snapshot_every: int = 50
    #: recompute budget; ``None`` runs inline with no preemption.  With a
    #: budget the recompute runs on a worker thread and an overrun
    #: degrades to the stale backbone (the orphaned computation keeps its
    #: private pipeline and is discarded on completion).
    recompute_timeout_s: float | None = None
    #: trip the Hansen-Schmutz alarm into a publish *rejection* instead
    #: of an advisory counter.
    alarm_blocks: bool = False
    alarm_slack: float = 4.0
    restart: RestartPolicy = field(default_factory=RestartPolicy)
    #: journal root; each tenant gets ``<data_dir>/<tenant>/``.  None = RAM only.
    data_dir: str | Path | None = None
    #: recompute backend for ``wu_li`` tenants: ``delta`` (the packed-word
    #: incremental pipeline — the default, best at service-sized tenants)
    #: or ``sparse`` (the persistent-CSR incremental pipeline of
    #: :mod:`repro.core.sparse_delta` — for very large tenants).  Both are
    #: bit-identical; non-``wu_li`` algorithms ignore this.
    backend: str = "delta"
    #: chunking budget (MB) for the sparse backend's streamed builders
    #: (bit-identical at any positive value; ``None`` defers to the
    #: ``REPRO_MEMORY_BUDGET_MB`` env var, then the engine default).
    memory_budget_mb: float | None = None

    def __post_init__(self) -> None:
        if self.queue_high_water < 1:
            raise ConfigurationError(
                f"queue_high_water must be >= 1, got {self.queue_high_water}"
            )
        if self.snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if self.backend not in ("delta", "sparse"):
            raise ConfigurationError(
                f"service backend must be delta|sparse, got {self.backend!r}"
            )
        if self.memory_budget_mb is not None and not self.memory_budget_mb > 0:
            raise ConfigurationError(
                "memory_budget_mb must be positive or None, got "
                f"{self.memory_budget_mb}"
            )
        algo = algorithm_by_name(self.algorithm)  # fail fast with the catalog
        if self.backend == "sparse" and not algo.supports_sparse:
            raise ConfigurationError(
                f"algorithm {algo.name!r} has no sparse backend; "
                "use backend='delta'"
            )

    def fresh_pipeline(self, scheme: str):
        """A new pipeline honoring the configured construction.

        Called at tenant creation, post-crash recovery, and after a
        recompute timeout/failure, so the choice of algorithm and backend
        cannot drift between the cold-start and recovery paths.
        :func:`repro.core.pipeline.make_pipeline` holds the rules.
        """
        return make_pipeline(
            self.algorithm,
            self.backend,
            scheme,
            memory_budget_mb=self.memory_budget_mb,
        )


@dataclass(frozen=True)
class BackboneView:
    """An immutable published backbone: what queries are answered from.

    Carries its own adjacency/id snapshot so routing against it is
    consistent even while the live state churns on.
    """

    tenant: str
    #: update seq this backbone was verified against.
    seq: int
    #: gateway bitmask over dense indices.
    gateway_mask: int
    #: dense-index adjacency at publish time.
    adjacency: tuple[int, ...]
    #: external node id of each dense index.
    ids: tuple[int, ...]
    #: True when the live state has moved past this backbone (recompute
    #: failed/timed out/was rejected, or the tenant is quarantined).
    stale: bool
    #: advisory statistical alarm at publish time.
    alarm: bool = False

    @property
    def gateways(self) -> frozenset[int]:
        """Gateway *external* node ids."""
        return frozenset(
            self.ids[v] for v in bitset.ids_from_mask(self.gateway_mask)
        )

    def route(self, src: int, dst: int) -> list[int]:
        """Shortest gateway-relayed path between two external ids.

        Intermediate hops are restricted to gateways (the paper's whole
        point: route search lives on the backbone).  Raises
        :class:`~repro.errors.RoutingError` when an id is unknown or no
        backbone path exists.
        """
        try:
            s = self.ids.index(src)
            t = self.ids.index(dst)
        except ValueError as exc:
            raise RoutingError(
                f"unknown node in route request: {exc}"
            ) from None
        if s == t:
            return [src]
        allowed = self.gateway_mask | (1 << s) | (1 << t)
        prev: dict[int, int] = {s: -1}
        frontier = [s]
        while frontier and t not in prev:
            nxt = []
            for v in frontier:
                for u in bitset.iter_bits(self.adjacency[v] & allowed):
                    if u not in prev:
                        prev[u] = v
                        nxt.append(u)
            frontier = nxt
        if t not in prev:
            raise RoutingError(
                f"no backbone path {src} -> {dst} in tenant "
                f"{self.tenant!r} (backbone seq {self.seq})"
            )
        path = []
        v = t
        while v != -1:
            path.append(self.ids[v])
            v = prev[v]
        return path[::-1]


class _TenantCtx:
    """Everything the service holds for one tenant."""

    def __init__(
        self,
        name: str,
        state: TenantState,
        journal: TenantJournal | None,
        pipeline,  # Delta/IncrementalSparse/Algorithm pipeline (duck-typed)
        checker: BackboneChecker,
    ):
        self.name = name
        self.state = state
        self.journal = journal
        self.pipeline = pipeline
        self.checker = checker
        #: FIFO of (durable_seq | None, update) — the tag marks a requeued
        #: update that may already be WAL'd (skip if <= state.seq).
        self.queue: deque[tuple[int | None, Update]] = deque()
        self.not_empty = asyncio.Event()
        self.space = asyncio.Event()
        self.space.set()
        self.published: BackboneView | None = None
        self.first_publish = asyncio.Event()
        self.progress = asyncio.Event()
        self.quarantined = False
        #: set when an incarnation died mid-update: the next one must
        #: rebuild state from the journal before touching the queue.
        self.needs_recovery = False
        self.last_report: CheckReport | None = None
        self.counters = {
            "applied": 0, "shed": 0, "stale_publishes": 0,
            "rejected_publishes": 0, "recompute_failures": 0,
            "recompute_timeouts": 0, "alarms": 0,
        }

    def mark_stale(self) -> None:
        if self.published is not None and not self.published.stale:
            self.published = replace(self.published, stale=True)
        self.counters["stale_publishes"] += 1
        if obs.enabled():
            obs.count("service.stale_publishes")


class BackboneService:
    """Multiplexes backbone maintenance + queries for many tenants."""

    def __init__(self, config: ServiceConfig | None = None, *, chaos=None):
        self.config = config or ServiceConfig()
        #: duck-typed chaos hooks (see :class:`repro.service.chaos.
        #: ChaosSchedule`); None in production.
        self.chaos = chaos
        self.supervisor = Supervisor(self.config.restart)
        self.supervisor.on_quarantine = self._on_quarantine
        self._tenants: dict[str, _TenantCtx] = {}

    # -- lifecycle -----------------------------------------------------------

    def _ctx(self, tenant: str) -> _TenantCtx:
        try:
            return self._tenants[tenant]
        except KeyError:
            raise ConfigurationError(f"unknown tenant {tenant!r}") from None

    async def add_tenant(
        self,
        name: str,
        positions: np.ndarray | Iterable | None = None,
        energy: list[float] | None = None,
    ) -> int:
        """Register a tenant; returns the recovered update seq (0 = fresh).

        With a data directory configured, an existing journal wins over
        the passed seed population — that is what makes a restarted
        ``repro serve`` resume instead of reset.
        """
        if name in self._tenants:
            raise ConfigurationError(f"tenant {name!r} already exists")
        cfg = self.config
        journal = None
        state = None
        if cfg.data_dir is not None:
            journal = TenantJournal(Path(cfg.data_dir) / name)
            state = journal.recover()
        if state is None:
            state = TenantState(
                radius=cfg.radius, side=cfg.side, scheme=cfg.scheme
            )
            if positions is not None:
                state.seed_population(np.asarray(positions), energy)
            if journal is not None:
                journal.snapshot(state)  # seq-0 anchor for generation 0
        ctx = _TenantCtx(
            name,
            state,
            journal,
            cfg.fresh_pipeline(state.scheme),
            BackboneChecker(
                alarm_slack=cfg.alarm_slack,
                connectivity=algorithm_by_name(cfg.algorithm).connectivity,
            ),
        )
        self._tenants[name] = ctx
        self.supervisor.start(name, lambda: self._maintain(name))
        return state.seq

    async def close(self) -> None:
        await self.supervisor.stop()
        for ctx in self._tenants.values():
            if ctx.journal is not None:
                ctx.journal.close()

    def _on_quarantine(self, name: str, health) -> None:
        ctx = self._tenants.get(name)
        if ctx is None:  # pragma: no cover - supervisor only knows tenants
            return
        ctx.quarantined = True
        ctx.mark_stale()
        # wake every waiter so they observe the quarantine instead of
        # blocking forever on progress that will never come
        ctx.first_publish.set()
        ctx.progress.set()
        ctx.space.set()

    # -- update ingestion ----------------------------------------------------

    def submit_nowait(self, tenant: str, update: Update) -> None:
        """Enqueue or refuse: sheds load at the high-water mark."""
        ctx = self._ctx(tenant)
        if ctx.quarantined:
            raise TenantQuarantinedError(
                "tenant is quarantined; updates refused",
                tenant=tenant,
                failures=self.supervisor.health(tenant).failures,
            )
        if len(ctx.queue) >= self.config.queue_high_water:
            ctx.counters["shed"] += 1
            if obs.enabled():
                obs.count("service.shed")
            raise ServiceOverloaded(
                "update queue at high-water mark",
                tenant=tenant,
                queued=len(ctx.queue),
            )
        self._enqueue(ctx, (None, update))

    async def submit(
        self, tenant: str, update: Update, *, deadline_s: float | None = None
    ) -> None:
        """Enqueue with backpressure: waits for queue space (or deadline)."""
        ctx = self._ctx(tenant)
        start = time.monotonic()
        while True:
            if ctx.quarantined:
                raise TenantQuarantinedError(
                    "tenant is quarantined; updates refused",
                    tenant=tenant,
                    failures=self.supervisor.health(tenant).failures,
                )
            if len(ctx.queue) < self.config.queue_high_water:
                self._enqueue(ctx, (None, update))
                return
            ctx.space.clear()
            remaining = None
            if deadline_s is not None:
                remaining = deadline_s - (time.monotonic() - start)
                if remaining <= 0:
                    raise DeadlineExceeded(
                        "no queue space before the deadline",
                        tenant=tenant, deadline_s=deadline_s,
                    )
            try:
                await asyncio.wait_for(ctx.space.wait(), remaining)
            except (asyncio.TimeoutError, TimeoutError):
                raise DeadlineExceeded(
                    "no queue space before the deadline",
                    tenant=tenant, deadline_s=deadline_s or 0.0,
                ) from None

    def _enqueue(self, ctx: _TenantCtx, item: tuple[int | None, Update]) -> None:
        ctx.queue.append(item)
        ctx.not_empty.set()

    # -- maintenance ---------------------------------------------------------

    async def _maintain(self, name: str) -> None:
        """One incarnation of a tenant's maintenance task (supervised)."""
        ctx = self._tenants[name]
        if ctx.needs_recovery and ctx.journal is not None:
            recovered = ctx.journal.recover()
            if recovered is not None:
                ctx.state = recovered
            ctx.pipeline = self.config.fresh_pipeline(ctx.state.scheme)
            ctx.needs_recovery = False
            if obs.enabled():
                obs.count("service.recoveries")
        if ctx.published is None or ctx.published.seq != ctx.state.seq:
            # cold start / post-recovery: publish a verified baseline
            await self._recompute_and_publish(ctx)
        while True:
            while not ctx.queue:
                ctx.not_empty.clear()
                await ctx.not_empty.wait()
            # cooperative yield: without it a full queue + inline recompute
            # would monopolize the event loop and starve query tasks
            await asyncio.sleep(0)
            tag, upd = ctx.queue.popleft()
            if len(ctx.queue) < self.config.queue_high_water:
                ctx.space.set()
            if tag is not None and tag <= ctx.state.seq:
                continue  # requeued update that recovery already replayed
            k = ctx.state.seq + 1
            appended = False
            try:
                if self.chaos is not None:
                    await self.chaos.before_apply(name, k)
                if ctx.journal is not None:
                    ctx.journal.append(k, upd)
                    appended = True
                ctx.state.apply(upd)
                if self.chaos is not None:
                    await self.chaos.after_apply(name, k)
                await self._recompute_and_publish(ctx)
                if (
                    ctx.journal is not None
                    and k % self.config.snapshot_every == 0
                ):
                    path = ctx.journal.snapshot(ctx.state)
                    if self.chaos is not None:
                        self.chaos.on_snapshot(name, k, path)
                ctx.counters["applied"] += 1
                if obs.enabled():
                    obs.count("service.updates_applied")
                self.supervisor.note_progress(name)
                ctx.progress.set()
            except Exception:
                # the incarnation dies; decide what the next one sees.
                # Durable (appended) updates are replayed by recovery; a
                # lost in-flight update goes back to the queue front.
                if ctx.state.seq < k and not appended:
                    ctx.queue.appendleft((None, upd))
                    ctx.not_empty.set()
                if ctx.journal is not None:
                    ctx.needs_recovery = True
                raise

    async def _recompute_and_publish(self, ctx: _TenantCtx) -> None:
        """Recompute the backbone; publish only if the gate passes.

        Failures and timeouts degrade: the stale flag goes up and the
        previous verified view keeps serving.  A *rejected* publish (hard
        invariant broken) additionally raises — that is a pipeline bug,
        and the supervisor's escalation path is the right place for it.
        """
        cfg = self.config
        state = ctx.state
        adj = list(state.adjacency)
        energy = list(state.energy)
        seq = state.seq
        delay_s = 0.0
        if self.chaos is not None:
            delay_s = self.chaos.recompute_delay_s(ctx.name, seq)
        pipeline = ctx.pipeline

        def work() -> int:
            if delay_s > 0.0:
                time.sleep(delay_s)
            return pipeline.compute(adj, energy).gateway_mask

        t0 = time.perf_counter()
        try:
            if cfg.recompute_timeout_s is None:
                if delay_s > 0.0:
                    await asyncio.sleep(delay_s)
                    delay_s = 0.0
                mask = work()
            else:
                mask = await asyncio.wait_for(
                    asyncio.to_thread(work), cfg.recompute_timeout_s
                )
        except (asyncio.TimeoutError, TimeoutError):
            # the orphaned thread keeps the old pipeline object; the next
            # recompute starts cold on a fresh one
            ctx.pipeline = cfg.fresh_pipeline(state.scheme)
            ctx.counters["recompute_timeouts"] += 1
            if obs.enabled():
                obs.count("service.recompute_timeouts")
            ctx.mark_stale()
            return
        except Exception:  # noqa: BLE001 - degrade, don't die
            ctx.pipeline = cfg.fresh_pipeline(state.scheme)
            ctx.counters["recompute_failures"] += 1
            if obs.enabled():
                obs.count("service.recompute_failures")
            ctx.mark_stale()
            return
        if obs.enabled():
            obs.add("service.recompute_s", time.perf_counter() - t0)

        report = ctx.checker.check(adj, mask)
        ctx.last_report = report
        if report.alarm:
            ctx.counters["alarms"] += 1
            if obs.enabled():
                obs.count("service.alarms")
        if not report.ok or (cfg.alarm_blocks and report.alarm):
            ctx.counters["rejected_publishes"] += 1
            if obs.enabled():
                obs.count("service.rejected_publishes")
            ctx.mark_stale()
            raise InvariantViolation(
                f"refusing to publish a broken backbone for tenant "
                f"{ctx.name!r} at seq {seq}: {report.detail}"
            )
        ctx.published = BackboneView(
            tenant=ctx.name,
            seq=seq,
            gateway_mask=mask,
            adjacency=tuple(adj),
            ids=tuple(state.ids),
            stale=False,
            alarm=report.alarm,
        )
        ctx.first_publish.set()
        if obs.enabled():
            obs.count("service.publishes")

    # -- queries -------------------------------------------------------------

    async def get_backbone(
        self,
        tenant: str,
        *,
        deadline_s: float | None = None,
        retries: int = 0,
    ) -> BackboneView:
        """The current backbone (possibly stale — check ``.stale``).

        Blocks only before the *first* publish; afterwards the last
        verified view answers immediately, which is the degradation
        contract.  ``retries`` splits the deadline into equal per-attempt
        budgets (useful when the first publish races tenant creation).
        """
        ctx = self._ctx(tenant)
        attempts = max(1, retries + 1)
        per_attempt = (
            None if deadline_s is None else max(deadline_s / attempts, 1e-4)
        )
        for _ in range(attempts):
            if ctx.published is not None:
                if obs.enabled():
                    obs.count("service.queries")
                    if ctx.published.stale:
                        obs.count("service.stale_served")
                return ctx.published
            if ctx.quarantined:
                raise TenantQuarantinedError(
                    "tenant quarantined before its first verified backbone",
                    tenant=tenant,
                    failures=self.supervisor.health(tenant).failures,
                )
            try:
                await asyncio.wait_for(ctx.first_publish.wait(), per_attempt)
            except (asyncio.TimeoutError, TimeoutError):
                continue
        if ctx.published is not None:
            return ctx.published
        raise DeadlineExceeded(
            "no backbone published before the deadline",
            tenant=tenant,
            deadline_s=deadline_s if deadline_s is not None else 0.0,
        )

    async def route(
        self,
        tenant: str,
        src: int,
        dst: int,
        *,
        deadline_s: float | None = None,
        retries: int = 0,
    ) -> list[int]:
        """Gateway-relayed path between external node ids."""
        view = await self.get_backbone(
            tenant, deadline_s=deadline_s, retries=retries
        )
        return view.route(src, dst)

    async def wait_seq(
        self, tenant: str, seq: int, *, deadline_s: float | None = None
    ) -> None:
        """Block until the tenant has applied (at least) update ``seq``."""
        ctx = self._ctx(tenant)
        start = time.monotonic()
        while ctx.state.seq < seq:
            if ctx.quarantined:
                raise TenantQuarantinedError(
                    f"quarantined at seq {ctx.state.seq} before reaching "
                    f"{seq}",
                    tenant=tenant,
                    failures=self.supervisor.health(tenant).failures,
                )
            ctx.progress.clear()
            if ctx.state.seq >= seq:  # re-check after clear (no lost wakeup)
                return
            remaining = None
            if deadline_s is not None:
                remaining = deadline_s - (time.monotonic() - start)
                if remaining <= 0:
                    raise DeadlineExceeded(
                        f"tenant stuck at seq {ctx.state.seq} < {seq}",
                        tenant=tenant, deadline_s=deadline_s,
                    )
            try:
                await asyncio.wait_for(ctx.progress.wait(), remaining)
            except (asyncio.TimeoutError, TimeoutError):
                raise DeadlineExceeded(
                    f"tenant stuck at seq {ctx.state.seq} < {seq}",
                    tenant=tenant, deadline_s=deadline_s or 0.0,
                ) from None

    # -- introspection -------------------------------------------------------

    @property
    def tenants(self) -> list[str]:
        return list(self._tenants)

    def stats(self, tenant: str) -> dict[str, Any]:
        ctx = self._ctx(tenant)
        health = self.supervisor.health(tenant)
        return {
            "tenant": tenant,
            "seq": ctx.state.seq,
            "n_nodes": ctx.state.n,
            "queued": len(ctx.queue),
            "published_seq": None if ctx.published is None else ctx.published.seq,
            "stale": None if ctx.published is None else ctx.published.stale,
            "quarantined": ctx.quarantined,
            "task_state": health.state,
            "restarts": health.restarts,
            "failures": health.total_failures,
            **ctx.counters,
        }

    def state_digest(self, tenant: str) -> str:
        """Exact state hash (see :meth:`TenantState.digest`)."""
        return self._ctx(tenant).state.digest()
