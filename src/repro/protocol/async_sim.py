"""Asynchronous (event-driven) execution of the CDS protocol.

The synchronous engine (:mod:`repro.protocol.network_sim`) assumes a
global round clock.  Real radios have none: messages arrive whenever they
arrive.  This module re-runs the same per-host state machines under an
event-driven simulator where every delivery carries an independent random
latency, using the classic *asynchronous rounds* discipline: a host
consumes protocol stages strictly in order, and consumes a stage only
once it has heard that stage from all of its **still-participating**
neighbors (pure message counting — no clock; channels are not FIFO).

Termination is fully local.  After each Rule-2 wave a host checks whether
it or any live neighbor is still a candidate; if not, its state can never
change again (Rule-2 candidacy never arises anew once lost), so it
broadcasts a final ``done`` frame — carrying its frozen marker and the
index of the last stage it transmitted — and leaves the protocol.
Neighbors cache the frozen state and stop counting the departed host in
the barriers of every stage it never sent.  Each wave still commits at
least the globally weakest candidate, so the wave count is finite.

Every decision is taken on the same neighbor information as in the
synchronous execution (fresh frames, or a departed host's final state —
which is exactly what it would have kept broadcasting), so the computed
gateway set matches the synchronous protocol; the test suite asserts this
across random graphs, schemes, and latency draws.  What the async engine
adds is the *time* axis: the makespan under latency jitter.

Events are processed from a heap keyed by (time, sequence), so execution
is deterministic for a fixed seed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.pipeline import validate_energy
from repro.core.priority import PriorityScheme, scheme_by_name
from repro.errors import (
    ChannelError,
    ConfigurationError,
    NodeCrashError,
    ProtocolError,
)
from repro.faults.plan import FaultPlan
from repro.graphs import bitset
from repro.protocol.messages import MarkerMsg, Message
from repro.protocol.node_agent import FailurePolicy, NodeAgent
from repro.types import SupportsNeighborhoods

__all__ = ["AsyncOutcome", "run_async_cds"]


@dataclass(frozen=True)
class AsyncOutcome:
    """Result of one asynchronous protocol execution."""

    gateways: frozenset[int]
    makespan: float
    messages_sent: int
    rule2_waves: int
    #: hosts that crashed mid-protocol (fault plans only)
    crashed: frozenset[int] = frozenset()
    #: live hosts a peer declared departed after the retry budget
    suspected: frozenset[int] = frozenset()
    #: transmission attempts the channel lost (fault plans only)
    dropped_frames: int = 0

    @property
    def size(self) -> int:
        return len(self.gateways)


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    receiver: int = field(compare=False)
    stage: str = field(compare=False)
    message: Message = field(compare=False)
    #: for done frames: index of the last stage the sender transmitted
    done_last_sent: int | None = field(compare=False, default=None)


def _stage_index(stage: str) -> int:
    """Total order of protocol stages: nbrsets, marking, rule1, m:0, c:0,
    m:1, c:1, ..."""
    if stage == "nbrsets":
        return 0
    if stage == "marking":
        return 1
    if stage == "rule1":
        return 2
    if stage.startswith("m:"):
        return 3 + 2 * int(stage[2:])
    if stage.startswith("c:"):
        return 4 + 2 * int(stage[2:])
    raise ProtocolError(f"unknown stage {stage}")  # pragma: no cover


def _stage_after(stage: str) -> str:
    if stage == "nbrsets":
        return "marking"
    if stage == "marking":
        return "rule1"
    if stage == "rule1":
        return "m:0"
    if stage.startswith("m:"):
        return f"c:{stage[2:]}"
    if stage.startswith("c:"):
        return f"m:{int(stage[2:]) + 1}"
    raise ProtocolError(f"unknown stage {stage}")  # pragma: no cover


class _AsyncHost:
    """A NodeAgent plus asynchronous-rounds bookkeeping."""

    def __init__(self, agent: NodeAgent):
        self.agent = agent
        self.stage_inbox: dict[str, list[Message]] = {}
        #: departed neighbor -> index of the last stage it transmitted
        self.done_neighbors: dict[int, int] = {}
        #: frozen final markers of departed neighbors, applied lazily once
        #: the Rule-2 tables exist
        self.frozen_markers: dict[int, bool] = {}
        self.is_done = False
        self.crashed = False
        #: the only stage this host may consume next (strict order)
        self.next_stage = "nbrsets"

    def expected(self, stage: str) -> int:
        """Barrier size for ``stage``: live neighbors plus departed ones
        that did transmit this stage before leaving."""
        idx = _stage_index(stage)
        skipped = sum(1 for last in self.done_neighbors.values() if last < idx)
        return len(self.agent.neighbors) - skipped

    def next_ready(self) -> bool:
        box = self.stage_inbox.get(self.next_stage, [])
        return len(box) >= self.expected(self.next_stage)


def _run_async_cds_impl(
    graph: SupportsNeighborhoods,
    scheme: str | PriorityScheme = "id",
    energy=None,
    *,
    rng: np.random.Generator | int | None = None,
    min_latency: float = 0.5,
    max_latency: float = 2.0,
    loss_probability: float = 0.0,
    retx_timeout: float = 3.0,
    fault_plan: FaultPlan | None = None,
    max_retries: int = 6,
    failure_policy: FailurePolicy | str = FailurePolicy.DEGRADE,
) -> AsyncOutcome:
    """Execute the CDS protocol under random per-delivery latencies.

    Each (sender → receiver) delivery draws an independent latency uniform
    on ``[min_latency, max_latency]``.  Lossy channels are modelled by an
    ARQ discipline: each transmission attempt is lost independently with
    ``loss_probability`` and retried after ``retx_timeout``, so a delivery
    needing ``k`` attempts lands ``(k-1) * retx_timeout`` later and costs
    ``k-1`` extra frames.  The *outcome* is loss-independent (the barrier
    discipline just waits); only time and traffic grow — which is exactly
    what the protocol-overhead bench measures.

    ``fault_plan`` switches the channel to the fault-injection model:
    per-attempt losses come from the plan (Bernoulli or Gilbert–Elliott),
    retries are **bounded** by ``max_retries`` (a frame can be lost for
    good), latency spikes multiply a delivery's latency, and hosts crash
    silent at their planned stage.  A host blocked forever on a silent
    correspondent resolves the wait through ``failure_policy``: ``strict``
    raises :class:`~repro.errors.NodeCrashError` /
    :class:`~repro.errors.ChannelError`; ``degrade`` drops the silent
    neighbor from the local view (charging one detection timeout of
    ``(max_retries + 1) * retx_timeout`` to the makespan) and continues on
    the survivors.  With a null plan the execution is identical to not
    passing one.

    Returns the gateway set plus the makespan (time the last host left
    the protocol), the number of frames transmitted (including
    retransmissions), and the number of Rule-2 waves used.
    """
    if not 0 < min_latency <= max_latency:
        raise ConfigurationError(
            f"need 0 < min_latency <= max_latency, got "
            f"[{min_latency}, {max_latency}]"
        )
    if not 0.0 <= loss_probability < 1.0:
        raise ConfigurationError(
            f"loss_probability must be in [0, 1), got {loss_probability}"
        )
    if retx_timeout <= 0:
        raise ConfigurationError(
            f"retx_timeout must be positive, got {retx_timeout}"
        )
    if max_retries < 0:
        raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    sch = scheme_by_name(scheme) if isinstance(scheme, str) else scheme
    pol = FailurePolicy.resolve(failure_policy)
    realization = fault_plan.realize() if fault_plan is not None else None
    adj = list(graph.adjacency)
    n = len(adj)
    arr = validate_energy(sch, energy, n)
    levels = [0.0] * n if arr is None else arr.tolist()

    hosts = [
        _AsyncHost(
            NodeAgent(
                v,
                frozenset(bitset.ids_from_mask(adj[v])),
                sch,
                energy=levels[v],
                policy=pol,
            )
        )
        for v in range(n)
    ]

    heap: list[_Event] = []
    seq = itertools.count()
    sent = 0
    dropped_frames = 0
    makespan = 0.0
    max_wave = 0
    crashed: set[int] = set()
    suspected: set[int] = set()

    def crash(v: int) -> None:
        h = hosts[v]
        h.is_done = True
        h.crashed = True
        h.agent.final_marked = False
        crashed.add(v)

    def broadcast(
        sender: int,
        stage: str,
        msg: Message,
        at: float,
        *,
        done_last_sent: int | None = None,
    ) -> None:
        nonlocal sent, dropped_frames
        if realization is not None:
            cs = realization.crash_stage(sender)
            if cs is not None:
                # "done" carries no stage of its own: it follows the last
                # stage the host transmitted
                idx = (
                    done_last_sent + 1 if stage == "done" else _stage_index(stage)
                )
                if idx >= cs:
                    crash(sender)
                    return
        sent += 1
        for r in bitset.ids_from_mask(adj[sender]):
            latency = float(gen.uniform(min_latency, max_latency))
            if realization is not None:
                # bounded ARQ against the scripted channel: a frame that
                # loses all its attempts is gone for good
                delay_acc = 0.0
                for attempt in range(max_retries + 1):
                    lost, spike = realization.async_attempt(sender, r, attempt)
                    lat = latency if attempt == 0 else float(
                        gen.uniform(min_latency, max_latency)
                    )
                    if spike:
                        lat *= fault_plan.delay_factor
                    if not lost:
                        heapq.heappush(
                            heap,
                            _Event(
                                at + delay_acc + lat,
                                next(seq),
                                r,
                                stage,
                                msg,
                                done_last_sent,
                            ),
                        )
                        break
                    dropped_frames += 1
                    sent += 1
                    delay_acc += retx_timeout
                continue
            if loss_probability > 0.0:
                # geometric number of attempts; each failure adds one
                # retransmission timeout and one extra frame on the air
                attempts = int(gen.geometric(1.0 - loss_probability))
                if attempts > 1:
                    sent += attempts - 1
                    latency += (attempts - 1) * retx_timeout
            heapq.heappush(
                heap,
                _Event(at + latency, next(seq), r, stage, msg, done_last_sent),
            )

    def finish(v: int, at: float, last_sent: int) -> None:
        nonlocal makespan
        h = hosts[v]
        h.agent.finalize()
        h.is_done = True
        makespan = max(makespan, at)
        broadcast(
            v,
            "done",
            MarkerMsg(sender=v, marked=bool(h.agent.rule2_marked), stage="rule2"),
            at,
            done_last_sent=last_sent,
        )

    # hosts with no neighbors never participate: unmarked immediately
    for v, h in enumerate(hosts):
        if not h.agent.neighbors:
            h.agent.marked = False
            h.agent.marked_post_rule1 = False
            h.agent.final_marked = False
            h.is_done = True

    # t = 0: everyone transmits its neighbor set
    for v, h in enumerate(hosts):
        if not h.is_done:
            broadcast(v, "nbrsets", h.agent.make_neighbor_set_msg(), 0.0)

    def advance(v: int, at: float) -> None:
        """Consume the host's next stage (barrier known complete)."""
        nonlocal max_wave
        h = hosts[v]
        a = h.agent
        stage = h.next_stage
        inbox = h.stage_inbox.pop(stage, [])
        h.next_stage = _stage_after(stage)
        if stage == "nbrsets":
            a.receive_neighbor_sets(inbox)
            broadcast(v, "marking", a.decide_marker(), at)
        elif stage == "marking":
            a.receive_markers(inbox)
            broadcast(v, "rule1", a.decide_rule1(), at)
        elif stage == "rule1":
            a.receive_rule1_markers(inbox)
            a.begin_rule2()
            for u, marked in h.frozen_markers.items():
                a.nbr_rule2_marked[u] = marked
            broadcast(v, "m:0", a.make_rule2_marker_msg(), at)
        elif stage.startswith("m:"):
            a.receive_rule2_markers(inbox)
            for u, marked in h.frozen_markers.items():
                a.nbr_rule2_marked[u] = marked
            broadcast(v, f"c:{stage[2:]}", a.make_candidacy_msg(), at)
        elif stage.startswith("c:"):
            wave = int(stage[2:])
            a.receive_candidacies(inbox)
            for u in h.frozen_markers:
                a.nbr_candidate[u] = False
            a.decide_rule2_subround()
            # local termination: if neither I nor any live neighbor is a
            # candidate, nothing in my closed neighborhood can ever change
            locally_active = a.rule2_fires() or any(
                a.nbr_candidate.get(u, False)
                for u in a.neighbors
                if u not in h.done_neighbors
            )
            if locally_active:
                max_wave = max(max_wave, wave + 1)
                broadcast(v, f"m:{wave + 1}", a.make_rule2_marker_msg(), at)
            else:
                finish(v, at, last_sent=_stage_index(f"c:{wave}"))
        else:  # pragma: no cover - internal stage strings
            raise ProtocolError(f"unknown stage {stage}")

    def drain(v: int, at: float) -> None:
        h = hosts[v]
        while not h.is_done and h.next_ready():
            advance(v, at)
        # all remaining correspondents departed mid-wave: freeze now
        if (
            not h.is_done
            and h.agent.marked_post_rule1 is not None
            and len(h.done_neighbors) == len(h.agent.neighbors)
        ):
            # with every neighbor's final state known, my own decision is
            # immediate: no candidate rivals remain, so if my rule fires I
            # commit, and either way nothing can change afterwards
            a = h.agent
            for u, marked in h.frozen_markers.items():
                a.nbr_rule2_marked[u] = marked
                a.nbr_candidate[u] = False
            a.decide_rule2_subround()
            finish(v, at, last_sent=_stage_index(h.next_stage))

    last_time = 0.0

    def pump() -> None:
        nonlocal last_time
        while heap:
            ev = heapq.heappop(heap)
            last_time = max(last_time, ev.time)
            h = hosts[ev.receiver]
            if h.is_done:
                continue
            sender = ev.message.sender
            if realization is not None and sender not in h.agent.neighbors:
                continue  # frame from a correspondent this host already dropped
            if ev.done_last_sent is not None:
                h.done_neighbors[sender] = ev.done_last_sent
                assert isinstance(ev.message, MarkerMsg)
                h.frozen_markers[sender] = ev.message.marked
                # apply eagerly once the Rule-2 tables exist; before that
                # the rule1-consumption step applies frozen_markers lazily
                if hasattr(h.agent, "nbr_rule2_marked"):
                    h.agent.nbr_rule2_marked[sender] = ev.message.marked
                    h.agent.nbr_candidate[sender] = False
            else:
                h.stage_inbox.setdefault(ev.stage, []).append(ev.message)
            drain(ev.receiver, ev.time)

    pump()

    # With bounded retries and crashes, a host can block forever on a
    # correspondent that will never speak again (crashed, or every attempt
    # lost).  Resolve quiescent deadlocks the way a real node would — by
    # timing the silence out: each sweep charges one detection window and
    # applies the failure policy to the hosts still waiting.
    while realization is not None:
        blocked = [v for v, h in enumerate(hosts) if not h.is_done]
        if not blocked:
            break
        t_detect = last_time + (max_retries + 1) * retx_timeout
        if pol is FailurePolicy.STRICT:
            # diagnose the root cause across ALL blocked hosts: a crash
            # victim's silence cascades, so a host can block on live peers
            # that are themselves blocked on the crashed node
            for v in blocked:
                h = hosts[v]
                stg = h.next_stage
                got = {m.sender for m in h.stage_inbox.get(stg, [])}
                dead = sorted(
                    u for u in h.agent.neighbors if u in crashed and u not in got
                )
                if dead:
                    raise NodeCrashError(
                        f"host {v} lost neighbor(s) {dead} to a crash while "
                        f"waiting on stage {stg}"
                    )
            v = blocked[0]
            h = hosts[v]
            raise ChannelError(
                f"host {v} is missing stage {h.next_stage} frames "
                f"after {max_retries} retries"
            )
        progress = False
        for v in blocked:
            h = hosts[v]
            a = h.agent
            if h.is_done:
                continue
            stg = h.next_stage
            idx = _stage_index(stg)
            got = {m.sender for m in h.stage_inbox.get(stg, [])}
            waiting = [
                u
                for u in sorted(a.neighbors)
                if u not in got
                and not (u in h.done_neighbors and h.done_neighbors[u] < idx)
            ]
            if not waiting:
                drain(v, t_detect)
                progress = progress or h.is_done
                continue
            for u in waiting:
                a.drop_neighbor(u)
                h.done_neighbors.pop(u, None)
                h.frozen_markers.pop(u, None)
                for box in h.stage_inbox.values():
                    box[:] = [m for m in box if m.sender != u]
                if u not in crashed:
                    suspected.add(u)
                progress = True
            drain(v, t_detect)
        last_time = t_detect
        pump()
        if not progress:  # pragma: no cover - safety net
            raise ProtocolError("fault resolution made no progress")

    for h in hosts:
        if h.agent.final_marked is None:  # pragma: no cover - safety net
            h.agent.finalize()

    gateways = frozenset(
        v for v, h in enumerate(hosts) if h.agent.final_marked and not h.crashed
    )
    return AsyncOutcome(
        gateways=gateways,
        makespan=makespan,
        messages_sent=sent,
        rule2_waves=max_wave,
        crashed=frozenset(crashed),
        suspected=frozenset(suspected),
        dropped_frames=dropped_frames,
    )


def run_async_cds(
    graph: SupportsNeighborhoods,
    scheme: str | PriorityScheme = "id",
    energy=None,
    **kwargs,
) -> AsyncOutcome:
    """Instrumented front door for :func:`_run_async_cds_impl`.

    Same signature and semantics (see the impl docstring for the full
    parameter reference); additionally wraps the execution in an
    ``async_cds`` observability span and publishes the outcome's traffic
    numbers as ``async.*`` counters — named after the
    :class:`~repro.faults.outcome.FaultOutcome` fields they correspond
    to, so sync and async runs read the same way in a profile.
    """
    with obs.span("async_cds"):
        out = _run_async_cds_impl(graph, scheme, energy, **kwargs)
        if obs.enabled():
            obs.count("async.runs")
            obs.add("async.messages_sent", out.messages_sent)
            obs.add("async.rule2_waves", out.rule2_waves)
            obs.add("async.dropped_frames", out.dropped_frames)
            obs.add("async.crashed", len(out.crashed))
            obs.add("async.suspected", len(out.suspected))
    return out
