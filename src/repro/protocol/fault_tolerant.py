"""Fault-tolerant execution of the distributed CDS protocol.

:func:`run_fault_tolerant_cds` runs the same per-host state machines as
:func:`repro.protocol.distributed_cds.distributed_cds`, but over a radio
layer scripted by a :class:`repro.faults.plan.FaultPlan`: frames drop or
slip rounds, and hosts crash silent at a given protocol stage.  The
engine adds the two ingredients the happy-path protocol lacks:

**Bounded retransmission.**  Each protocol stage becomes a mini ARQ
exchange: every participant transmits its stage frame, then retransmits
(up to ``max_retries`` extra rounds) while some neighbor in its local
view still lacks it — an implicit-NACK abstraction of link-layer acks.
Receivers deduplicate by sender.  Stage indices follow the async engine's
total order: 0 = neighbor sets, 1 = marking, 2 = Rule 1, then pairs
(3+2k, 4+2k) for the Rule-2 sub-rounds.

**Failure policy.**  After the retry budget, a receiver still missing a
neighbor's frame either raises (``strict`` — :class:`ChannelError`, or
:class:`NodeCrashError` when the sender really crashed) or declares the
neighbor departed and continues on the surviving local view
(``degrade``).  Degraded views can diverge between hosts — that is the
nature of the beast — so after quiescence the engine verifies Properties
1–2 on the surviving component(s), applies localized 2-hop repair around
detected crashes, and (optionally) escalates to a per-component full
recomputation.  The returned :class:`~repro.faults.outcome.FaultOutcome`
reports convergence, residual coverage gap, and the retransmission bill.
"""

from __future__ import annotations

import itertools

from repro.core.pipeline import validate_energy
from repro.core.priority import PriorityScheme, scheme_by_name
from repro.errors import ChannelError, ConfigurationError, NodeCrashError
from repro.faults.outcome import FaultOutcome, evaluate_surviving
from repro.faults.plan import FaultPlan
from repro.faults.repair import full_recompute, localized_repair
from repro.graphs import bitset
from repro.protocol.messages import Message
from repro.protocol.network_sim import SyncNetwork
from repro.protocol.node_agent import FailurePolicy, NodeAgent
from repro.types import SupportsNeighborhoods

__all__ = ["run_fault_tolerant_cds"]


def run_fault_tolerant_cds(
    graph: SupportsNeighborhoods,
    scheme: str | PriorityScheme = "id",
    energy=None,
    *,
    plan: FaultPlan | None = None,
    policy: FailurePolicy | str = FailurePolicy.DEGRADE,
    max_retries: int = 6,
    repair: bool = True,
    fallback_full: bool = False,
    max_subrounds: int | None = None,
) -> FaultOutcome:
    """Run the CDS protocol under ``plan`` with retransmission + repair.

    With a null plan and any policy this computes exactly the happy-path
    result (the equivalence guard in the suite asserts it).  Under
    ``degrade`` the call never raises for channel trouble; the outcome
    records whether the surviving component is still dominated.
    """
    sch = scheme_by_name(scheme) if isinstance(scheme, str) else scheme
    pol = FailurePolicy.resolve(policy)
    if max_retries < 0:
        raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
    adj = list(graph.adjacency)
    n = len(adj)
    arr = validate_energy(sch, energy, n)
    levels = [0.0] * n if arr is None else arr.tolist()

    realization = (plan or FaultPlan()).realize()
    net = SyncNetwork(adj, link_filter=realization.link_event)
    agents = [
        NodeAgent(
            v,
            frozenset(bitset.ids_from_mask(adj[v])),
            sch,
            energy=levels[v],
            policy=pol,
        )
        for v in range(n)
    ]

    alive = [True] * n
    crashed: set[int] = set()
    #: last marker a crashed host was known to carry (None: crashed before
    #: deciding — treated as a potential gateway for repair purposes)
    crash_markers: dict[int, bool | None] = {}
    suspected: set[int] = set()

    def update_crashes(stage_idx: int) -> None:
        for v in range(n):
            cs = realization.crash_stage(v)
            if cs is not None and cs <= stage_idx and alive[v]:
                alive[v] = False
                crashed.add(v)
                a = agents[v]
                marker = a.rule2_marked if hasattr(a, "rule2_marked") else (
                    a.marked_post_rule1 if a.marked_post_rule1 is not None else a.marked
                )
                crash_markers[v] = marker

    def exchange(stage_label: str, frames: dict[int, Message]) -> dict[int, list[Message]]:
        """One ARQ stage: transmit, retry, then apply the failure policy."""
        #: receiver -> {sender: frame}
        acc: dict[int, dict[int, Message]] = {v: {} for v in range(n)}
        # a sender keeps retransmitting while some neighbor in its *local
        # view* lacks the frame (implicit NACK); departed neighbors were
        # already dropped from that view, so no bandwidth is wasted on them
        pending = {v: set(agents[v].neighbors) for v in frames}
        for attempt in range(max_retries + 1):
            senders = [v for v in frames if pending[v]] if attempt else list(frames)
            if not senders and not net.has_delayed:
                break
            for v in senders:
                net.broadcast(v, frames[v], retransmission=attempt > 0)
            inboxes = net.deliver_round()
            for r, box in enumerate(inboxes):
                for msg in box:
                    acc[r].setdefault(msg.sender, msg)
                    if msg.sender in pending:
                        pending[msg.sender].discard(r)
        while net.has_delayed:  # late frames still count
            for r, box in enumerate(net.deliver_round()):
                for msg in box:
                    acc[r].setdefault(msg.sender, msg)
        out: dict[int, list[Message]] = {}
        for r in range(n):
            if not alive[r]:
                continue
            ag = agents[r]
            missing = [u for u in sorted(ag.neighbors) if u not in acc[r]]
            if missing:
                if pol is FailurePolicy.STRICT:
                    dead = [u for u in missing if u in crashed]
                    if dead:
                        raise NodeCrashError(
                            f"host {r} lost neighbor(s) {dead} to a crash "
                            f"during stage {stage_label}"
                        )
                    raise ChannelError(
                        f"host {r} missing stage {stage_label} frames from "
                        f"{missing} after {max_retries} retries"
                    )
                for u in missing:
                    ag.drop_neighbor(u)
                    if u not in crashed:
                        suspected.add(u)
            out[r] = [m for u, m in acc[r].items() if u in ag.neighbors]
        return out

    stage = itertools.count()

    def participates(v: int) -> bool:
        # a host keeps transmitting on its radio even if its *logical*
        # view emptied through drops; only crashed or physically isolated
        # hosts are out of the protocol
        return alive[v] and adj[v] != 0

    def run_stage(label: str, make, receive) -> None:
        idx = next(stage)
        update_crashes(idx)
        frames = {a.node: make(a) for a in agents if participates(a.node)}
        inboxes = exchange(label, frames)
        for v, box in inboxes.items():
            receive(agents[v], box)

    # isolated hosts (no radio neighbors) never participate
    for a in agents:
        if not a.neighbors:
            a.marked = a.marked_post_rule1 = a.final_marked = False

    run_stage("nbrsets", NodeAgent.make_neighbor_set_msg, NodeAgent.receive_neighbor_sets)
    run_stage("marking", NodeAgent.decide_marker, NodeAgent.receive_markers)
    run_stage("rule1", NodeAgent.decide_rule1, NodeAgent.receive_rule1_markers)

    for a in agents:
        if participates(a.node):
            a.begin_rule2()

    completed = True
    subrounds = 0
    cap = max_subrounds if max_subrounds is not None else n + 5
    while True:
        run_stage(
            f"m:{subrounds}",
            NodeAgent.make_rule2_marker_msg,
            NodeAgent.receive_rule2_markers,
        )
        run_stage(
            f"c:{subrounds}",
            NodeAgent.make_candidacy_msg,
            NodeAgent.receive_candidacies,
        )
        subrounds += 1
        committed = [
            a.decide_rule2_subround() for a in agents if participates(a.node)
        ]
        if not any(committed):
            break
        if subrounds >= cap:
            completed = False  # degraded views refused to quiesce
            break

    gw_mask = 0
    for a in agents:
        if participates(a.node) and a.finalize():
            gw_mask |= 1 << a.node
    crashed_mask = bitset.mask_from_ids(crashed)
    check = evaluate_surviving(adj, crashed_mask, gw_mask)

    repair_applied = False
    ball = 0
    used_full = False
    gateway_crash = any(marker is not False for marker in crash_markers.values())
    if repair and crashed and (gateway_crash or not check.ok):
        gw_mask, ball = localized_repair(
            adj, crashed_mask, gw_mask, sch, levels
        )
        repair_applied = True
        check = evaluate_surviving(adj, crashed_mask, gw_mask)
    if fallback_full and completed and not check.ok:
        gw_mask = full_recompute(adj, crashed_mask, sch, levels)
        used_full = True
        check = evaluate_surviving(adj, crashed_mask, gw_mask)

    stats = net.stats
    return FaultOutcome(
        gateways=frozenset(bitset.ids_from_mask(gw_mask)),
        crashed=frozenset(crashed),
        suspected=frozenset(suspected),
        completed=completed,
        check=check,
        rounds=stats.rounds,
        baseline_rounds=3 + 2 * subrounds,
        broadcasts=stats.broadcasts,
        retransmissions=stats.retransmissions,
        dropped=stats.dropped,
        repair_applied=repair_applied,
        repair_ball=ball,
        used_full_recompute=used_full,
    )
