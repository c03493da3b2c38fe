"""The full distributed CDS protocol, end to end.

Synchronous rounds:

1. every host broadcasts ``NeighborSetMsg`` (its N(v) + energy) —
   afterwards every host holds distance-2 knowledge;
2. every host decides its marker locally and broadcasts it;
3. every marked host applies Rule 1 locally and broadcasts its
   (possibly changed) status — the paper's "additional step" that Rule 2
   requires;
4+. Rule-2 *sub-rounds* until quiescence: marker refresh, candidacy
   announcement, then each firing host unmarks iff no firing neighbor has
   a smaller priority key.  The sub-round structure is what makes batch
   Rule 2 sound (see :mod:`repro.core.rules`); the surviving markers are
   the connected dominating set.

``distributed_cds`` returns the gateway set plus traffic statistics.  The
test suite asserts bit-for-bit equality with the centralized
:func:`repro.core.cds.compute_cds` for every scheme on random graphs —
the executable form of the paper's claim that the algorithm is fully
decentralized.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import validate_energy
from repro.core.priority import PriorityScheme, scheme_by_name
from repro.graphs import bitset
from repro.protocol.network_sim import SyncNetwork, TrafficStats
from repro.protocol.node_agent import NodeAgent
from repro.types import SupportsNeighborhoods

__all__ = ["DistributedCDS", "distributed_cds"]


@dataclass(frozen=True)
class DistributedCDS:
    """Protocol outcome: the gateway set and what it cost on the air."""

    gateways: frozenset[int]
    stats: TrafficStats
    agents: tuple[NodeAgent, ...]

    @property
    def size(self) -> int:
        return len(self.gateways)


def distributed_cds(
    graph: SupportsNeighborhoods,
    scheme: str | PriorityScheme = "id",
    energy=None,
) -> DistributedCDS:
    """Run the 4-round protocol on ``graph`` under ``scheme``."""
    sch = scheme_by_name(scheme) if isinstance(scheme, str) else scheme
    adj = list(graph.adjacency)
    n = len(adj)
    arr = validate_energy(sch, energy, n)
    levels = [0.0] * n if arr is None else arr.tolist()

    net = SyncNetwork(adj)
    agents = [
        NodeAgent(
            v,
            frozenset(bitset.ids_from_mask(adj[v])),
            sch,
            energy=levels[v],
        )
        for v in range(n)
    ]

    # round 1: neighbor-set exchange
    for a in agents:
        net.broadcast(a.node, a.make_neighbor_set_msg())
    inboxes = net.deliver_round()
    for a in agents:
        a.receive_neighbor_sets(inboxes[a.node])

    # round 2: marking
    for a in agents:
        net.broadcast(a.node, a.decide_marker())
    inboxes = net.deliver_round()
    for a in agents:
        a.receive_markers(inboxes[a.node])

    # round 3: Rule 1
    for a in agents:
        net.broadcast(a.node, a.decide_rule1())
    inboxes = net.deliver_round()
    for a in agents:
        a.receive_rule1_markers(inboxes[a.node])

    # rounds 4+: Rule 2 sub-rounds (marker refresh, then candidacy; a
    # candidate unmarks iff no candidate neighbor has a smaller key).
    # Convergence: each sub-round with any candidate commits at least the
    # globally weakest one, so at most n sub-rounds run; in practice a
    # handful.  See repro.core.rules for the soundness discussion.
    for a in agents:
        a.begin_rule2()
    while True:
        for a in agents:
            net.broadcast(a.node, a.make_rule2_marker_msg())
        inboxes = net.deliver_round()
        for a in agents:
            a.receive_rule2_markers(inboxes[a.node])

        for a in agents:
            net.broadcast(a.node, a.make_candidacy_msg())
        inboxes = net.deliver_round()
        for a in agents:
            a.receive_candidacies(inboxes[a.node])

        committed = [a.decide_rule2_subround() for a in agents]
        if not any(committed):
            break

    gateways = frozenset(a.node for a in agents if a.finalize())
    return DistributedCDS(gateways=gateways, stats=net.stats, agents=tuple(agents))
