"""The Rule-k generalization (Dai & Wu's follow-up to this paper).

Rule 1 covers ``N[v]`` with one neighbor; Rule 2 covers ``N(v)`` with two.
The natural closure — published by Dai and Wu as the *extended localized
algorithm* — covers ``N(v)`` with **any connected set of higher-priority
marked neighbors**:

    unmark ``v`` iff there exists a set ``C ⊆ N(v)`` of marked neighbors,
    each with ``key(u) > key(v)``, such that ``C`` is connected in G and
    ``N(v) ⊆ ∪_{u∈C} N(u)``.

Because every coverer strictly outranks ``v``, *simultaneous* application
is safe (unlike the paper's pair rules — see :mod:`repro.core.rules`):
order nodes by descending key; the top-ranked removed node's coverers are
all unremovable by induction, so coverage never collapses.  This module
implements the rule as a single simultaneous pass and the test suite
verifies the CDS invariants on random graphs.

Implementation note: it suffices to check the single candidate set
``C* = { marked u ∈ N(v) : key(u) > key(v) }`` componentwise — if any
connected component of ``C*`` covers ``N(v)``, a minimal witness exists
inside it, and components of a superset can only cover more.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.marking import marked_mask
from repro.core.pipeline import validate_energy
from repro.core.priority import PriorityScheme, scheme_by_name
from repro.graphs import bitset
from repro.graphs.neighborhoods import degree_sequence
from repro.types import SupportsNeighborhoods

__all__ = ["rule_k_pass", "compute_cds_rule_k"]


def rule_k_pass(
    adjacency: Sequence[int],
    marked: int,
    scheme: PriorityScheme,
    energy: Sequence[float] | None = None,
) -> int:
    """One simultaneous Rule-k pass; returns the new marked mask."""
    adj = list(adjacency)
    degrees = degree_sequence(adj)
    keys = scheme.keys(degrees, energy)

    removed = 0
    m = marked
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        nv = adj[v]
        # higher-priority marked neighbors
        stronger = 0
        cand = nv & marked
        while cand:
            lu = cand & -cand
            u = lu.bit_length() - 1
            cand ^= lu
            if keys[u] > keys[v]:
                stronger |= lu
        if not stronger:
            continue
        # singleton case = Rule 1 shape (closed coverage; an open-coverage
        # singleton can never fire because u is outside its own N(u))
        closed_v = nv | low
        fired = False
        cand = stronger
        while cand:
            lu = cand & -cand
            u = lu.bit_length() - 1
            cand ^= lu
            if bitset.is_subset(closed_v, adj[u] | lu):
                fired = True
                break
        if fired or _some_component_covers(adj, stronger, nv):
            removed |= low
    return marked & ~removed


def _some_component_covers(adj: Sequence[int], members: int, target: int) -> bool:
    """Does any connected component of ``members`` (within G) cover
    ``target`` with the union of its open neighborhoods?"""
    remaining = members
    while remaining:
        seed = remaining & -remaining
        reached = seed
        frontier = seed
        union = 0
        while frontier:
            nxt = 0
            mm = frontier
            while mm:
                lw = mm & -mm
                w = lw.bit_length() - 1
                mm ^= lw
                union |= adj[w]
                nxt |= adj[w]
            nxt &= members & ~reached
            reached |= nxt
            frontier = nxt
        if bitset.is_subset(target, union):
            return True
        remaining &= ~reached
    return False


def compute_cds_rule_k(
    graph: SupportsNeighborhoods | Sequence[int],
    scheme: str | PriorityScheme = "id",
    energy: Sequence[float] | None = None,
) -> frozenset[int]:
    """Marking process + one Rule-k pass under ``scheme``.

    Returns the gateway set.  Typically smaller than the Rule 1+2 result
    (arbitrary-size coverage sets), but not always: the pair rules' case 1
    removes a covered node even when its coverers have *lower* keys,
    whereas Rule k insists on strictly higher-priority coverers (that
    restriction is what buys simultaneous-pass safety).  The ablation
    bench quantifies the trade-off.
    """
    adj = graph.adjacency if hasattr(graph, "adjacency") else graph
    adj = list(adj)
    sch = scheme_by_name(scheme) if isinstance(scheme, str) else scheme
    validate_energy(sch, energy, len(adj))
    marked = marked_mask(adj)
    if sch.uses_rules:
        marked = rule_k_pass(adj, marked, sch, energy)
    return frozenset(bitset.ids_from_mask(marked))
