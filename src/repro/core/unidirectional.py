"""Dominating-and-absorbing sets for digraphs with unidirectional links.

The paper's model assumes bidirectional links; its stated future work —
and Wu's own follow-up ("Extended dominating-set-based routing in ad hoc
wireless networks with unidirectional links") — drops that assumption.
This module implements the directed generalization on the
:mod:`repro.graphs.digraph` substrate.

Definitions (for a digraph ``G`` with in-/out-neighborhoods ``I(v)``,
``O(v)``):

* a set ``S`` is **dominating** iff every ``v ∉ S`` has an in-neighbor in
  ``S`` (someone in ``S`` can transmit to ``v``), and **absorbing** iff
  every ``v ∉ S`` has an out-neighbor in ``S`` (``v`` can transmit to
  someone in ``S``).  Routing needs both: a non-gateway host must be able
  to hand packets to the backbone and receive them from it.

**Directed marking process** —

    ``m(v) = T  iff  ∃ u ∈ I(v), w ∈ O(v), u ≠ w, w ∉ O(u)``

i.e. ``v`` is a gateway iff it relays for some pair (an in-neighbor that
cannot reach one of ``v``'s out-neighbors directly).  This is the exact
directed analog of "two unconnected neighbors": on a symmetric digraph it
coincides with the Wu–Li marking (asserted by the tests).  The shortest-
path argument carries over verbatim: any intermediate ``vᵢ`` of a
shortest directed path has ``vᵢ₋₁ ∈ I(vᵢ)``, ``vᵢ₊₁ ∈ O(vᵢ)`` and no arc
``vᵢ₋₁ → vᵢ₊₁`` (else a shortcut), so every shortest path routes through
marked hosts (the directed Property 3); domination and absorption follow
by applying it to paths into and out of each unmarked host, and the
induced subgraph inherits strong connectivity (directed Property 2).
All three are verified by the property suite on random strongly
connected digraphs.

**Directed Rule 1** — unmark marked ``v`` when some marked ``u`` with a
*mutual* arc pair (``u ∈ I(v) ∩ O(v)``) satisfies

    ``I(v) ⊆ I(u) ∪ {u}``   and   ``O(v) ⊆ O(u) ∪ {u}``   and
    ``key(v) < key(u)``

so ``u`` can take over both directions of every path through ``v``.
Applied simultaneously; safety follows from the same ascending-key chain
argument as the undirected Rule 1 (both coverage relations are
transitive along chains).

**Directed Rule k** — unmark marked ``v`` when a set ``C`` of marked
hosts, each with ``key > key(v)`` and each having a mutual arc with
``v``'s neighborhood structure as below, jointly covers it:
``C ⊆ I(v) ∩ O(v)``, ``C`` is strongly connected using only mutual arcs
among its members, ``I(v) ⊆ ∪_{u∈C} I(u) ∪ C`` and
``O(v) ⊆ ∪_{u∈C} O(u) ∪ C``.  Restricting coverers to higher keys makes
the simultaneous pass safe exactly as in :mod:`repro.core.rule_k`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.pipeline import validate_energy
from repro.core.priority import PriorityScheme, scheme_by_name
from repro.graphs import bitset
from repro.graphs.digraph import DirectedView

__all__ = [
    "directed_marking",
    "directed_rule1_pass",
    "directed_rule_k_pass",
    "compute_directed_cds",
    "is_dominating_and_absorbing",
    "strongly_connected_within",
]


def directed_marking(view: DirectedView) -> int:
    """The directed marking process; returns the marked bitmask."""
    out = view.out_adj
    inn = view.in_adj
    marked = 0
    for v in range(view.n):
        ov = out[v]
        iv = inn[v]
        m = iv
        hit = False
        while m and not hit:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            # some out-neighbor of v (other than u) that u cannot reach
            if ov & ~(out[u] | low):
                hit = True
        if hit:
            marked |= 1 << v
    return marked


def _keys(view: DirectedView, scheme: PriorityScheme, energy):
    # degree for the ND component = total distinct neighbors (in or out)
    degrees = [
        bitset.popcount(o | i) for o, i in zip(view.out_adj, view.in_adj)
    ]
    return scheme.keys(degrees, energy)


def directed_rule1_pass(
    view: DirectedView,
    marked: int,
    scheme: PriorityScheme,
    energy: Sequence[float] | None = None,
) -> int:
    """One simultaneous directed Rule-1 pass."""
    out, inn = view.out_adj, view.in_adj
    keys = _keys(view, scheme, energy)
    removed = 0
    m = marked
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        mutual = out[v] & inn[v] & marked  # marked, arcs both ways with v
        cand = mutual
        while cand:
            lu = cand & -cand
            u = lu.bit_length() - 1
            cand ^= lu
            if (
                keys[v] < keys[u]
                and bitset.is_subset(inn[v], inn[u] | lu)
                and bitset.is_subset(out[v], out[u] | lu)
            ):
                removed |= low
                break
    return marked & ~removed


def directed_rule_k_pass(
    view: DirectedView,
    marked: int,
    scheme: PriorityScheme,
    energy: Sequence[float] | None = None,
) -> int:
    """One simultaneous directed Rule-k pass (higher-key coverer sets)."""
    out, inn = view.out_adj, view.in_adj
    keys = _keys(view, scheme, energy)
    mutual_adj = [o & i for o, i in zip(out, inn)]
    removed = 0
    m = marked
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        # candidate coverers: marked, mutual arcs with v, strictly higher key
        stronger = 0
        cand = mutual_adj[v] & marked
        while cand:
            lu = cand & -cand
            u = lu.bit_length() - 1
            cand ^= lu
            if keys[u] > keys[v]:
                stronger |= lu
        if not stronger:
            continue
        if _component_covers(mutual_adj, inn, out, stronger, v):
            removed |= low
    return marked & ~removed


def _component_covers(mutual_adj, inn, out, members: int, v: int) -> bool:
    """Does some mutual-arc-connected component of ``members`` cover both
    I(v) and O(v) (its own members counting as covered)?"""
    iv, ov = inn[v], out[v]
    remaining = members
    while remaining:
        seed = remaining & -remaining
        reached = seed
        frontier = seed
        in_union = out_union = 0
        while frontier:
            nxt = 0
            mm = frontier
            while mm:
                lw = mm & -mm
                w = lw.bit_length() - 1
                mm ^= lw
                in_union |= inn[w]
                out_union |= out[w]
                nxt |= mutual_adj[w]
            nxt &= members & ~reached
            reached |= nxt
            frontier = nxt
        cover_in = in_union | reached
        cover_out = out_union | reached
        if bitset.is_subset(iv, cover_in) and bitset.is_subset(ov, cover_out):
            return True
        remaining &= ~reached
    return False


def compute_directed_cds(
    view: DirectedView,
    scheme: str | PriorityScheme = "id",
    energy: Sequence[float] | None = None,
    *,
    use_rule_k: bool = False,
) -> frozenset[int]:
    """Directed marking + directed Rule 1 (+ optionally Rule k).

    Returns the gateway set — a dominating *and* absorbing set whose
    induced subgraph is strongly connected (for strongly connected,
    non-trivial inputs).
    """
    sch = scheme_by_name(scheme) if isinstance(scheme, str) else scheme
    validate_energy(sch, energy, view.n)
    marked = directed_marking(view)
    if sch.uses_rules:
        marked = directed_rule1_pass(view, marked, sch, energy)
        if use_rule_k:
            marked = directed_rule_k_pass(view, marked, sch, energy)
    return frozenset(bitset.ids_from_mask(marked))


# -- verification -----------------------------------------------------------


def is_dominating_and_absorbing(view: DirectedView, members) -> bool:
    """Every outsider hears someone in the set and is heard by someone."""
    mask = members if isinstance(members, int) else bitset.mask_from_ids(members)
    n = view.n
    full = (1 << n) - 1
    dominated = mask
    absorbed = mask
    m = mask
    while m:
        low = m & -m
        g = low.bit_length() - 1
        m ^= low
        dominated |= view.out_adj[g]  # g transmits to these
        absorbed |= view.in_adj[g]    # these can transmit to g
    return dominated == full and absorbed == full


def strongly_connected_within(view: DirectedView, members) -> bool:
    """Is the member-induced subgraph strongly connected (≤1 member ok)?"""
    mask = members if isinstance(members, int) else bitset.mask_from_ids(members)
    if bitset.popcount(mask) <= 1:
        return True
    start = (mask & -mask).bit_length() - 1
    for adj in (view.out_adj, view.in_adj):
        reached = 1 << start
        frontier = reached
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            nxt &= mask & ~reached
            reached |= nxt
            frontier = nxt
        if reached != mask:
            return False
    return True
