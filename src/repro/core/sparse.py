"""Sparse streaming CDS engine: CSR adjacency + per-component execution.

The dense batch engine (:mod:`repro.core.vectorized`) stores every element
as packed ``(n, W)`` uint64 rows, so one topology costs ``n²/8`` bytes of
adjacency before any kernel runs — 1.25 GB at n = 100k, which is where the
10k-proven path tops out (ROADMAP item 1).  The construction itself is
purely local (2-hop marking + Rules 1/2), so its *information* cost is
``O(E)``: this module re-expresses the whole computation over a CSR edge
list and never materializes a dense row.

Layout
------
A :class:`CSRBatch` stacks ``B`` same-``n`` topologies as one flat CSR:
``indptr`` has ``B·n + 1`` entries over flat rows ``b·n + v`` and ``dst``
holds *local* destination ids sorted ascending within each row — exactly
the ``(eS, eD)`` order the dense edge table produces, so the reverse-edge
lexsort trick and the sorted-key membership probe both carry over.

Execution is two-tier, decided per connected component:

* **tiny** (≤ 2 nodes): nothing can be marked — skipped outright;
* **small** (3 ≤ size ≤ ``dense_cutoff``): components are grouped by size
  and re-packed into dense ``(k, size, W)`` sub-batches for
  :class:`BatchCDSEngine` — each component is an independent dense
  sub-problem bounded by its *own* size, not ``n``.  The node remap is
  ascending-flat-id, which preserves the relative id order every scheme
  tiebreak uses (the same argument ``repro.core.registry`` makes for its
  baseline decomposition);
* **big** (> cutoff): streamed CSR kernels over a per-edge miss
  bitmask table ``X`` of shape ``(E_big, W)`` uint64, ``W = ⌈max
  degree / 64⌉``.  Bit ``i`` of ``X[(v, u)]`` is set iff the ``i``-th
  CSR neighbour of ``v`` is not in ``N(u)`` (``u`` itself always is).
  Marking is ``popcount ≥ 2``, Rule 1 ``popcount == 1``, the Rule-2
  ``u ~ w`` prefilter one bit test, and coverage ``N(v) ⊆ N(u) ∪ N(w)``
  is ``X[(v,u)] & X[(v,w)] == 0`` — word arithmetic, no probe.  ``X`` is
  built once per run by a binary search of the sorted edge-key array
  ``eS·n + eD``; every expansion is chunked by the engine's memory
  budget.

Equivalence contract
--------------------
Per element, gateway flags and :class:`PruneStats` are **bit-identical**
to :func:`repro.core.cds.compute_cds` (which handles disconnected input
by the same local rules):

* marking, Rule 1, Rule 2 and the key ranks are the dense engine's exact
  formulas restricted to one component's edges — components never
  interact, and component degrees equal whole-graph degrees;
* removal counts add across components; ``rounds`` is the *max* over
  components (a stabilized component's extra passes are no-ops in the
  per-element reference loop), floored at one round for rule-running
  schemes exactly like the dense engine's degenerate path;
* per-component ``active`` freezing mirrors the dense per-element
  ``done_b`` freezing, so ``max_rounds`` caps behave identically.

Scale
-----
``CSRBatch.from_positions`` builds the CSR straight from point positions
through :func:`repro.graphs.unitdisk.unit_disk_edge_lists`, the grid hash
the bitmask builders use too, skipping the Python-int adjacency entirely
— at N = 100k the CSR is ~18 MB where dense rows would be 1.25 GB.  All
expansions honour ``memory_budget_mb`` (see
:func:`repro.core.vectorized.resolve_memory_budget_mb`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.cds import CDSResult
from repro.core.pipeline import check_result, validate_energy
from repro.core.priority import PriorityScheme, scheme_by_name
from repro.core.reduction import PruneStats
from repro.core.vectorized import (
    BatchCDSEngine,
    _I32MAX,
    _U64_1,
    _scatter_any,
    chunk_bits,
    chunk_words,
    edge_table,
    flags_to_masks,
    pack_batch,
    pair_index_arrays,
    popcount_rows,
    resolve_memory_budget_mb,
    words_for,
)
from repro.errors import ConfigurationError
from repro.graphs.unitdisk import unit_disk_edge_lists

__all__ = [
    "DENSE_COMPONENT_CUTOFF",
    "CSRBatch",
    "SparseRunDetail",
    "connected_labels",
    "SparseCDSEngine",
    "compute_cds_sparse",
]

#: components at or below this size run as dense sub-batches; above it the
#: streamed CSR kernels take over.  2048 keeps a single dense component
#: under ~8 MB of packed words while the crossover favors dense kernels.
DENSE_COMPONENT_CUTOFF = 2048


@dataclass(frozen=True)
class CSRBatch:
    """``B`` same-``n`` topologies as one flat CSR edge list.

    ``indptr`` is ``(B·n + 1,)`` int64; ``dst`` holds local destination
    node ids, ascending within each flat row ``b·n + v`` — the global
    ``(source, destination)`` sort order every kernel relies on.
    """

    indptr: np.ndarray
    dst: np.ndarray
    B: int
    n: int

    @property
    def nnz(self) -> int:
        """Directed edge count across the whole batch."""
        return len(self.dst)

    @property
    def nbytes(self) -> int:
        """Bytes held by the CSR arrays (the memory-test yardstick)."""
        return int(self.indptr.nbytes + self.dst.nbytes)

    @classmethod
    def from_adjacency(
        cls,
        adjacencies: Sequence[Sequence[int]],
        *,
        memory_budget_mb: float | None = None,
    ) -> "CSRBatch":
        """Stack bitmask adjacency lists (all the same ``n``) into a CSR."""
        adjs = [
            list(a.adjacency) if hasattr(a, "adjacency") else list(a)
            for a in adjacencies
        ]
        B = len(adjs)
        if B == 0:
            return cls(
                np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64), 0, 0
            )
        n = len(adjs[0])
        packed = pack_batch(adjs)
        W = packed.shape[2]
        rows_flat = packed.reshape(B * n, W)
        eS, eD, _ = edge_table(rows_flat, n, chunk_bits(memory_budget_mb))
        deg = np.bincount(eS, minlength=B * n)
        indptr = np.zeros(B * n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        return cls(indptr, eD, B, n)

    @classmethod
    def from_positions(
        cls,
        positions: np.ndarray,
        radius: float,
        *,
        memory_budget_mb: float | None = None,
    ) -> "CSRBatch":
        """Unit-disk CSR straight from ``(n, 2)`` positions (batch of 1).

        Edges come from :func:`repro.graphs.unitdisk.unit_disk_edge_lists`
        (3×3 grid-cell probes, chunked by the memory budget), the same
        hash and float arithmetic behind the bitmask builders, so the edge
        set matches them exactly — without ever allocating an ``n``-bit
        row.
        """
        pos = np.ascontiguousarray(positions, dtype=np.float64)
        n = len(pos)
        empty = np.empty(0, dtype=np.int64)
        if n == 0:
            return cls(np.zeros(1, dtype=np.int64), empty, 1, 0)
        src, dst = unit_disk_edge_lists(
            pos,
            radius,
            np.arange(n, dtype=np.int64),
            chunk_words(memory_budget_mb),
        )
        if len(src) == 0:
            return cls(np.zeros(n + 1, dtype=np.int64), empty, 1, n)
        perm = np.lexsort((dst, src))
        src, dst = src[perm], dst[perm]
        deg = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        return cls(indptr, dst, 1, n)


def connected_labels(indptr: np.ndarray, dst_flat: np.ndarray) -> np.ndarray:
    """Per-flat-row component labels (the min flat id of each component).

    Min-label propagation with full pointer-jumping compression between
    hooking rounds — O(log diameter) numpy passes, no Python per-node
    loop.  ``dst_flat`` holds *flat* destination rows aligned with the
    CSR ``indptr`` segments; isolated rows keep their own label.
    """
    R = len(indptr) - 1
    labels = np.arange(R, dtype=np.int64)
    deg = np.diff(indptr)
    nonempty = np.flatnonzero(deg > 0)
    if len(nonempty) == 0:
        return labels
    starts = indptr[nonempty]
    while True:
        nmin = np.minimum.reduceat(labels[dst_flat], starts)
        hooked = np.minimum(labels[nonempty], nmin)
        if np.array_equal(hooked, labels[nonempty]):
            break
        labels[nonempty] = hooked
        while True:
            nxt = labels[labels]
            if np.array_equal(nxt, labels):
                break
            labels = nxt
    return labels


def _member(
    keys: np.ndarray, rows: np.ndarray, cols: np.ndarray, n: int
) -> np.ndarray:
    """Is ``(rows[k], cols[k])`` a directed edge?  Binary-search probe.

    ``keys`` is the sorted ``eS·n + eD`` array of the (sub)graph's edges.
    ``searchsorted`` returning ``len(keys)`` means the query exceeds every
    key, so clamping to the last slot compares unequal — no branch needed.
    """
    if len(keys) == 0:
        return np.zeros(len(rows), dtype=bool)
    q = rows * n + cols
    idx = np.searchsorted(keys, q)
    idx = np.minimum(idx, len(keys) - 1)
    return keys[idx] == q


@dataclass(frozen=True)
class SparseRunDetail:
    """Per-component results of one :meth:`SparseCDSEngine.run_detailed`.

    All arrays are flat (batch-major, ``R = B·n`` rows).  ``roots`` holds
    each component's min flat-row id — the stable label the incremental
    pipeline keys its caches on; ``comp_of[r]`` indexes into the
    per-component arrays.  ``rounds_c`` is raw (not floored): the
    at-least-one-rule-round floor is an aggregation-time rule.
    """

    flags: np.ndarray
    comp_of: np.ndarray
    roots: np.ndarray
    initial_c: np.ndarray
    rem1_c: np.ndarray
    rem2_c: np.ndarray
    rounds_c: np.ndarray


class SparseCDSEngine:
    """Streaming per-component engine, bit-identical to ``compute_cds``.

    Components at or below ``dense_cutoff`` nodes are delegated to a
    held :class:`BatchCDSEngine` as same-size dense sub-batches; bigger
    ones run the CSR kernels.  One instance is bound to a scheme, the
    fixed-point mode, and a memory budget; ``run`` is stateless across
    calls.
    """

    def __init__(
        self,
        scheme: str | PriorityScheme = "id",
        *,
        fixed_point: bool = False,
        max_rounds: int = 1_000,
        memory_budget_mb: float | None = None,
        dense_cutoff: int = DENSE_COMPONENT_CUTOFF,
    ):
        self.scheme = (
            scheme_by_name(scheme) if isinstance(scheme, str) else scheme
        )
        self.fixed_point = fixed_point
        self.max_rounds = max_rounds
        self.memory_budget_mb = resolve_memory_budget_mb(memory_budget_mb)
        self.dense_cutoff = int(dense_cutoff)
        self._chunk_words = chunk_words(self.memory_budget_mb)
        self._dense = BatchCDSEngine(
            self.scheme,
            fixed_point=fixed_point,
            max_rounds=max_rounds,
            memory_budget_mb=self.memory_budget_mb,
        )

    # -- dense tier --------------------------------------------------------

    def _run_dense_groups(
        self,
        comps: np.ndarray,
        sizes: np.ndarray,
        comp_of: np.ndarray,
        comp_starts: np.ndarray,
        order_nodes: np.ndarray,
        local_of: np.ndarray,
        eS: np.ndarray,
        eDf: np.ndarray,
        energy_flat: np.ndarray | None,
        flags: np.ndarray,
        initial_c: np.ndarray,
        rem1_c: np.ndarray,
        rem2_c: np.ndarray,
        rounds_c: np.ndarray,
    ) -> None:
        """Run small components as same-size dense sub-batches (in place).

        Nodes are remapped ascending by flat id, so every id tiebreak
        keeps its relative order and the dense result transplants back
        bit-identically.
        """
        C = len(sizes)
        slot = np.full(C, -1, dtype=np.int64)
        budget_bytes = max(1 << 20, int(self.memory_budget_mb * (1 << 20)))
        for nc in np.unique(sizes[comps]):
            nc = int(nc)
            group = comps[sizes[comps] == nc]
            Wc = words_for(nc)
            ncols = Wc * 64
            # k components of nc nodes cost k·nc·ncols unpacked bools
            kper = max(1, budget_bytes // (nc * ncols))
            for glo in range(0, len(group), kper):
                gsel = group[glo : glo + kper]
                kc = len(gsel)
                slot[gsel] = np.arange(kc)
                nodes = (
                    comp_starts[gsel][:, None]
                    + np.arange(nc, dtype=np.int64)[None, :]
                )
                nodes = order_nodes[nodes]  # (kc, nc) flat ids, ascending
                in_group = np.zeros(C, dtype=bool)
                in_group[gsel] = True
                esel = in_group[comp_of[eS]]
                es, ed = eS[esel], eDf[esel]
                bits = np.zeros((kc, nc, ncols), dtype=bool)
                bits[slot[comp_of[es]], local_of[es], local_of[ed]] = True
                packed = np.packbits(bits, axis=2, bitorder="little")
                packed = packed.view(np.uint64)
                sub_energy = None
                if energy_flat is not None:
                    sub_energy = energy_flat[nodes]
                sub_flags, sub_stats = self._dense.run(packed, sub_energy)
                flags[nodes.ravel()] = sub_flags.ravel()
                for i, c in enumerate(gsel.tolist()):
                    st = sub_stats[i]
                    initial_c[c] = st.initial_marked
                    rem1_c[c] = st.removed_rule1
                    rem2_c[c] = st.removed_rule2
                    rounds_c[c] = st.rounds
                slot[gsel] = -1

    # -- CSR kernels (big components) --------------------------------------

    def _miss_bits_csr(self, keys, beS, beD, beDf, bdeg, boff):
        """Per-edge miss bitmasks over the big edges, and their popcounts.

        Row ``e = (v, u)`` of the ``(E, W)`` uint64 table ``X`` has bit
        ``i`` set iff the ``i``-th CSR neighbour of ``v`` (big-edge id
        ``boff[v] + i``) is not in ``N(u)``.  ``u`` itself always is, so
        ``misscnt == 1`` ⟺ ``N[v] ⊆ N[u]`` and ``misscnt >= 2`` ⟺ ``u``
        certifies ``v``'s marking.  The only membership probes of the CSR
        path happen here, chunked by the memory budget.
        """
        E = len(beS)
        W = words_for(int(bdeg.max()))
        X = np.zeros((E, W), dtype=np.uint64)
        misscnt = np.zeros(E, dtype=np.int64)
        if E == 0:
            return X, misscnt
        cells = X.reshape(-1)
        counts_all = bdeg[beS]
        avg = max(1.0, float(counts_all.mean()))
        step = max(1, int(self._chunk_words / avg))
        for lo in range(0, E, step):
            hi = min(E, lo + step)
            cnt = counts_all[lo:hi]
            owner = np.repeat(np.arange(hi - lo, dtype=np.int64), cnt)
            first = np.cumsum(cnt) - cnt
            within = np.arange(len(owner), dtype=np.int64) - first[owner]
            xs = beD[boff[beS[lo:hi]][owner] + within]  # neighbours of v
            miss = ~_member(keys, beDf[lo:hi][owner], xs, self._n)
            slot = within[miss]
            # (edge, word) cells are non-decreasing: OR each run of bits
            cell = (owner[miss] + lo) * W + (slot >> 6)
            bits = _U64_1 << (slot & 63).astype(np.uint64)
            run = np.flatnonzero(np.diff(cell, prepend=-1))
            cells[cell[run]] = np.bitwise_or.reduceat(bits, run)
            misscnt[lo:hi] = popcount_rows(X[lo:hi])
        return X, misscnt

    def _rule1_csr(self, beS, beDf, misscnt, marked, rank):
        """Simultaneous Rule-1 pass over the big-component edges."""
        sel = (
            marked[beS]
            & marked[beDf]
            & (rank[beS] < rank[beDf])
            & (misscnt == 1)
        )
        removed = _scatter_any(beS[sel], len(marked))
        return marked & ~removed

    def _firing_triples_csr(
        self, keys, X, brev, beS, beD, beDf, boff, marked, rank
    ):
        """Firing triples of the current marked set, streamed in blocks.

        Semantically ``BatchCDSEngine._firing_triples`` with every test a
        word operation on ``X``; the pair expansion walks source rows in
        blocks of ~``chunk_words / W`` triples so the gathered rows stay
        within the budget and the triple table is never materialized
        whole.
        """
        R = len(marked)
        W = X.shape[1]
        empty = np.empty(0, dtype=np.int64)
        sel = marked[beS] & marked[beDf]
        sel_idx = np.flatnonzero(sel)
        mdeg = np.bincount(beS[sel_idx], minlength=R)
        pcs = mdeg * (mdeg - 1) >> 1
        cum = np.cumsum(pcs)
        total = int(cum[-1]) if R else 0
        if total == 0:
            return empty, empty, empty
        offs = np.cumsum(mdeg) - mdeg  # per-row offset into sel_idx
        block = max(1, self._chunk_words // W)
        cuts = np.searchsorted(cum, np.arange(block, total, block))
        row_bounds = np.unique(np.concatenate(([0], cuts + 1, [R])))
        v_parts: list[np.ndarray] = []
        u_parts: list[np.ndarray] = []
        w_parts: list[np.ndarray] = []
        for bi in range(len(row_bounds) - 1):
            r0, r1 = int(row_bounds[bi]), int(row_bounds[bi + 1])
            sub_mdeg = mdeg[r0:r1]
            i, j = pair_index_arrays(sub_mdeg)
            if len(i) == 0:
                continue
            sub_pcs = sub_mdeg * (sub_mdeg - 1) >> 1
            tV = np.repeat(np.arange(r0, r1, dtype=np.int64), sub_pcs)
            base = np.repeat(offs[r0:r1], sub_pcs)
            gU = sel_idx[base + i]  # big-edge id of (v, u)
            gW = sel_idx[base + j]  # big-edge id of (v, w)
            # prefilter: u and w must be adjacent (see the dense twin),
            # i.e. w's slot in v's row is clear in X[(v, u)]
            s = gW - boff[tV]
            adj_uw = (X[gU, s >> 6] >> (s & 63).astype(np.uint64)) & _U64_1
            keep = adj_uw == 0
            tV, gU, gW = tV[keep], gU[keep], gW[keep]
            # primary coverage: N(v) ⊆ N(u) ∪ N(w) ⟺ no slot misses both
            cov = ~(X[gU] & X[gW]).any(axis=1)
            cV, gU, gW = tV[cov], gU[cov], gW[cov]
            if len(cV) == 0:
                continue
            cUf, cWf = beDf[gU], beDf[gW]
            rv = rank[cV]
            lu = rv < rank[cUf]
            lw = rv < rank[cWf]
            if self.scheme.uses_coverage_cases:
                # mutual-coverage case flags on the rows of u and w:
                # N(u) ⊆ N(v) ∪ N(w) ⟺ X[(u,v)] & X[(u,w)] == 0
                gUW = np.searchsorted(keys, cUf * self._n + beD[gW])
                ccu = ~(X[brev[gU]] & X[gUW]).any(axis=1)
                ccw = ~(X[brev[gW]] & X[brev[gUW]]).any(axis=1)
                lu |= ~ccu
                lw |= ~ccw
            fire = lu & lw
            v_parts.append(cV[fire])
            u_parts.append(cUf[fire])
            w_parts.append(cWf[fire])
        if not v_parts:
            return empty, empty, empty
        return (
            np.concatenate(v_parts),
            np.concatenate(u_parts),
            np.concatenate(w_parts),
        )

    def _rule2_csr(self, keys, X, brev, beS, beD, beDf, boff, marked, rank):
        """One Rule-2 pass (iterated local-minimum rounds) over big comps."""
        R = len(marked)
        fV, fUf, fWf = self._firing_triples_csr(
            keys, X, brev, beS, beD, beDf, boff, marked, rank
        )
        if len(fV) == 0:
            return marked
        current = marked.copy()
        cand = _scatter_any(fV, R)
        ce = cand[beS] & cand[beDf]
        ceS, ceD = beS[ce], beDf[ce]
        while cand.any():
            live = cand[ceS] & cand[ceD]
            minr = np.full(R, _I32MAX, dtype=np.int32)
            ls, ld = ceS[live], ceD[live]
            if len(ls):
                np.minimum.at(minr, ls, rank[ld])
            commit = cand & (rank < minr)
            if not commit.any():  # pragma: no cover - a global min commits
                break
            current &= ~commit
            cand &= ~commit
            alive = current[fUf] & current[fWf]
            cand &= _scatter_any(fV[alive], R)
        return current

    # -- driver ------------------------------------------------------------

    def run(
        self, csr: CSRBatch, energy: np.ndarray | None = None
    ) -> tuple[np.ndarray, list[PruneStats]]:
        """Marking + pruning for every batch element.

        Returns ``(B, n)`` gateway flags and one :class:`PruneStats` per
        element, bit-identical to ``compute_cds`` per element (and hence
        to :meth:`BatchCDSEngine.run` on the packed batch).
        """
        B, n = csr.B, csr.n
        uses_rules = self.scheme.uses_rules
        if B == 0 or n == 0:
            rounds = 1 if uses_rules else 0
            return (
                np.zeros((B, n), dtype=bool),
                [PruneStats(0, 0, 0, rounds)] * B,
            )
        d = self.run_detailed(csr, energy)
        comp_elem = d.roots // n
        initial_b = np.zeros(B, dtype=np.int64)
        rem1_b = np.zeros(B, dtype=np.int64)
        rem2_b = np.zeros(B, dtype=np.int64)
        rounds_b = np.zeros(B, dtype=np.int64)
        np.add.at(initial_b, comp_elem, d.initial_c)
        np.add.at(rem1_b, comp_elem, d.rem1_c)
        np.add.at(rem2_b, comp_elem, d.rem2_c)
        np.maximum.at(rounds_b, comp_elem, d.rounds_c)
        if uses_rules:
            # the reference engine always runs at least one rule round
            rounds_b = np.maximum(rounds_b, 1)
        else:
            rounds_b[:] = 0

        stats = [
            PruneStats(
                int(initial_b[b]),
                int(rem1_b[b]),
                int(rem2_b[b]),
                int(rounds_b[b]),
            )
            for b in range(B)
        ]
        if obs.enabled():
            obs.add("scds.marked", int(initial_b.sum()))
            obs.add("scds.final", int(d.flags.sum()))
            obs.add("scds.rounds", int(rounds_b.sum()))
        return d.flags.reshape(B, n), stats

    def run_detailed(
        self, csr: CSRBatch, energy: np.ndarray | None = None
    ) -> "SparseRunDetail":
        """One engine pass returning *per-component* results.

        The per-element aggregation :meth:`run` performs (sum removals,
        max rounds, floor at one rule round) is left to the caller, which
        is what lets :class:`repro.core.sparse_delta.
        IncrementalSparseCDSPipeline` recompute a dirty subset of
        components and splice cached stats for the rest.  Requires a
        non-degenerate batch (``B ≥ 1`` and ``n ≥ 1``).
        """
        B, n = csr.B, csr.n
        if B * n * n >= 1 << 62:
            raise ConfigurationError(
                f"edge keys for B={B}, n={n} overflow int64; split the batch"
            )
        self._n = n
        R = B * n
        indptr, dst = csr.indptr, csr.dst
        deg = np.diff(indptr)
        eS = np.repeat(np.arange(R, dtype=np.int64), deg)
        eDf = eS - eS % n + dst

        with obs.span("cds_sparse"):
            labels = connected_labels(indptr, eDf)
            roots, comp_of = np.unique(labels, return_inverse=True)
            sizes = np.bincount(comp_of)
            comp_elem = roots // n
            C = len(roots)
            # nodes grouped by component, ascending flat id within each
            order_nodes = np.argsort(comp_of, kind="stable")
            comp_starts = np.cumsum(sizes) - sizes
            local_of = np.empty(R, dtype=np.int64)
            local_of[order_nodes] = (
                np.arange(R, dtype=np.int64) - comp_starts[comp_of[order_nodes]]
            )

            energy_flat = None
            if energy is not None:
                energy_flat = np.asarray(energy, dtype=np.float64).reshape(R)

            flags = np.zeros(R, dtype=bool)
            initial_c = np.zeros(C, dtype=np.int64)
            rem1_c = np.zeros(C, dtype=np.int64)
            rem2_c = np.zeros(C, dtype=np.int64)
            rounds_c = np.zeros(C, dtype=np.int64)

            small = (sizes >= 3) & (sizes <= self.dense_cutoff)
            small_ids = np.flatnonzero(small)
            big = sizes > self.dense_cutoff

            if obs.enabled():
                obs.count("scds.batches")
                obs.add("scds.elements", B)
                obs.add("scds.components", C)
                obs.add("scds.edges", len(eS))
                obs.add("scds.dense_nodes", int(sizes[small].sum()))
                obs.add("scds.csr_nodes", int(sizes[big].sum()))

            if len(small_ids):
                self._run_dense_groups(
                    small_ids, sizes, comp_of, comp_starts, order_nodes,
                    local_of, eS, eDf, energy_flat, flags,
                    initial_c, rem1_c, rem2_c, rounds_c,
                )

            if big.any():
                self._run_big(
                    big, comp_of, comp_elem, deg, eS, eDf, dst,
                    energy_flat, B, n, flags,
                    initial_c, rem1_c, rem2_c, rounds_c,
                )

            return SparseRunDetail(
                flags=flags,
                comp_of=comp_of,
                roots=roots,
                initial_c=initial_c,
                rem1_c=rem1_c,
                rem2_c=rem2_c,
                rounds_c=rounds_c,
            )

    def _run_big(
        self, big, comp_of, comp_elem, deg, eS, eDf, dst,
        energy_flat, B, n, flags,
        initial_c, rem1_c, rem2_c, rounds_c,
    ) -> None:
        """Streamed CSR path for components above the dense cutoff.

        The outer convergence loop mirrors the dense engine's per-element
        ``done_b`` loop with per-*component* activity flags: rounds count
        while active, removals and state updates freeze once a component
        stabilizes (or ``max_rounds`` caps it), so the aggregate stats
        match the reference loop exactly.
        """
        C = len(initial_c)
        bignode = big[comp_of]
        besel = bignode[eS]
        beS, beDf, beD = eS[besel], eDf[besel], dst[besel]
        keys = beS * n + beD  # globally sorted: (src, dst) ascending
        bdeg = np.where(bignode, deg, 0)
        boff = np.cumsum(bdeg) - bdeg
        with obs.span("marking"):
            X, misscnt = self._miss_bits_csr(
                keys, beS, beD, beDf, bdeg, boff
            )
            marked0 = _scatter_any(beS[misscnt >= 2], B * n)
        mcomps = comp_of[np.flatnonzero(marked0)]
        if len(mcomps):
            initial_c += np.bincount(mcomps, minlength=C)

        if not self.scheme.uses_rules:
            flags |= marked0
            return

        energy_arr = None
        if energy_flat is not None:
            energy_arr = energy_flat.reshape(B, n)
        rank = self._dense._ranks(deg, energy_arr, B, n)
        # reverse-edge permutation within the big-edge table: components
        # are closed, so every reverse edge is itself a big edge
        brev = np.lexsort((beS, beDf))

        current = marked0.copy()
        active_c = big.copy()
        rounds_big = np.zeros(C, dtype=np.int64)
        while active_c.any():
            rounds_big += active_c
            with obs.span("rule1"):
                after1 = self._rule1_csr(beS, beDf, misscnt, current, rank)
            with obs.span("rule2"):
                after2 = self._rule2_csr(
                    keys, X, brev, beS, beD, beDf, boff, after1, rank
                )
            d1 = np.bincount(
                comp_of[np.flatnonzero(current & ~after1)], minlength=C
            )
            d2 = np.bincount(
                comp_of[np.flatnonzero(after1 & ~after2)], minlength=C
            )
            rem1_c += np.where(active_c, d1, 0)
            rem2_c += np.where(active_c, d2, 0)
            changed_c = np.zeros(C, dtype=bool)
            diff = np.flatnonzero(current ^ after2)
            changed_c[comp_of[diff]] = True
            # frozen components keep their state (relevant once
            # max_rounds caps one that has not stabilized)
            upd = active_c[comp_of]
            current = np.where(upd, after2, current)
            active_c &= changed_c
            if not self.fixed_point:
                active_c[:] = False
            active_c &= rounds_big < self.max_rounds
        rounds_c[big] = rounds_big[big]
        flags |= current


def compute_cds_sparse(
    adjacencies: Sequence[Sequence[int]],
    scheme: str | PriorityScheme = "id",
    energies=None,
    *,
    fixed_point: bool = False,
    verify: bool = False,
    memory_budget_mb: float | None = None,
    dense_cutoff: int = DENSE_COMPONENT_CUTOFF,
) -> list[CDSResult]:
    """Sparse batched :func:`repro.core.cds.compute_cds` (same contract as
    :func:`repro.core.vectorized.compute_cds_batch`, different substrate).
    """
    sch = scheme_by_name(scheme) if isinstance(scheme, str) else scheme
    adjs = [
        list(a.adjacency) if hasattr(a, "adjacency") else list(a)
        for a in adjacencies
    ]
    B = len(adjs)
    if B == 0:
        return []
    n = len(adjs[0])
    energy_arr = validate_energy(sch, energies, (B, n))
    csr = CSRBatch.from_adjacency(adjs, memory_budget_mb=memory_budget_mb)
    engine = SparseCDSEngine(
        sch,
        fixed_point=fixed_point,
        memory_budget_mb=memory_budget_mb,
        dense_cutoff=dense_cutoff,
    )
    flags, stats = engine.run(csr, energy_arr)
    masks = flags_to_masks(flags)
    results = []
    for b in range(B):
        result = CDSResult(
            scheme=sch.name, gateway_mask=masks[b], n=n, stats=stats[b]
        )
        check_result(
            result, adjs[b], None, scheme=sch, verify=verify, context="sparse"
        )
        results.append(result)
    return results
