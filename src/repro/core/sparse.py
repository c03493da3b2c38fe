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
* **big** (> cutoff): streamed CSR kernels.  Adjacency membership
  ``x ∈ N(u)`` becomes a binary search of the globally sorted edge-key
  array ``eS·n + eD`` (clamped ``searchsorted``; a miss at the clamp
  boundary compares unequal by construction), and the edge/miss/triple
  tables are built in chunks bounded by the engine's memory budget —
  generator-of-blocks, never a materialized ``(E, W)`` table.

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
with the same grid hashing (and bit-identical distance arithmetic) as
:func:`repro.graphs.unitdisk.unit_disk_adjacency_grid`, skipping the
Python-int adjacency entirely — at N = 100k the CSR is ~18 MB where dense
rows would be 1.25 GB.  All expansions honour ``memory_budget_mb``
(see :func:`repro.core.vectorized.resolve_memory_budget_mb`).
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
    _scatter_any,
    chunk_bits,
    chunk_words,
    edge_table,
    flags_to_masks,
    pack_batch,
    pair_index_arrays,
    resolve_memory_budget_mb,
    words_for,
)
from repro.errors import ConfigurationError

__all__ = [
    "DENSE_COMPONENT_CUTOFF",
    "CSRBatch",
    "SparseRunDetail",
    "connected_labels",
    "unit_disk_edge_lists",
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

        Grid hashing with cell = radius and 3×3 candidate probes, chunked
        by the memory budget.  The distance arithmetic is bit-identical to
        :func:`repro.graphs.unitdisk.unit_disk_adjacency_grid`
        (``Σ (Δ)²`` in float64, inclusive ``d² ≤ r²``), so the edge set
        matches the dense builders exactly — without ever allocating an
        ``n``-bit row.
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


def unit_disk_edge_lists(
    pos: np.ndarray,
    radius: float,
    srcs: np.ndarray,
    budget_words: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-disk ``(src, dst)`` directed edge lists for a source subset.

    Candidates come from the 3×3 grid-cell block around each source (cell
    size = radius), expanded in chunks bounded by ``budget_words``.  The
    distance arithmetic (``Σ (Δ)²`` in float64, inclusive ``d² ≤ r²``)
    matches :func:`repro.graphs.unitdisk.unit_disk_adjacency_grid` bit for
    bit, so calling this for *all* nodes reproduces
    :meth:`CSRBatch.from_positions` and calling it for just the movers
    yields rows bit-identical to a full rebuild — the property the
    incremental pipeline's CSR patching rests on.  Edges are returned
    unsorted (grouped by chunk); callers lexsort.
    """
    empty = np.empty(0, dtype=np.int64)
    k = len(srcs)
    if k == 0:
        return empty, empty
    n = len(pos)
    r2 = radius * radius
    keys = np.floor(pos / radius).astype(np.int64)
    kx = keys[:, 0] - keys[:, 0].min()
    ky = keys[:, 1] - keys[:, 1].min()
    # +1 shift and a +3 stride make every ±1 cell offset a distinct
    # code with no wraparound, so the 9 probes never double-count
    stride = int(ky.max()) + 3
    code = (kx + 1) * stride + (ky + 1)
    order = np.argsort(code, kind="stable")
    sorted_codes = code[order]
    ucodes, ustarts = np.unique(sorted_codes, return_index=True)
    ucounts = np.diff(np.append(ustarts, n))
    starts9 = np.empty((9, k), dtype=np.int64)
    counts9 = np.zeros((9, k), dtype=np.int64)
    scode = code[srcs]
    j = 0
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            target = scode + dx * stride + dy
            ci = np.searchsorted(ucodes, target)
            ci = np.minimum(ci, len(ucodes) - 1)
            ok = ucodes[ci] == target
            starts9[j] = np.where(ok, ustarts[ci], 0)
            counts9[j] = np.where(ok, ucounts[ci], 0)
            j += 1
    per_node = counts9.sum(axis=0)
    avg = max(1.0, float(per_node.mean()))
    step = max(1, int(budget_words / avg))
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    for lo in range(0, k, step):
        hi = min(k, lo + step)
        cnt = counts9[:, lo:hi].ravel()
        total = int(cnt.sum())
        if total == 0:
            continue
        owner = np.repeat(np.arange(len(cnt), dtype=np.int64), cnt)
        first = np.cumsum(cnt) - cnt
        within = np.arange(total, dtype=np.int64) - first[owner]
        cand = order[starts9[:, lo:hi].ravel()[owner] + within]
        ss = np.tile(srcs[lo:hi], 9)[owner]
        d = pos[cand] - pos[ss]
        dsq = d * d
        d2 = dsq[:, 0] + dsq[:, 1]
        keep = (d2 <= r2) & (cand != ss)
        src_parts.append(ss[keep])
        dst_parts.append(cand[keep])
    if not src_parts:
        return empty, empty
    return np.concatenate(src_parts), np.concatenate(dst_parts)


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

    def _edge_miss_csr(self, keys, beS, beD, beDf, bdeg, boff):
        """Per-edge miss lists ``miss(v→u) = N(v) \\ N(u)`` over big edges.

        The CSR twin of ``BatchCDSEngine._edge_miss``: same chunked
        expansion, with the word gather replaced by the sorted-key
        membership probe.  Returns ``(misscnt, missoff, misslist)``
        indexed by *big-edge* id.
        """
        E = len(beS)
        n = self._n
        if E == 0:
            z = np.empty(0, dtype=np.int64)
            return z, z, z
        counts_all = bdeg[beS]
        avg = max(1.0, float(counts_all.mean()))
        step = max(1, int(self._chunk_words / avg))
        list_parts: list[np.ndarray] = []
        owner_parts: list[np.ndarray] = []
        for lo in range(0, E, step):
            hi = min(E, lo + step)
            cnt = counts_all[lo:hi]
            total = int(cnt.sum())
            if total == 0:
                continue
            owner = np.repeat(np.arange(hi - lo, dtype=np.int64), cnt)
            first = np.cumsum(cnt) - cnt
            within = np.arange(total, dtype=np.int64) - first[owner]
            xs = beD[boff[beS[lo:hi]][owner] + within]  # neighbors of v
            hit = _member(keys, beDf[lo:hi][owner], xs, n)
            miss = ~hit
            list_parts.append(xs[miss])
            owner_parts.append(owner[miss] + lo)
        misslist = np.concatenate(list_parts)
        misscnt = np.bincount(np.concatenate(owner_parts), minlength=E)
        missoff = np.cumsum(misscnt) - misscnt
        return misscnt, missoff, misslist

    def _covered_csr(self, lists, offs, counts, qkeys, keys, probe_rows):
        """Chunked subset probe: list ``qkeys[k]`` ⊆ N(probe_rows[k])?"""
        K = len(qkeys)
        n = self._n
        out = np.empty(K, dtype=bool)
        if K == 0:
            return out
        counts_all = counts[qkeys]
        avg = max(1.0, float(counts_all.mean()))
        step = max(1, int(self._chunk_words / avg))
        for lo in range(0, K, step):
            hi = min(K, lo + step)
            cnt = counts_all[lo:hi]
            total = int(cnt.sum())
            if total == 0:
                out[lo:hi] = True
                continue
            owner = np.repeat(np.arange(hi - lo, dtype=np.int64), cnt)
            first = np.cumsum(cnt) - cnt
            within = np.arange(total, dtype=np.int64) - first[owner]
            xs = lists[offs[qkeys[lo:hi]][owner] + within]
            hit = _member(keys, probe_rows[lo:hi][owner], xs, n)
            nmiss = np.bincount(owner[~hit], minlength=hi - lo)
            out[lo:hi] = nmiss == 0
        return out

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
        self, keys, miss, brev, beS, beD, beDf, marked, rank
    ):
        """Firing triples of the current marked set, streamed in blocks.

        Semantically ``BatchCDSEngine._firing_triples`` with membership
        probes for the adjacency prefilter; the pair expansion walks
        source rows in blocks of ~``chunk_words`` triples so the triple
        table is never materialized whole.
        """
        R = len(marked)
        misscnt, missoff, misslist = miss
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
        cuts = np.searchsorted(
            cum, np.arange(self._chunk_words, total, self._chunk_words)
        )
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
            tW = beD[gW]
            tUf = beDf[gU]
            tWf = beDf[gW]
            # prefilter: u and w must be adjacent (see the dense twin)
            keep = _member(keys, tUf, tW, self._n)
            tV, tUf, tWf = tV[keep], tUf[keep], tWf[keep]
            gU, gW = gU[keep], gW[keep]
            if len(tV) == 0:
                continue
            # primary coverage: N(v) ⊆ N(u) ∪ N(w) ⟺ miss(v→u) ⊆ N(w)
            cov = self._covered_csr(
                misslist, missoff, misscnt, gU, keys, tWf
            )
            cV, cUf, cWf = tV[cov], tUf[cov], tWf[cov]
            if len(cV) == 0:
                continue
            gU, gW = gU[cov], gW[cov]
            rv = rank[cV]
            lu = rv < rank[cUf]
            lw = rv < rank[cWf]
            if self.scheme.uses_coverage_cases:
                # mutual-coverage case flags through the reverse edges
                ccu = self._covered_csr(
                    misslist, missoff, misscnt, brev[gU], keys, cWf
                )
                ccw = self._covered_csr(
                    misslist, missoff, misscnt, brev[gW], keys, cUf
                )
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

    def _rule2_csr(self, keys, miss, brev, beS, beD, beDf, marked, rank):
        """One Rule-2 pass (iterated local-minimum rounds) over big comps."""
        R = len(marked)
        fV, fUf, fWf = self._firing_triples_csr(
            keys, miss, brev, beS, beD, beDf, marked, rank
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
        miss = self._edge_miss_csr(keys, beS, beD, beDf, bdeg, boff)
        misscnt = miss[0]

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
            after1 = self._rule1_csr(beS, beDf, misscnt, current, rank)
            after2 = self._rule2_csr(
                keys, miss, brev, beS, beD, beDf, after1, rank
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
