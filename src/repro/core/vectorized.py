"""Vectorized batch CDS engine over stacked ``(trials, nodes, words)`` arrays.

The scratch pipeline (:func:`repro.core.cds.compute_cds`) and the delta
pipeline (:mod:`repro.core.delta`) both walk Python-int bitmasks node by
node somewhere on their hot path, which caps them near N≈1000.  This module
re-expresses the whole per-interval computation — marking process, Rule 1,
Rule 2 rounds, and the Rule-k generalization — as numpy kernels over packed
``uint64`` word matrices, with an explicit *batch* axis so many independent
topologies (trials of a sweep cell, cells of a figure) evaluate in one
array pass.

Layout
------
A batch of ``B`` topologies on ``n`` nodes is a ``(B, n, W)`` ``uint64``
array with ``W = max(1, ceil(n / 64))`` little-endian words per row and
**all padding bits zero** (the pack helpers enforce this; see
:func:`tail_mask`).  Kernels flatten it to ``(B*n, W)`` and address node
``v`` of element ``b`` as flat row ``b*n + v`` — edges never cross
elements, so one edge table drives every element at once.  Memory is
``B·n·W·8`` bytes: a hundred 1k-node trials is ~13 MB; at n = 10k the
batch width is chosen by the caller (a single element is ~1.3 MB).

Equivalence contract
--------------------
For every element the gateway mask and :class:`PruneStats` are
**bit-identical** to ``compute_cds`` under the same scheme:

* marking: ``v`` is marked iff some neighbor ``u`` leaves
  ``N(v) \\ N[u]`` non-empty (per-directed-edge witness test);
* Rule 1: simultaneous pass against a snapshot — ``v`` unmarks iff a
  *marked* neighbor ``u`` has ``N[v] ⊆ N[u]`` and ``key(v) < key(u)``;
* Rule 2: iterated local-minimum rounds exactly as
  :meth:`repro.core.rules.RuleEngine.rule2_pass` — candidates are marked
  nodes with a live firing pair, a candidate commits iff it outranks every
  candidate neighbor, rounds repeat until no commits;
* keys compare as dense integer ranks built by ``np.lexsort`` over the
  exact quantized components the tuple keys contain (the same construction
  :class:`repro.core.delta.CachedRuleEngine` uses), so every comparison
  equals the scratch engine's tuple comparison.

Scale tricks (what makes n = 10k feasible)
------------------------------------------
The raw Rule-2 triple table is ``Σ_v deg(v)·(deg(v)-1)/2`` entries (~1.9M
at n = 10k constant-density).  Two observations cut its cost by ~10×
(profiled on exactly that workload):

* **adjacency prefilter**: a firing pair must have ``w ∈ N(u)`` —
  ``w ∈ N(v)`` needs covering, ``w ∉ N(w)``, so only ``N(u)`` can supply
  it; one single-word gather per triple kills ~40% of them;
* **per-edge miss lists**: one expansion pass over the directed-edge
  table (:meth:`BatchCDSEngine._edge_miss`) records, for every edge
  ``(v, u)``, the set ``miss(v→u) = N(v) \\ N(u)`` (``u`` itself always
  belongs).  Then *marking* is ``|miss| ≥ 2`` (some neighbor besides u is
  unreachable from u), *Rule-1 coverage* ``N[v] ⊆ N[u]`` is ``|miss| ==
  1``, and *Rule-2 coverage* ``N(v) ⊆ N(u) ∪ N(w)`` probes only
  ``miss(v→u)`` against ``N(w)`` (:func:`_covered_expand`) — ~3× fewer
  word probes than expanding all of ``N(v)``, and ~25× less traffic than
  sweeping all ``W`` row words per triple.  The mutual-coverage case
  flags reuse the same lists through the reverse-edge permutation
  (``N(u) \\ N(v) = miss(u→v)``).

All expansions are chunked so peak temporary memory stays bounded
regardless of n; the Python loops that remain iterate over *chunks*,
never over nodes.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.cds import CDSResult
from repro.core.pipeline import check_result, validate_energy
from repro.core.priority import SCHEMES, PriorityScheme, scheme_by_name
from repro.core.reduction import PruneStats
from repro.errors import ConfigurationError

__all__ = [
    "words_for",
    "tail_mask",
    "pack_rows",
    "pack_adjacency",
    "pack_batch",
    "popcount_rows",
    "pair_index_arrays",
    "flags_to_masks",
    "edge_table",
    "resolve_memory_budget_mb",
    "chunk_words",
    "chunk_bits",
    "MEMORY_BUDGET_ENV",
    "DEFAULT_MEMORY_BUDGET_MB",
    "BatchCDSEngine",
    "compute_cds_batch",
    "compute_cds_rule_k_batch",
]

_U64_1 = np.uint64(1)
_U64_63 = np.uint64(63)
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_I32MAX = np.int32(np.iinfo(np.int32).max)

#: env var overriding the per-engine chunking budget (megabytes, float).
MEMORY_BUDGET_ENV = "REPRO_MEMORY_BUDGET_MB"
#: default budget.  ``chunk_words``/``chunk_bits`` at this value reproduce
#: the historical hardcoded constants exactly (32 MiB of gathered uint64
#: words per sweep chunk, 64 Mib of unpacked bits per edge-table chunk).
DEFAULT_MEMORY_BUDGET_MB = 64.0


def resolve_memory_budget_mb(explicit: float | None = None) -> float:
    """Chunking budget in MB: explicit arg > env var > default."""
    if explicit is None:
        raw = os.environ.get(MEMORY_BUDGET_ENV)
        if raw is not None:
            try:
                explicit = float(raw)
            except ValueError:
                raise ConfigurationError(
                    f"{MEMORY_BUDGET_ENV}={raw!r} is not a number"
                ) from None
    if explicit is None:
        return DEFAULT_MEMORY_BUDGET_MB
    if not explicit > 0:
        raise ConfigurationError(
            f"memory_budget_mb must be positive, got {explicit!r}"
        )
    return float(explicit)


def chunk_words(budget_mb: float | None = None) -> int:
    """Gathered-word budget per chunked sweep (the old ``_CHUNK_WORDS``).

    Scales linearly with the budget; floored so degenerate budgets still
    make progress (tiny chunks change only speed, never results).
    """
    mb = resolve_memory_budget_mb(budget_mb)
    return max(1 << 12, int(mb * (1 << 22) / DEFAULT_MEMORY_BUDGET_MB))


def chunk_bits(budget_mb: float | None = None) -> int:
    """Unpacked-bit budget per edge-table chunk (the old ``_CHUNK_BITS``)."""
    mb = resolve_memory_budget_mb(budget_mb)
    return max(1 << 15, int(mb * (1 << 26) / DEFAULT_MEMORY_BUDGET_MB))


#: word budget per gathered operand in a chunked sweep (32 MiB of uint64).
_CHUNK_WORDS = chunk_words(DEFAULT_MEMORY_BUDGET_MB)
#: unpacked-bit budget per chunk of the edge-table builder (64 MiB).
_CHUNK_BITS = chunk_bits(DEFAULT_MEMORY_BUDGET_MB)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def words_for(n: int) -> int:
    """Words per packed row for an ``n``-node graph (min 1, like delta)."""
    return max(1, (n + 63) >> 6)


def tail_mask(n: int) -> np.uint64:
    """Mask of the *valid* bits in the last word of an ``n``-bit row.

    For ``n`` a multiple of 64 (and for n = 0, where the single word is
    all padding but always zero) the whole word is valid.  Every pack
    helper ANDs the last word with this so stray high bits can never leak
    into popcounts, degree sums, or coverage verdicts — the tail-word
    hygiene the bitset edge-case sweep pins at n ∈ {63, 64, 65, 127}.
    """
    r = n & 63
    if r == 0:
        return _ALL_ONES
    return np.uint64((1 << r) - 1)


def pack_rows(rows: Sequence[int], W: int, n: int | None = None) -> np.ndarray:
    """Bitmask ints -> ``(len(rows), W)`` little-endian uint64 matrix.

    A writable array (unlike ``np.frombuffer``).  When ``n`` is given the
    last word is masked to the valid ``n``-bit range; ``int.to_bytes``
    already rejects masks with bits at or beyond ``64·W``.
    """
    if not len(rows):
        return np.zeros((0, W), dtype=np.uint64)
    raw = b"".join(m.to_bytes(W * 8, "little") for m in rows)
    out = np.frombuffer(raw, dtype=np.uint64).reshape(len(rows), W).copy()
    if n is not None:
        out[:, -1] &= tail_mask(n)
    return out


def pack_adjacency(adj: Sequence[int]) -> np.ndarray:
    """One adjacency (list of bitmask ints) -> tail-clean ``(n, W)`` words."""
    n = len(adj)
    return pack_rows(adj, words_for(n), n)


def pack_batch(adjacencies: Sequence[Sequence[int]]) -> np.ndarray:
    """Stack ``B`` same-size adjacencies into a ``(B, n, W)`` batch."""
    B = len(adjacencies)
    if B == 0:
        return np.zeros((0, 0, 1), dtype=np.uint64)
    n = len(adjacencies[0])
    W = words_for(n)
    for k, adj in enumerate(adjacencies):
        if len(adj) != n:
            raise ConfigurationError(
                f"batch element {k} has {len(adj)} nodes, element 0 has {n}; "
                "batches must be homogeneous in n"
            )
    out = np.empty((B, n, W), dtype=np.uint64)
    for k, adj in enumerate(adjacencies):
        out[k] = pack_rows(adj, W, n)
    return out


def popcount_rows(rows: np.ndarray) -> np.ndarray:
    """Per-row popcount of a ``(..., W)`` word matrix -> ``(...,)`` int64."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(rows).sum(axis=-1, dtype=np.int64)
    bits = np.unpackbits(
        np.ascontiguousarray(rows).view(np.uint8), axis=-1, bitorder="little"
    )
    return bits.sum(axis=-1, dtype=np.int64)


def flags_to_masks(flags: np.ndarray) -> list[int]:
    """``(B, n)`` boolean flags -> per-element bitmask ints."""
    if flags.shape[1] == 0:
        return [0] * flags.shape[0]
    packed = np.packbits(flags, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def pair_index_arrays(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs ``(i, j)``, ``i < j``, per group, concatenated.

    For each group size ``c`` in ``counts`` this emits its ``c·(c-1)/2``
    pairs grouped by ascending ``j`` — a closed-form decode of the pair
    ordinal ``t = j·(j-1)/2 + i`` (float sqrt estimate plus an exact
    integer correction), so no per-group Python loop and no memoized
    triangle templates.  Pair order *within* a group differs from
    ``np.triu_indices`` (by-j vs row-major) but every consumer treats the
    pair list as a set.
    """
    counts = np.asarray(counts, dtype=np.int64)
    pcs = counts * (counts - 1) >> 1
    total = int(pcs.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    starts = np.repeat(np.cumsum(pcs) - pcs, pcs)
    t = np.arange(total, dtype=np.int64) - starts
    j = ((1.0 + np.sqrt(8.0 * t.astype(np.float64) + 1.0)) * 0.5).astype(
        np.int64
    )
    for _ in range(2):  # exact integer correction of the float estimate
        j -= j * (j - 1) >> 1 > t
        j += (j + 1) * j >> 1 <= t
    i = t - (j * (j - 1) >> 1)
    return i, j


def _covered_expand(
    lists: np.ndarray,
    offs: np.ndarray,
    counts: np.ndarray,
    keys: np.ndarray,
    table: np.ndarray,
    probe_a: np.ndarray,
    probe_b: np.ndarray | None = None,
    chunk: int | None = None,
) -> np.ndarray:
    """Batched subset test: is every member of CSR list ``keys[k]`` a set
    bit of ``table[a[k]]`` (∪ ``table[b[k]]``)?

    ``lists`` holds concatenated local node ids, CSR-indexed by ``offs`` /
    ``counts``; query ``k`` expands into one single-word probe per member
    of list ``keys[k]``.  The work is ``Σ counts[keys]`` word gathers
    instead of a ``W``-word sweep per query — at constant density the
    lists are ~20 entries (or ~7 for the miss lists) against ``W = 157``
    words at n = 10k.  Empty lists are vacuously covered.  Chunked so the
    expansion never materializes more than ``_CHUNK_WORDS`` elements.
    """
    K = len(keys)
    out = np.empty(K, dtype=bool)
    if K == 0:
        return out
    if chunk is None:
        chunk = _CHUNK_WORDS
    counts_all = counts[keys]
    avg = max(1.0, float(counts_all.mean()))
    step = max(1, int(chunk / avg))
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
        xs = lists[offs[keys[lo:hi]][owner] + within]  # local node ids
        words = table[probe_a[lo:hi][owner], xs >> 6]
        if probe_b is not None:
            words = words | table[probe_b[lo:hi][owner], xs >> 6]
        hit = (words >> (xs.astype(np.uint64) & _U64_63)) & _U64_1
        nmiss = np.bincount(owner[hit == 0], minlength=hi - lo)
        out[lo:hi] = nmiss == 0
    return out


def _scatter_any(hits: np.ndarray, size: int) -> np.ndarray:
    """Boolean "any hit per row" from a flat array of row indices."""
    if len(hits) == 0:
        return np.zeros(size, dtype=bool)
    return np.bincount(hits, minlength=size).astype(bool)


def edge_table(
    rows_flat: np.ndarray, n: int, chunk: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edge table of a flat ``(R, W)`` packed-row batch.

    Returns ``(eS, eD, eDf)``: flat source row, *local* destination node
    id, flat destination row — grouped by ascending source (and, within a
    source, ascending destination).  Chunked over flat rows so the
    unpacked bit matrix never exceeds ``chunk`` bits (defaults to the
    module budget); the sparse CSR path reuses this builder directly.
    """
    if chunk is None:
        chunk = _CHUNK_BITS
    R, W = rows_flat.shape
    ncols = W * 64
    rows_per = max(1, chunk // ncols)
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    for lo in range(0, R, rows_per):
        blk = rows_flat[lo : lo + rows_per]
        bits = np.unpackbits(blk.view(np.uint8), axis=1, bitorder="little")
        flat = np.flatnonzero(bits)
        src_parts.append(flat // ncols + lo)
        dst_parts.append((flat % ncols).astype(np.int64))
    if not src_parts:
        e = np.empty(0, dtype=np.int64)
        return e, e, e
    eS = np.concatenate(src_parts)
    eD = np.concatenate(dst_parts)
    eDf = eS - eS % n + eD  # same element: flat row of the neighbor
    return eS, eD, eDf


class BatchCDSEngine:
    """Batched marking + Rule 1/2 engine, bit-identical to ``compute_cds``.

    One instance is bound to a scheme and the fixed-point mode; ``run``
    takes a fresh ``(B, n, W)`` batch each call (the engine is stateless
    across calls — unlike :class:`~repro.core.delta.CachedRuleEngine` it
    wins by width, not by reuse).
    """

    def __init__(
        self,
        scheme: str | PriorityScheme = "id",
        *,
        fixed_point: bool = False,
        max_rounds: int = 1_000,
        memory_budget_mb: float | None = None,
    ):
        self.scheme = (
            scheme_by_name(scheme) if isinstance(scheme, str) else scheme
        )
        self.fixed_point = fixed_point
        self.max_rounds = max_rounds
        self.memory_budget_mb = resolve_memory_budget_mb(memory_budget_mb)
        self._chunk_words = chunk_words(self.memory_budget_mb)
        self._chunk_bits = chunk_bits(self.memory_budget_mb)
        # registry schemes rank via one batched lexsort; a custom key_fn
        # falls back to exact per-element tuple keys
        self._fast_keys = SCHEMES.get(self.scheme.name) is self.scheme

    # -- structure ---------------------------------------------------------

    def _edge_table(self, rows_flat: np.ndarray, n: int):
        """Directed edge table of the whole batch (see :func:`edge_table`)."""
        return edge_table(rows_flat, n, self._chunk_bits)

    def _ranks(
        self,
        deg_flat: np.ndarray,
        energy: np.ndarray | None,
        B: int,
        n: int,
    ) -> np.ndarray:
        """Per-element dense ranks whose order equals the tuple-key order.

        Same construction as ``CachedRuleEngine._refresh_keys``: lexsort
        the exact quantized key components with the element index as the
        most significant key, then invert to local positions — one sort
        for the whole batch.
        """
        ids_flat = np.tile(np.arange(n, dtype=np.int64), B)
        name = self.scheme.name
        if not self._fast_keys:
            # generic scheme: exact tuple keys, one sort per element
            rank = np.empty(B * n, dtype=np.int32)
            for b in range(B):
                degs = [int(d) for d in deg_flat[b * n : (b + 1) * n]]
                lv = energy[b] if energy is not None else None
                keys = self.scheme.keys(degs, lv)
                order = sorted(range(n), key=keys.__getitem__)
                rank[b * n + np.asarray(order, dtype=np.int64)] = np.arange(
                    n, dtype=np.int32
                )
            return rank
        if name in ("nr", "id"):
            return ids_flat.astype(np.int32)
        elem = np.repeat(np.arange(B, dtype=np.int64), n)
        if name == "nd":
            order = np.lexsort((ids_flat, deg_flat, elem))
        else:
            e = np.asarray(energy, dtype=np.float64).reshape(B * n)
            q = self.scheme.quantum
            qe = np.rint(e / q) * q if q is not None else e
            if name == "el1":
                order = np.lexsort((ids_flat, qe, elem))
            else:  # el2
                order = np.lexsort((ids_flat, deg_flat, qe, elem))
        rank = np.empty(B * n, dtype=np.int32)
        rank[order] = ids_flat.astype(np.int32)
        return rank

    # -- kernels -----------------------------------------------------------

    def _edge_miss(self, rows_flat, eD, eoff, deg_flat, eS, eDf):
        """Per-directed-edge miss lists ``miss(v→u) = N(v) \\ N(u)``.

        One expansion pass over the edge table; returns the CSR triple
        ``(misscnt, missoff, misslist)`` indexed by edge id.  ``u`` itself
        is always a member (``u ∈ N(v)``, ``u ∉ N(u)``), so:

        * ``misscnt == 1`` ⟺ ``N[v] ⊆ N[u]`` (Rule-1 closed coverage);
        * ``misscnt >= 2`` ⟺ ``u`` certifies ``v``'s marking (some other
          neighbor of ``v`` is unreachable from ``u`` in one hop).
        """
        E = len(eS)
        if E == 0:
            z = np.empty(0, dtype=np.int64)
            return z, z, z
        counts_all = deg_flat[eS]
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
            xs = eD[eoff[eS[lo:hi]][owner] + within]  # neighbors of v
            words = rows_flat[eDf[lo:hi][owner], xs >> 6]
            hit = (words >> (xs.astype(np.uint64) & _U64_63)) & _U64_1
            miss = hit == 0
            list_parts.append(xs[miss])
            owner_parts.append(owner[miss] + lo)
        misslist = np.concatenate(list_parts)
        misscnt = np.bincount(np.concatenate(owner_parts), minlength=E)
        missoff = np.cumsum(misscnt) - misscnt
        return misscnt, missoff, misslist

    def _rule1(self, eS, eDf, misscnt, marked, rank) -> np.ndarray:
        """Simultaneous Rule-1 pass: pure arithmetic on the miss counts."""
        sel = (
            marked[eS]
            & marked[eDf]
            & (rank[eS] < rank[eDf])
            & (misscnt == 1)
        )
        removed = _scatter_any(eS[sel], len(marked))
        return marked & ~removed

    def _firing_triples(
        self, rows_flat, miss, rev, eS, eD, eDf, marked, rank, n
    ):
        """All firing triples ``(v, u, w)`` of the current marked set.

        Returns flat arrays ``(fV, fUf, fWf)``: a triple fires iff its
        coverage + case analysis + key comparison already favor removing
        ``v`` — whether it is *live* is then only a markedness check, just
        like the scratch engine's precomputed pair masks.
        """
        R = len(marked)
        misscnt, missoff, misslist = miss
        empty = np.empty(0, dtype=np.int64)
        sel = marked[eS] & marked[eDf]
        sel_idx = np.flatnonzero(sel)  # global edge ids, grouped by source
        mdeg = np.bincount(eS[sel_idx], minlength=R)
        i, j = pair_index_arrays(mdeg)
        if len(i) == 0:
            return empty, empty, empty
        offs = np.cumsum(mdeg) - mdeg  # per-row offset into sel_idx
        pcs = mdeg * (mdeg - 1) >> 1
        tV = np.repeat(np.arange(R, dtype=np.int64), pcs)
        base = np.repeat(offs, pcs)
        gU = sel_idx[base + i]  # global edge id of (v, u)
        gW = sel_idx[base + j]  # global edge id of (v, w)
        tW = eD[gW]
        tUf = eDf[gU]
        tWf = eDf[gW]

        # prefilter — u and w must be adjacent: w ∈ N(v) needs covering,
        # and w ∉ N(w), so only N(u) can supply it (symmetrically u ∈ N(w))
        adj_uw = (
            rows_flat[tUf, tW >> 6] >> (tW.astype(np.uint64) & _U64_63)
        ) & _U64_1
        keep = adj_uw.astype(bool)
        tV, tUf, tWf = tV[keep], tUf[keep], tWf[keep]
        gU, gW = gU[keep], gW[keep]
        if len(tV) == 0:
            return empty, empty, empty

        # exact primary coverage: N(v) ⊆ N(u) ∪ N(w) ⟺ miss(v→u) ⊆ N(w)
        # (u ∈ miss(v→u) always hits: the prefilter guarantees u ∈ N(w))
        cov = _covered_expand(
            misslist, missoff, misscnt, gU, rows_flat, tWf,
            chunk=self._chunk_words,
        )
        cV, cUf, cWf = tV[cov], tUf[cov], tWf[cov]
        if len(cV) == 0:
            return empty, empty, empty
        gU, gW = gU[cov], gW[cov]

        rv = rank[cV]
        lu = rv < rank[cUf]
        lw = rv < rank[cWf]
        if self.scheme.uses_coverage_cases:
            # collapse of the paper's case table (cf. delta._eval_fire):
            # the u-side key test is waived exactly when u is not mutually
            # covered (N(u) ⊄ N(v) ∪ N(w)); symmetrically for w.  Through
            # the reverse-edge permutation these reuse the miss lists:
            # N(u) ⊆ N(v) ∪ N(w) ⟺ miss(u→v) ⊆ N(w) (v ∈ N(w) since w, v
            # are adjacent through the triple)
            ccu = _covered_expand(
                misslist, missoff, misscnt, rev[gU], rows_flat, cWf,
                chunk=self._chunk_words,
            )
            ccw = _covered_expand(
                misslist, missoff, misscnt, rev[gW], rows_flat, cUf,
                chunk=self._chunk_words,
            )
            lu |= ~ccu
            lw |= ~ccw
        fire = lu & lw
        return cV[fire], cUf[fire], cWf[fire]

    def _rule2(self, rows_flat, miss, rev, eS, eD, eDf, marked, rank, n):
        """One Rule-2 pass: iterated local-minimum rounds, whole batch."""
        R = len(marked)
        fV, fUf, fWf = self._firing_triples(
            rows_flat, miss, rev, eS, eD, eDf, marked, rank, n
        )
        if len(fV) == 0:
            return marked
        current = marked.copy()
        cand = _scatter_any(fV, R)  # every initial triple is live
        # rival scans run over edges inside the initial candidate set
        ce = cand[eS] & cand[eDf]
        ceS, ceD = eS[ce], eDf[ce]
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
        self, packed: np.ndarray, energy: np.ndarray | None = None
    ) -> tuple[np.ndarray, list[PruneStats]]:
        """Marking + pruning for every batch element.

        ``packed`` is ``(B, n, W)`` tail-clean uint64; ``energy`` is
        ``(B, n)`` float (required by the EL schemes).  Returns the
        ``(B, n)`` gateway flags and one :class:`PruneStats` per element,
        both bit-identical to running ``compute_cds`` per element.
        """
        if packed.ndim != 3:
            raise ConfigurationError(
                f"packed batch must be (B, n, W), got shape {packed.shape}"
            )
        B, n, W = packed.shape
        if W != words_for(n):
            raise ConfigurationError(
                f"batch has {W} words for n={n}, expected {words_for(n)}"
            )
        uses_rules = self.scheme.uses_rules
        if B == 0 or n == 0:
            rounds = 1 if uses_rules else 0
            return (
                np.zeros((B, n), dtype=bool),
                [PruneStats(0, 0, 0, rounds)] * B,
            )

        with obs.span("cds_batch"):
            rows_flat = packed.reshape(B * n, W)
            eS, eD, eDf = self._edge_table(rows_flat, n)
            deg_flat = np.bincount(eS, minlength=B * n)
            eoff = np.cumsum(deg_flat) - deg_flat  # CSR starts into eD
            miss = self._edge_miss(rows_flat, eD, eoff, deg_flat, eS, eDf)
            misscnt = miss[0]

            # marked iff some neighbor certifies: N(v) ⊄ N[u] ⟺ |miss| ≥ 2
            marked0 = _scatter_any(eS[misscnt >= 2], B * n)
            initial_b = marked0.reshape(B, n).sum(axis=1)

            if obs.enabled():
                obs.count("vcds.batches")
                obs.add("vcds.elements", B)
                obs.add("vcds.nodes", B * n)
                obs.add("vcds.edges", len(eS))
                obs.add("vcds.marked", int(marked0.sum()))

            if not uses_rules:
                stats = [
                    PruneStats(int(initial_b[b]), 0, 0, 0) for b in range(B)
                ]
                return marked0.reshape(B, n), stats

            energy_arr = None
            if energy is not None:
                energy_arr = np.asarray(energy, dtype=np.float64).reshape(B, n)
            rank = self._ranks(deg_flat, energy_arr, B, n)
            # reverse-edge permutation: rev[k] is the edge (u→v) for edge
            # k = (v→u); both edge orderings sort to the same pair sequence
            rev = np.lexsort((eS, eDf))

            current = marked0.copy()
            rounds_b = np.zeros(B, dtype=np.int64)
            removed1_b = np.zeros(B, dtype=np.int64)
            removed2_b = np.zeros(B, dtype=np.int64)
            done_b = np.zeros(B, dtype=bool)
            while True:
                active = ~done_b
                rounds_b += active
                after1 = self._rule1(eS, eDf, misscnt, current, rank)
                after2 = self._rule2(
                    rows_flat, miss, rev, eS, eD, eDf, after1, rank, n
                )
                d1 = (current & ~after1).reshape(B, n).sum(axis=1)
                d2 = (after1 & ~after2).reshape(B, n).sum(axis=1)
                removed1_b += np.where(active, d1, 0)
                removed2_b += np.where(active, d2, 0)
                stable_b = ~(current ^ after2).reshape(B, n).any(axis=1)
                # done elements stay frozen (relevant once max_rounds caps
                # an element that has not stabilized)
                upd = np.repeat(active, n)
                current = np.where(upd, after2, current)
                done_b |= stable_b
                if not self.fixed_point:
                    done_b[:] = True
                done_b |= rounds_b >= self.max_rounds
                if done_b.all():
                    break

            stats = [
                PruneStats(
                    int(initial_b[b]),
                    int(removed1_b[b]),
                    int(removed2_b[b]),
                    int(rounds_b[b]),
                )
                for b in range(B)
            ]
            if obs.enabled():
                obs.add("vcds.final", int(current.sum()))
                obs.add("vcds.rounds", int(rounds_b.sum()))
            return current.reshape(B, n), stats


def compute_cds_batch(
    adjacencies: Sequence[Sequence[int]],
    scheme: str | PriorityScheme = "id",
    energies=None,
    *,
    fixed_point: bool = False,
    verify: bool = False,
    memory_budget_mb: float | None = None,
) -> list[CDSResult]:
    """Batched :func:`repro.core.cds.compute_cds` over same-size topologies.

    ``adjacencies`` is a sequence of bitmask adjacency lists (all the same
    n); ``energies`` is per-element energy levels, shape ``(B, n)``.  Each
    returned :class:`CDSResult` is bit-identical (mask and stats) to the
    scalar facade on that element.
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
    packed = pack_batch(adjs)
    engine = BatchCDSEngine(
        sch, fixed_point=fixed_point, memory_budget_mb=memory_budget_mb
    )
    flags, stats = engine.run(packed, energy_arr)
    masks = flags_to_masks(flags)
    results = []
    for b in range(B):
        result = CDSResult(
            scheme=sch.name, gateway_mask=masks[b], n=n, stats=stats[b]
        )
        check_result(
            result, adjs[b], None, scheme=sch, verify=verify,
            context="dense-batch",
        )
        results.append(result)
    return results


def compute_cds_rule_k_batch(
    adjacencies: Sequence[Sequence[int]],
    scheme: str | PriorityScheme = "id",
    energies=None,
) -> list[frozenset[int]]:
    """Batched :func:`repro.core.rule_k.compute_cds_rule_k`.

    The marking pass, the stronger-neighbor edge table, the Rule-1-shape
    singleton test, and the union-coverage prefilter are batched kernels;
    only candidates whose *full* stronger-union covers ``N(v)`` fall back
    to the scalar per-component walk (they are few — almost all of them
    are genuine removals).
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
    packed = pack_batch(adjs)
    engine = BatchCDSEngine(sch)
    W = packed.shape[2]
    rows_flat = packed.reshape(B * n, W) if n else packed.reshape(0, W)
    if n == 0:
        return [frozenset()] * B
    eS, eD, eDf = engine._edge_table(rows_flat, n)
    deg_flat = np.bincount(eS, minlength=B * n)
    eoff = np.cumsum(deg_flat) - deg_flat
    misscnt = engine._edge_miss(rows_flat, eD, eoff, deg_flat, eS, eDf)[0]
    marked = _scatter_any(eS[misscnt >= 2], B * n)
    if not sch.uses_rules:
        flags = marked.reshape(B, n)
        return [frozenset(np.flatnonzero(flags[b]).tolist()) for b in range(B)]
    rank = engine._ranks(deg_flat, energy_arr, B, n)

    # stronger = marked neighbors with strictly higher key
    sel = marked[eS] & marked[eDf] & (rank[eDf] > rank[eS])
    sS, sDf = eS[sel], eDf[sel]
    removed = np.zeros(B * n, dtype=bool)
    if len(sS):
        # Rule-1 shape: some single stronger neighbor covers N[v], i.e.
        # the directed edge's miss list is exactly {u}
        removed = _scatter_any(sS[misscnt[sel] == 1], B * n)
        # union prefilter: no component can cover N(v) unless the union of
        # *all* stronger neighborhoods does (sS is sorted: one reduceat)
        starts = np.flatnonzero(np.diff(sS, prepend=np.int64(-1)))
        unions = np.bitwise_or.reduceat(rows_flat[sDf], starts, axis=0)
        urows = sS[starts]
        full = ~(rows_flat[urows] & ~unions).any(axis=1)
        todo = urows[full & ~removed[urows]]
        # exact per-component walk only on the survivors (scalar, but the
        # loop is over candidate removals, not over nodes)
        from repro.core.rule_k import _some_component_covers

        for r in todo.tolist():
            b, v = divmod(r, n)
            adj = adjs[b]
            stronger = 0
            for u in sDf[sS == r].tolist():
                stronger |= 1 << (u % n)
            if _some_component_covers(adj, stronger, adj[v]):
                removed[r] = True
    final = (marked & ~removed).reshape(B, n)
    return [frozenset(np.flatnonzero(final[b]).tolist()) for b in range(B)]
