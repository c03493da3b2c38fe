"""Incremental (delta) CDS pipeline: cached rule engines + dirty-set reuse.

The from-scratch pipeline (:func:`repro.core.cds.compute_cds`) rebuilds
everything each update interval: the marking pass visits all ``n`` nodes and
the :class:`~repro.core.rules.RuleEngine` re-derives keys, degrees, and the
O(Σdeg²) Rule-2 firing-pair table — in pure Python, pair by pair.  But the
paper's whole locality argument (Wu–Li §3) says the *dependency footprint*
of a topology change is 2-hop local:

* ``m(v)`` depends only on ``N(v)`` and the edges within it, so a changed
  row set ``C`` can only re-mark ``C ∪ N(C)`` (:func:`marked_mask_delta`);
* whether a Rule-1/Rule-2 coverage relation holds depends only on the rows
  of the 2–3 nodes cited, so coverage tables survive unchanged intervals
  and need a single batched refresh otherwise;
* priority keys enter the rules only through a total order, so every key
  comparison can be made against a dense integer *rank* vector.

:class:`CachedRuleEngine` keeps, across intervals:

* the adjacency in synchronized forms — Python bitmask ints for the pass
  loops plus packed ``uint64`` word matrices (row- and column-major) for
  vectorized coverage evaluation; row patches touch only the changed
  columns, and the edge/pair index tables are re-derived in one batched
  vectorized pass per structure change;
* Rule-2 coverage verdicts (``N(v) ⊆ N(u) ∪ N(w)`` + mutual-coverage case
  class) and Rule-1 closed-coverage verdicts, refreshed only on structure
  change by a word-parallel sweep over the triple table;
* firing tables (coverage ∧ key order) refreshed only when structure or
  the key vector changed — for the built-in schemes key refresh detection
  and rank construction are vectorized (``np.lexsort`` over the exact same
  quantized values the tuple keys contain, so the order is identical).

Unlike the scratch engine, pair tables cover *all* neighbor pairs rather
than currently-marked ones — markedness is checked at pass time (exactly
as the scratch engine's runtime re-check does), which makes the tables a
pure function of topology + keys and therefore cacheable.

:class:`DeltaCDSPipeline` glues the layers together and is what
:func:`repro.simulation.interval.run_interval` uses for the ``delta``
backend and for ``scalar`` at or above :data:`INCREMENTAL_MIN_HOSTS`
(:func:`repro.core.pipeline.make_pipeline`).  It is correct by
equivalence: the gateway mask (and ``PruneStats``) is bit-identical to
the scratch path on every interval — pinned by the hypothesis property in
``tests/property/test_incremental_properties.py``, by ``shadow_check``
mode, and by the CI smoke job.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.core.cds import CDSResult
from repro.core.marking import marked_mask, marked_mask_delta
from repro.core.pipeline import check_result, validate_energy
from repro.core.priority import SCHEMES, PriorityScheme, scheme_by_name
from repro.core.reduction import PruneStats
from repro.core.vectorized import pair_index_arrays
from repro.graphs import bitset

__all__ = [
    "CachedRuleEngine",
    "DeltaCDSPipeline",
    "INCREMENTAL_MIN_HOSTS",
    "changed_row_flags",
]


def changed_row_flags(rows, prev_rows) -> "np.ndarray":
    """Per-node boolean flags of adjacency rows that differ.

    One vectorized object-dtype compare over arbitrary-width Python-int
    bitmask rows — the row-diff primitive behind
    :class:`DeltaCDSPipeline`'s dirty-set marking, shared with the
    incremental sparse pipeline's adjacency fallback path
    (:mod:`repro.core.sparse_delta`).  Both sequences must have the same
    length; callers handle the size-change (cold start) case first.
    """
    return np.not_equal(
        np.asarray(rows, dtype=object),
        np.asarray(prev_rows, dtype=object),
    ).astype(bool)

#: Below this many hosts the scratch path wins: the engine's vectorized
#: passes carry fixed per-call numpy overheads that only amortize once the
#: pure-python pair loops they replace grow past them (crossover measured
#: at n ≈ 45 on the Figure-11 workload; see bench_incremental.py).
#: :func:`repro.core.pipeline.make_pipeline` consults this for the
#: ``scalar`` backend; the pipeline itself works at any size.
INCREMENTAL_MIN_HOSTS = 48

_EMPTY_I32 = np.empty(0, dtype=np.int32)
_EMPTY_BOOL = np.empty(0, dtype=bool)

def _pack_rows(rows: list[int], W: int) -> np.ndarray:
    """Bitmask ints -> (len(rows), W) little-endian uint64 word matrix."""
    raw = b"".join(m.to_bytes(W * 8, "little") for m in rows)
    return np.frombuffer(raw, dtype=np.uint64).reshape(len(rows), W)


def _bools_from_mask(mask: int, n: int) -> np.ndarray:
    """Bitmask int -> (n,) bool array, little-endian bit order."""
    b = mask.to_bytes((n + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(b, dtype=np.uint8), bitorder="little")
    return bits[:n].astype(bool)


def _mask_from_flags(flags: np.ndarray) -> int:
    """(n,) 0/1 array -> bitmask int."""
    return int.from_bytes(
        np.packbits(flags, bitorder="little").tobytes(), "little"
    )


class CachedRuleEngine:
    """A :class:`~repro.core.rules.RuleEngine` that survives topology deltas.

    Feed it the current adjacency plus the bitmask of rows that changed
    (:meth:`update`), then :meth:`run` the marked mask through the same
    Rule 1 → Rule 2 procedure as :func:`repro.core.reduction.prune`.  The
    output (mask and stats) is bit-identical to the scratch engine for
    every scheme; only the amount and shape of recomputation differs.
    """

    def __init__(self, scheme: PriorityScheme):
        self.scheme = scheme
        # registry schemes get vectorized key handling; a custom scheme
        # (arbitrary key_fn) falls back to exact tuple keys
        self._fast_keys = SCHEMES.get(scheme.name) is scheme
        self.n = -1  # sentinel: differs from any real size, even 0
        self._adj: list[int] = []
        self._W = 1
        self._ids32 = _EMPTY_I32
        self._deg = np.empty(0, dtype=np.int64)
        self._pcs = np.empty(0, dtype=np.int64)  # per-node pair counts
        self._packed = np.zeros((0, 1), dtype=np.uint64)  # open rows, (n, W)
        self._packedT = np.zeros((1, 0), dtype=np.uint64)  # open rows, (W, n)
        self._closedT = np.zeros((1, 0), dtype=np.uint64)  # closed rows
        # concatenated index arrays
        self._tV = self._tU = self._tW = _EMPTY_I32  # all neighbor pairs
        self._eV = self._eU = _EMPTY_I32  # directed edges
        # adjacency-only caches
        self._cV = self._cU = self._cW = _EMPTY_I32  # covered triples
        self._ccu = self._ccw = _EMPTY_BOOL  # mutual-coverage case flags
        self._edge_cov = _EMPTY_BOOL  # N[v] ⊆ N[u] per directed edge
        # key-dependent caches
        self._have_keys = False
        self._qe: np.ndarray | None = None  # quantized energy (fast path)
        self._key_deg = np.empty(0, dtype=np.int64)
        self._keys: list[tuple] | None = None  # generic path only
        self._rank = np.empty(0, dtype=np.int32)
        self._fV = self._fU = self._fW = _EMPTY_I32  # firing triples
        self._f_off: list[int] = [0]  # per-node slices into the triples
        self._fU_list: list[int] = []
        self._fW_list: list[int] = []
        self._f_order: list[int] = []  # firing nodes by ascending rank
        self._dom: list[int] = []  # Rule-1 dominator masks
        self._bufs: dict[str, np.ndarray] = {}

    @property
    def adjacency(self) -> list[int]:
        """The engine's canonical adjacency copy (do not mutate)."""
        return self._adj

    def _buf(self, name: str, shape, dtype=np.uint64) -> np.ndarray:
        """Reusable scratch buffer (the coverage sweep runs every interval
        at low stability; per-call temporaries would dominate it)."""
        if isinstance(shape, int):
            shape = (shape,)
        size = 1
        for s in shape:
            size *= s
        b = self._bufs.get(name)
        if b is None or len(b) < size or b.dtype != dtype:
            b = np.empty(max(size, 16), dtype=dtype)
            self._bufs[name] = b
        return b[:size].reshape(shape)

    # -- state refresh -----------------------------------------------------

    def update(
        self, adj: Sequence[int], changed: int, energy: Sequence[float] | None
    ) -> tuple[bool, bool]:
        """Absorb new adjacency rows and energy levels.

        ``changed`` is the bitmask of indices where ``adj`` differs from the
        engine's copy (ignored on a size change, which resets everything).
        Returns ``(structure_changed, keys_changed)`` — both False means
        every cached table, and hence any downstream result, is still valid.
        """
        n = len(adj)
        if n != self.n:
            self._init_structure(adj)
            structure_changed = True
        elif changed:
            self._patch_rows(adj, changed)
            structure_changed = True
        else:
            structure_changed = False

        uses_rules = self.scheme.uses_rules
        if structure_changed and (uses_rules or not self._fast_keys):
            self._rebuild_index()  # refreshes _deg, which the keys read
        if structure_changed and uses_rules:
            self._eval_coverage()
        keys_changed = self._refresh_keys(energy)
        if uses_rules and (structure_changed or keys_changed) and n:
            self._eval_fire()
            self._eval_dominators()
        if obs.enabled():
            obs.add("delta.rows_patched", bitset.popcount(changed))
            if keys_changed:
                obs.count("delta.key_refreshes")
        return structure_changed, keys_changed

    def _init_structure(self, adj: Sequence[int]) -> None:
        n = len(adj)
        self.n = n
        self._adj = list(adj)
        self._W = max(1, (n + 63) // 64)
        self._ids32 = np.arange(n, dtype=np.int32)
        self._have_keys = False
        self._qe = None
        self._keys = None
        self._bufs.clear()
        if n == 0:
            self._packed = np.zeros((0, self._W), dtype=np.uint64)
            self._packedT = np.zeros((self._W, 0), dtype=np.uint64)
            self._closedT = np.zeros((self._W, 0), dtype=np.uint64)
            self._deg = np.empty(0, dtype=np.int64)
            return
        words = _pack_rows(self._adj, self._W)
        self._packed = words.copy()  # frombuffer output is read-only
        self._packedT = words.T.copy()
        closed = words.copy()
        rows = np.arange(n)
        closed[rows, rows >> 6] |= np.uint64(1) << (
            rows.astype(np.uint64) & np.uint64(63)
        )
        self._closedT = closed.T.copy()

    def _patch_rows(self, adj: Sequence[int], changed: int) -> None:
        ids = bitset.ids_from_mask(changed)
        rows = [adj[v] for v in ids]
        for v, m in zip(ids, rows):
            self._adj[v] = m
        idx = np.asarray(ids, dtype=np.intp)
        words = _pack_rows(rows, self._W)
        self._packed[idx] = words
        self._packedT[:, idx] = words.T
        closed = words.copy()
        k = np.arange(len(ids))
        closed[k, idx >> 6] |= np.uint64(1) << (
            idx.astype(np.uint64) & np.uint64(63)
        )
        self._closedT[:, idx] = closed.T

    def _refresh_keys(self, energy: Sequence[float] | None) -> bool:
        """Detect key-vector changes and rebuild the rank encoding.

        Fast path (registry schemes): the tuple keys are ``(id,)``,
        ``(deg, id)``, ``(qe, id)`` or ``(qe, deg, id)`` with
        ``qe = round(e/quantum)*quantum``.  ``np.rint`` rounds half-to-even
        exactly like Python ``round``, so lexsorting the same component
        arrays yields the identical total order — rank comparisons are
        then exactly the tuple comparisons of the scratch engine.
        """
        n = self.n
        if not self._fast_keys:
            keys = self.scheme.keys([int(d) for d in self._deg], energy)
            if self._have_keys and keys == self._keys:
                return False
            self._keys = keys
            order = sorted(range(n), key=keys.__getitem__)
            rank = np.empty(n, dtype=np.int32)
            rank[np.asarray(order, dtype=np.intp)] = self._ids32
            self._rank = rank
            self._have_keys = True
            return True

        name = self.scheme.name
        uses_deg = name in ("nd", "el2")
        uses_energy = name in ("el1", "el2")
        qe = None
        if uses_energy:
            e = np.asarray(energy, dtype=np.float64)
            q = self.scheme.quantum
            qe = np.rint(e / q) * q if q is not None else e.copy()
        if self._have_keys:
            same = True
            if uses_deg and not np.array_equal(self._deg, self._key_deg):
                same = False
            if same and uses_energy and not np.array_equal(qe, self._qe):
                same = False
            if same:
                return False
        if name in ("nr", "id"):
            rank = self._ids32
        else:
            if name == "nd":
                order = np.lexsort((self._ids32, self._deg))
            elif name == "el1":
                order = np.lexsort((self._ids32, qe))
            else:  # el2
                order = np.lexsort((self._ids32, self._deg, qe))
            rank = np.empty(n, dtype=np.int32)
            rank[order] = self._ids32
        self._rank = rank
        if uses_deg:
            self._key_deg = self._deg.copy()
        self._qe = qe
        self._have_keys = True
        return True

    def _rebuild_index(self) -> None:
        """Derive degrees, the directed-edge table, and the neighbor-pair
        triple table from the packed rows in one vectorized pass.

        The per-node pair lists are never materialized: the neighbors of
        all nodes live concatenated in ``eU`` (grouped by ``v``), so node
        ``v``'s pairs are two gathers through the closed-form pair-ordinal
        decode (:func:`repro.core.vectorized.pair_index_arrays`), shifted
        by ``v``'s offset into ``eU`` — no per-node Python loop.
        """
        n = self.n
        if n == 0:
            self._deg = np.empty(0, dtype=np.int64)
            self._pcs = np.empty(0, dtype=np.int64)
            self._tV = self._tU = self._tW = _EMPTY_I32
            self._eV = self._eU = _EMPTY_I32
            return
        # full-width bit matrix: padding columns are zero, so sums and
        # nonzero positions are unaffected and stay contiguous (a 2-D
        # nonzero on the sliced view costs ~40% more)
        bits = np.unpackbits(
            self._packed.view(np.uint8), axis=1, bitorder="little"
        )
        degs = bits.sum(axis=1, dtype=np.int64)
        self._deg = degs
        flat = np.flatnonzero(bits)
        eU = (flat % bits.shape[1]).astype(np.int32)
        self._eV = np.repeat(self._ids32, degs)
        self._eU = eU
        pcs = degs * (degs - 1) >> 1
        self._pcs = pcs
        self._tV = np.repeat(self._ids32, pcs)
        if len(self._tV):
            iu, iw = pair_index_arrays(degs)
            base = np.repeat(np.cumsum(degs) - degs, pcs)
            self._tU = eU[iu + base]
            self._tW = eU[iw + base]
        else:
            self._tU = self._tW = _EMPTY_I32

    def _eval_coverage(self) -> None:
        """Re-derive every adjacency-only verdict (word-parallel sweep).

        Phase 1 evaluates the Rule-2 primary test ``N(v) ⊆ N(u) ∪ N(w)``
        over all neighbor-pair triples; phase 2 evaluates the mutual
        coverage case flags only on the covered subset (typically a small
        fraction).  Rule 1's ``N[v] ⊆ N[u]`` runs over directed edges.
        All passes reuse engine-owned scratch buffers.
        """
        tV, tU, tW = self._tV, self._tU, self._tW
        T = len(tV)
        W = self._W
        packedT = self._packedT
        if T == 0:
            self._cV = self._cU = self._cW = _EMPTY_I32
            self._ccu = self._ccw = _EMPTY_BOOL
        else:
            au = self._buf("au", (W, T))
            aw = self._buf("aw", (W, T))
            # v-side rows repeat per pair count — np.repeat walks the
            # source once, much cheaper than a gather through tV
            av = np.repeat(packedT, self._pcs, axis=1)
            np.take(packedT, tU, axis=1, out=au)
            np.take(packedT, tW, axis=1, out=aw)
            np.bitwise_or(au, aw, out=au)
            np.bitwise_not(au, out=au)
            np.bitwise_and(av, au, out=au)  # N(v) members u∪w misses
            acc = au[0]
            for j in range(1, W):
                np.bitwise_or(acc, au[j], out=acc)
            cidx = np.flatnonzero(acc == 0)
            cV = tV[cidx]
            cU = tU[cidx]
            cW = tW[cidx]
            self._cV, self._cU, self._cW = cV, cU, cW
            if self.scheme.uses_coverage_cases and len(cidx):
                S = len(cidx)
                sv = self._buf("sv", (W, S))
                su = self._buf("su", (W, S))
                sw = self._buf("sw", (W, S))
                sx = self._buf("sx", (W, S))
                np.take(packedT, cV, axis=1, out=sv)
                np.take(packedT, cU, axis=1, out=su)
                np.take(packedT, cW, axis=1, out=sw)
                np.bitwise_or(sv, sw, out=sx)  # N(v) | N(w)
                np.bitwise_not(sx, out=sx)
                np.bitwise_and(su, sx, out=sx)  # N(u) misses
                acu = sx[0].copy()
                for j in range(1, W):
                    np.bitwise_or(acu, sx[j], out=acu)
                np.bitwise_or(sv, su, out=sx)  # N(v) | N(u)
                np.bitwise_not(sx, out=sx)
                np.bitwise_and(sw, sx, out=sx)  # N(w) misses
                acw = sx[0].copy()
                for j in range(1, W):
                    np.bitwise_or(acw, sx[j], out=acw)
                self._ccu = acu == 0  # N(u) ⊆ N(v) ∪ N(w)
                self._ccw = acw == 0  # N(w) ⊆ N(u) ∪ N(v)
            else:
                self._ccu = self._ccw = _EMPTY_BOOL
        eV, eU = self._eV, self._eU
        E = len(eV)
        if E == 0:
            self._edge_cov = _EMPTY_BOOL
        else:
            closedT = self._closedT
            eu = self._buf("eeu", (W, E))
            ev = np.repeat(closedT, self._deg, axis=1)
            np.take(closedT, eU, axis=1, out=eu)
            np.bitwise_not(eu, out=eu)
            np.bitwise_and(ev, eu, out=eu)  # N[v] members N[u] misses
            acc = eu[0]
            for j in range(1, W):
                np.bitwise_or(acc, eu[j], out=acc)
            self._edge_cov = acc == 0
        if obs.enabled():
            obs.add("delta.coverage_triples", T)
            obs.add("delta.covered_triples", len(self._cV))

    def _eval_fire(self) -> None:
        """Combine cached coverage verdicts with the current key ranks.

        Besides the firing-triple arrays this materializes the structures
        the sequential Rule-2 pass consumes: per-node slice offsets into
        the (v-grouped) triple table, plain-list copies for the Python
        scan, and the firing nodes ordered by ascending rank.
        """
        if len(self._cV) == 0:
            self._fV = self._fU = self._fW = _EMPTY_I32
            self._f_off = [0] * (self.n + 1)
            self._fU_list = []
            self._fW_list = []
            self._f_order = []
            return
        rank = self._rank
        rv, ru, rw = rank[self._cV], rank[self._cU], rank[self._cW]
        lu, lw = rv < ru, rv < rw
        if self.scheme.uses_coverage_cases:
            # case 1: only v covered → fire; case 2: v + one other → key
            # test against that other; case 3: all covered → strict
            # minimum.  Collapsing the case table: the u-side key test is
            # waived exactly when u is not mutually covered, same for w.
            np.bitwise_or(lu, ~self._ccu, out=lu)
            np.bitwise_or(lw, ~self._ccw, out=lw)
        fire = np.bitwise_and(lu, lw, out=lu)
        keep = np.flatnonzero(fire)
        fV = self._cV[keep]
        self._fV = fV
        self._fU = self._cU[keep]
        self._fW = self._cW[keep]
        # _cV is grouped by ascending v (it inherits _tV's repeat order),
        # so fV is too — per-node slices come from one searchsorted
        self._f_off = np.searchsorted(
            fV, np.arange(self.n + 1, dtype=np.int32)
        ).tolist()
        self._fU_list = self._fU.tolist()
        self._fW_list = self._fW.tolist()
        # fV is sorted, so its distinct values are where it steps
        vs = fV[np.flatnonzero(np.diff(fV, prepend=np.int32(-1)))]
        self._f_order = vs[np.argsort(rank[vs])].tolist()

    def _eval_dominators(self) -> None:
        """Rule-1 dominator masks: ``dom[v] ∋ u`` iff ``N[v] ⊆ N[u]`` and
        ``key(v) < key(u)`` — at pass time ``v`` unmarks iff a dominator is
        marked."""
        dom = [0] * self.n
        if len(self._eV):
            rank = self._rank
            sel = self._edge_cov & (rank[self._eV] < rank[self._eU])
            for v, u in zip(self._eV[sel].tolist(), self._eU[sel].tolist()):
                dom[v] |= 1 << u
        self._dom = dom

    # -- rule passes -------------------------------------------------------

    def rule1_pass(self, marked: int) -> int:
        """Simultaneous Rule-1 pass via cached dominator masks."""
        dom = self._dom
        removed = 0
        m = marked
        while m:
            low = m & -m
            m ^= low
            if dom[low.bit_length() - 1] & marked:
                removed |= low
        if obs.enabled():
            obs.add("rule1.nodes_evaluated", bitset.popcount(marked))
            obs.add("rule1.removed", bitset.popcount(removed))
        return marked & ~removed

    def rule2_pass(self, marked: int) -> int:
        """One Rule-2 pass over the cached firing table.

        The scratch engine runs iterated local-minimum rounds (the
        distributed realization).  This pass removes the *same set* by
        processing firing nodes once in ascending rank order, because the
        round semantics is sequentializable:

        * firing is monotone — removals only kill firing pairs (``pm ⊆
          current``), never create them, so a non-candidate never becomes
          one;
        * a node ``w`` cannot commit while a smaller-rank candidate
          neighbor ``v`` exists (``v`` blocks ``w`` by definition of the
          local minimum), so when ``v`` is decided every smaller-rank
          neighbor is final and no larger-rank neighbor has committed;
        * non-neighbor removals cannot affect ``v`` (its firing pairs cite
          members of ``N(v)`` only).

        Hence each node's decision under round semantics equals
        ``fires(v, current)`` evaluated in rank order — which is what this
        loop computes.  Equivalence is pinned by the delta-vs-scratch
        property tests.
        """
        counting = obs.enabled()
        if counting:
            obs.add("rule2.nodes_evaluated", bitset.popcount(marked))
        if len(self._fV) == 0 or marked == 0:
            return marked
        mk = _bools_from_mask(marked, self.n).tolist()
        off = self._f_off
        fU, fW = self._fU_list, self._fW_list
        removed = 0
        for v in self._f_order:
            if not mk[v]:
                continue
            for i in range(off[v], off[v + 1]):
                if mk[fU[i]] and mk[fW[i]]:
                    mk[v] = False
                    removed |= 1 << v
                    break
        if counting:
            obs.add("rule2.removed", bitset.popcount(removed))
        return marked & ~removed

    def run(
        self, marked: int, *, fixed_point: bool = False, max_rounds: int = 1_000
    ) -> tuple[int, PruneStats]:
        """Rule 1 then Rule 2, mirroring :func:`repro.core.reduction.prune`."""
        initial = bitset.popcount(marked)
        if not self.scheme.uses_rules:
            return marked, PruneStats(initial, 0, 0, 0)
        removed1 = removed2 = 0
        rounds = 0
        current = marked
        while True:
            rounds += 1
            with obs.span("rule1"):
                after1 = self.rule1_pass(current)
            removed1 += bitset.popcount(current) - bitset.popcount(after1)
            with obs.span("rule2"):
                after2 = self.rule2_pass(after1)
            removed2 += bitset.popcount(after1) - bitset.popcount(after2)
            stable = after2 == current
            current = after2
            if stable or not fixed_point or rounds >= max_rounds:
                break
        return current, PruneStats(initial, removed1, removed2, rounds)


class DeltaCDSPipeline:
    """End-to-end incremental CDS recomputation across update intervals.

    Call :meth:`compute` once per interval with the current topology and
    energy levels.  The pipeline diffs the adjacency against the previous
    interval, re-marks only the 2-hop dirty footprint, refreshes the cached
    rule engine where adjacency/keys changed, and short-circuits to the
    previous :class:`CDSResult` when both fingerprints are unchanged.

    Parameters
    ----------
    scheme:
        Priority scheme name or instance (as :func:`compute_cds`).
    fixed_point:
        Iterate the rule passes to a fixed point (the ablation mode).
    verify:
        Assert Properties 1–2 on every result.
    shadow_check:
        Also run the from-scratch pipeline each interval and raise
        :class:`InvariantViolation` unless the gateway masks and
        ``PruneStats`` are bit-identical (debug / CI equivalence mode;
        pays for both paths).
    """

    def __init__(
        self,
        scheme: str | PriorityScheme,
        *,
        fixed_point: bool = False,
        verify: bool = False,
        shadow_check: bool = False,
    ):
        self.scheme = scheme_by_name(scheme) if isinstance(scheme, str) else scheme
        self.fixed_point = fixed_point
        self.verify = verify
        self.shadow_check = shadow_check
        self.engine = CachedRuleEngine(self.scheme)
        self._prev_marked = 0
        self._prev_result: CDSResult | None = None

    def reset(self) -> None:
        """Drop all cached state (next compute is a cold start)."""
        self.engine = CachedRuleEngine(self.scheme)
        self._prev_marked = 0
        self._prev_result = None

    def compute(self, graph, energy: Sequence[float] | None = None) -> CDSResult:
        """The incremental equivalent of :func:`compute_cds`.

        ``graph`` is anything exposing bitmask ``adjacency`` (AdHocNetwork,
        NeighborhoodView) or a raw bitmask list.  Unlike the scratch path
        no snapshot/validation pass is taken: rows are trusted as maintained
        by :meth:`AdHocNetwork.apply_moves` (or whatever the caller built).
        """
        adj = graph.adjacency if hasattr(graph, "adjacency") else graph
        n = len(adj)
        sch = self.scheme
        validate_energy(sch, energy, n)

        with obs.span("cds"):
            engine = self.engine
            cold = engine.n != n or self._prev_result is None
            if cold:
                changed = (1 << n) - 1
                dirty = changed
            else:
                prev_adj = engine.adjacency
                # one vectorized row compare, packed back to a bitmask
                neq = changed_row_flags(adj, prev_adj)
                changed = int.from_bytes(
                    np.packbits(neq, bitorder="little").tobytes(), "little"
                )
                dirty = 0
                if changed:
                    m = changed
                    while m:
                        low = m & -m
                        m ^= low
                        v = low.bit_length() - 1
                        dirty |= low | prev_adj[v] | adj[v]

            structure_changed, keys_changed = engine.update(adj, changed, energy)

            counting = obs.enabled()
            if counting:
                obs.count("delta.intervals")
                obs.add("delta.nodes", n)
                obs.add("delta.changed_rows", bitset.popcount(changed))
                obs.add("delta.dirty_marking", bitset.popcount(dirty))

            if not cold and not structure_changed and not keys_changed:
                # both fingerprints (adjacency rows, key vector) unchanged:
                # every stage would reproduce the previous interval exactly
                if counting:
                    obs.count("delta.short_circuit")
                    obs.count("cds.computed")
                    obs.add("cds.size", self._prev_result.size)
                return self._prev_result

            if cold:
                marked = marked_mask(engine.adjacency)
            elif changed:
                marked = marked_mask_delta(
                    engine.adjacency, self._prev_marked, dirty
                )
            else:
                marked = self._prev_marked

            final, stats = engine.run(marked, fixed_point=self.fixed_point)
            result = CDSResult(
                scheme=sch.name, gateway_mask=final, n=n, stats=stats
            )
            check_result(
                result,
                engine.adjacency,
                energy,
                scheme=sch,
                fixed_point=self.fixed_point,
                verify=self.verify,
                shadow_check=self.shadow_check,
                context="delta",
            )

        self._prev_marked = marked
        self._prev_result = result
        return result
