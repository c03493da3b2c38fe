"""Incremental sparse CDS pipeline: persistent CSR + dirty components.

Rebuilding the CSR and recomputing every component from scratch each
interval (:func:`repro.core.sparse.compute_cds_sparse`) pays the full
N=100k cost even when a handful of hosts moved.  This module keeps the
:class:`~repro.core.sparse.CSRBatch` alive across intervals and
recomputes only what a change can reach:

1. **CSR patching.**  For geometric inputs (anything with ``positions``
   and ``radius``, i.e. :class:`~repro.graphs.adhoc.AdHocNetwork`), the
   pipeline diffs cached positions to find movers and rebuilds *only
   their* rows via the grid spatial hash
   (:func:`repro.core.sparse.unit_disk_edge_lists` — the same
   bit-identical distance math the full builder uses, so the patched CSR
   equals a from-scratch build array for array).  Old edges with neither
   endpoint moved are kept; reverse edges into unmoved neighbors are
   regenerated from the mover rows.  The changed-row set is then *exact*:
   the endpoints of the symmetric difference between the old and new
   mover-incident edge keys — a mover that kept all its neighbors dirties
   nothing, the row-diff contract :meth:`AdHocNetwork.apply_moves`
   established for the packed-word path.  For raw adjacency inputs the
   rows are diffed directly (:func:`repro.core.delta.changed_row_flags`,
   the delta pipeline's primitive) and the CSR is rebuilt, but component
   reuse below still applies.

2. **Dirty components.**  A changed row can only affect its own (old)
   connected component: every added or removed edge has both endpoints in
   the changed set, so the union of touched old components is closed
   under the *new* adjacency too — it is recomputed wholesale as one
   sub-CSR through :meth:`SparseCDSEngine.run_detailed`, which also
   relabels it (splits and merges fall out of the engine's own
   ``connected_labels`` pass).  Untouched components keep their cached
   flags and per-component :class:`PruneStats` verbatim.  This is the
   component-granular analogue of :class:`repro.core.delta.
   DeltaCDSPipeline`'s 2-hop dirty set: on CSR, marking/Rule-1/Rule-2 are
   already evaluated per component, so the component is the natural
   dirty-closure unit.

3. **Key dirtiness.**  Energy drain changes keys without touching
   structure.  Rules compare nodes only *within* a component and every
   scheme's key is a strict total order (id tiebreak), so a clean
   component's result depends only on the relative key order of its
   members: the pipeline lexsorts ``(label, key)`` and re-marks exactly
   the components whose member permutation changed.  This check is taken
   for the registry schemes (``nr``/``id``/``nd`` never re-key clean
   components — degrees only change inside structurally dirty ones;
   ``el1``/``el2`` compare quantized-energy orders); a non-registry
   scheme falls back to "any energy change dirties every clean component"
   which is conservative but exact.

Aggregation replays the engine's own rule: removal counts sum over
components, ``rounds`` is the max, floored at one for rule-running
schemes.  The result — gateway mask *and* ``PruneStats`` — is
bit-identical to a fresh :func:`repro.core.sparse.compute_cds_sparse`
on the same snapshot (and hence to :func:`repro.core.cds.compute_cds`), pinned by hypothesis properties
over random move/churn sequences in
``tests/property/test_sparse_delta_properties.py``.

A topology whose host count (or radius, or input kind) changes triggers
a cold restart — join/leave churn *within* a fixed id space is the
supported fast path, matching how the simulator models churn (hosts
moving out of range, energy death) and how the service maps tenants to
dense index spaces.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.core.cds import CDSResult
from repro.core.delta import changed_row_flags
from repro.core.pipeline import check_result, validate_energy
from repro.core.priority import SCHEMES, PriorityScheme, scheme_by_name
from repro.core.reduction import PruneStats
from repro.core.sparse import (
    CSRBatch,
    SparseCDSEngine,
    unit_disk_edge_lists,
)
from repro.core.vectorized import chunk_words, flags_to_masks

__all__ = ["IncrementalSparseCDSPipeline", "sub_csr"]

_EMPTY = np.empty(0, dtype=np.int64)


def sub_csr(csr: CSRBatch, nodes: np.ndarray) -> CSRBatch:
    """Row/column-restricted CSR over ``nodes`` (ascending flat ids).

    ``nodes`` must be closed under adjacency (a union of connected
    components) so every destination remaps; local ids are the ranks of
    the global ids, an order-preserving remap — the same argument the
    engine's dense tier makes for its id tiebreaks.
    """
    indptr, dst = csr.indptr, csr.dst
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    new_indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    if total == 0:
        return CSRBatch(new_indptr, _EMPTY, 1, len(nodes))
    owner = np.repeat(np.arange(len(nodes), dtype=np.int64), counts)
    within = np.arange(total, dtype=np.int64) - new_indptr[:-1][owner]
    gidx = indptr[nodes[owner]] + within
    new_dst = np.searchsorted(nodes, dst[gidx])
    return CSRBatch(new_indptr, new_dst, 1, len(nodes))


class IncrementalSparseCDSPipeline:
    """Persistent-CSR, dirty-component sparse pipeline (batch width 1).

    Duck-type compatible with :class:`repro.core.delta.DeltaCDSPipeline`
    (``compute(graph, energy=...)`` / ``reset()``) so ``run_interval``
    and the service swap it in through the same socket.  Selected by
    ``backend="sparse"`` (:func:`repro.core.pipeline.make_pipeline`).

    Parameters match :class:`~repro.core.delta.DeltaCDSPipeline` plus
    the engine's ``memory_budget_mb``; ``shadow_check`` cross-checks
    every interval against the scalar oracle (debug/CI mode — it
    materializes the Python-int adjacency, so it defeats the point at
    100k but pins equivalence at test scale).
    """

    def __init__(
        self,
        scheme: str | PriorityScheme,
        *,
        fixed_point: bool = False,
        verify: bool = False,
        shadow_check: bool = False,
        memory_budget_mb: float | None = None,
    ):
        self.scheme = (
            scheme_by_name(scheme) if isinstance(scheme, str) else scheme
        )
        self.fixed_point = fixed_point
        self.verify = verify
        self.shadow_check = shadow_check
        self.engine = SparseCDSEngine(
            self.scheme,
            fixed_point=fixed_point,
            memory_budget_mb=memory_budget_mb,
        )
        self._budget_words = chunk_words(self.engine.memory_budget_mb)
        self.reset()

    def reset(self) -> None:
        """Drop all cached state (next compute is a cold start)."""
        self._mode: str | None = None
        self._n = -1
        self._csr: CSRBatch | None = None
        self._pos: np.ndarray | None = None
        self._radius = 0.0
        self._rows: list[int] | None = None
        self._label: np.ndarray | None = None
        self._flags: np.ndarray | None = None
        self._stats: dict[int, tuple[int, int, int, int]] = {}
        self._ekey: bytes | None = None
        self._key_seq: np.ndarray | None = None
        self._key_labs: np.ndarray | None = None
        self._key_starts: np.ndarray | None = None
        self._key_sizes: np.ndarray | None = None
        self._prev_result: CDSResult | None = None

    # -- fingerprints and key order ----------------------------------------

    def _energy_fingerprint(self, energy_arr: np.ndarray | None):
        if energy_arr is None:
            return None
        q = self.scheme.quantum
        qe = np.rint(energy_arr / q) * q if q is not None else energy_arr
        return qe.tobytes()

    def _key_order(self, energy_arr: np.ndarray) -> np.ndarray:
        """Node ids grouped by component label, key-ascending within.

        Valid only for the registry EL schemes (the callers gate on
        that); the column stack mirrors ``CachedRuleEngine._refresh_keys``
        — quantized energy, then degree for el2, then id, with the label
        as the primary (grouping) column.
        """
        q = self.scheme.quantum
        qe = np.rint(energy_arr / q) * q if q is not None else energy_arr
        ids = np.arange(self._n, dtype=np.int64)
        if self.scheme.name == "el2":
            deg = np.diff(self._csr.indptr)
            cols = (ids, deg, qe, self._label)
        else:  # el1
            cols = (ids, qe, self._label)
        return np.lexsort(cols)

    def _refresh_key_cache(self, energy_arr: np.ndarray | None) -> None:
        """Cache the per-component key order for next interval's diff."""
        trusted = SCHEMES.get(self.scheme.name) is self.scheme
        if not (trusted and self.scheme.needs_energy) or energy_arr is None:
            self._key_seq = None
            self._key_labs = None
            self._key_starts = None
            self._key_sizes = None
            return
        order = self._key_order(energy_arr)
        labs, starts = np.unique(self._label[order], return_index=True)
        self._key_seq = order
        self._key_labs = labs
        self._key_starts = starts
        self._key_sizes = np.diff(np.append(starts, self._n))

    def _key_dirty_labels(
        self,
        energy_arr: np.ndarray | None,
        ekey,
        struct_labels: np.ndarray,
    ) -> np.ndarray:
        """Labels of structurally-clean components whose key order moved."""
        sch = self.scheme
        trusted = SCHEMES.get(sch.name) is sch
        if trusted and not sch.needs_energy:
            # nr/id/nd keys consult only ids and degrees; degrees change
            # only inside structurally dirty components
            return _EMPTY
        if ekey == self._ekey:
            return _EMPTY
        all_labs = np.unique(self._label)
        clean = np.setdiff1d(all_labs, struct_labels)
        if not trusted or self._key_seq is None:
            # unknown key function: any energy change may reorder any
            # component — recompute them all (correct, no reuse)
            return clean
        order = self._key_order(energy_arr)
        labs, starts = np.unique(self._label[order], return_index=True)
        sizes = np.diff(np.append(starts, self._n))
        ni = np.searchsorted(labs, clean)
        oi = np.searchsorted(self._key_labs, clean)
        oi_c = np.minimum(oi, len(self._key_labs) - 1)
        known = (self._key_labs[oi_c] == clean) & (
            self._key_sizes[oi_c] == sizes[ni]
        )
        dirty = [clean[~known]]
        check = np.flatnonzero(known)
        if len(check):
            csz = sizes[ni[check]]
            total = int(csz.sum())
            first = np.cumsum(csz) - csz
            owner = np.repeat(np.arange(len(check), dtype=np.int64), csz)
            within = np.arange(total, dtype=np.int64) - first[owner]
            new_members = order[starts[ni[check]][owner] + within]
            old_members = self._key_seq[
                self._key_starts[oi[check]][owner] + within
            ]
            moved = new_members != old_members
            dirty.append(clean[check[np.unique(owner[moved])]])
        return np.concatenate(dirty)

    # -- CSR maintenance ----------------------------------------------------

    def _patch_csr_geo(
        self, pos: np.ndarray, moved: np.ndarray
    ) -> tuple[CSRBatch, np.ndarray]:
        """Patch the cached CSR for moved rows; return it + changed nodes.

        Only mover-incident edges can differ, so the new edge list is
        [old edges with neither endpoint moved] + [fresh mover rows from
        the grid hash] + [their reverses into unmoved nodes].  The
        changed-node set is the endpoints of the old/new mover-incident
        edge-key symmetric difference — exact, not an over-approximation.
        """
        csr = self._csr
        n = csr.n
        indptr, dst = csr.indptr, csr.dst
        oS = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        mflag = np.zeros(n, dtype=bool)
        mflag[moved] = True
        minc = mflag[oS] | mflag[dst]
        keep = ~minc
        mS, mD = unit_disk_edge_lists(
            pos, self._radius, moved, self._budget_words
        )
        revk = ~mflag[mD]
        new_src = np.concatenate([oS[keep], mS, mD[revk]])
        new_dst = np.concatenate([dst[keep], mD, mS[revk]])
        perm = np.lexsort((new_dst, new_src))
        new_src, new_dst = new_src[perm], new_dst[perm]
        ndeg = np.bincount(new_src, minlength=n)
        new_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(ndeg, out=new_indptr[1:])
        old_keys = oS[minc] * n + dst[minc]
        new_keys = np.concatenate(
            [mS * n + mD, mD[revk] * n + mS[revk]]
        )
        delta = np.setxor1d(old_keys, new_keys)
        changed = np.unique(np.concatenate([delta // n, delta % n]))
        return CSRBatch(new_indptr, new_dst, 1, n), changed

    # -- driver --------------------------------------------------------------

    def compute(
        self, graph, energy: Sequence[float] | None = None
    ) -> CDSResult:
        """The incremental equivalent of :func:`compute_cds_sparse`."""
        geo = hasattr(graph, "positions") and hasattr(graph, "radius")
        if geo:
            pos = np.asarray(graph.positions, dtype=np.float64)
            n = len(pos)
            rows_src = None
        else:
            pos = None
            rows_src = (
                graph.adjacency if hasattr(graph, "adjacency") else graph
            )
            n = len(rows_src)
        sch = self.scheme
        energy_arr = validate_energy(sch, energy, n)
        if n == 0:
            rounds = 1 if sch.uses_rules else 0
            return CDSResult(
                scheme=sch.name,
                gateway_mask=0,
                n=0,
                stats=PruneStats(0, 0, 0, rounds),
            )

        mode = "geo" if geo else "adj"
        with obs.span("cds"):
            cold = (
                self._prev_result is None
                or self._mode != mode
                or self._n != n
                or (geo and self._radius != float(graph.radius))
            )
            if obs.enabled():
                obs.count("sdelta.intervals")
            if cold:
                result = self._cold_start(graph, mode, pos, rows_src,
                                          energy_arr, n)
            else:
                result = self._warm_step(graph, pos, rows_src, energy_arr)
        return result

    def _cold_start(
        self, graph, mode, pos, rows_src, energy_arr, n
    ) -> CDSResult:
        if mode == "geo":
            self._radius = float(graph.radius)
            csr = CSRBatch.from_positions(
                pos,
                self._radius,
                memory_budget_mb=self.engine.memory_budget_mb,
            )
            self._pos = pos.copy()
            self._rows = None
        else:
            rows = list(rows_src)
            csr = CSRBatch.from_adjacency(
                [rows], memory_budget_mb=self.engine.memory_budget_mb
            )
            self._rows = rows
            self._pos = None
        self._mode = mode
        self._n = n
        self._csr = csr
        detail = self.engine.run_detailed(csr, energy_arr)
        self._flags = detail.flags
        self._label = detail.roots[detail.comp_of]
        self._stats = {
            int(detail.roots[c]): (
                int(detail.initial_c[c]),
                int(detail.rem1_c[c]),
                int(detail.rem2_c[c]),
                int(detail.rounds_c[c]),
            )
            for c in range(len(detail.roots))
        }
        if obs.enabled():
            obs.count("sdelta.cold_starts")
        return self._finish(graph, energy_arr)

    def _warm_step(self, graph, pos, rows_src, energy_arr) -> CDSResult:
        n = self._n
        if self._mode == "geo":
            moved = np.flatnonzero(np.any(pos != self._pos, axis=1))
            if moved.size:
                self._csr, changed = self._patch_csr_geo(pos, moved)
                self._pos[moved] = pos[moved]
            else:
                changed = _EMPTY
        else:
            neq = changed_row_flags(rows_src, self._rows)
            changed = np.flatnonzero(neq).astype(np.int64)
            if changed.size:
                rows = list(rows_src)
                self._rows = rows
                self._csr = CSRBatch.from_adjacency(
                    [rows], memory_budget_mb=self.engine.memory_budget_mb
                )

        ekey = self._energy_fingerprint(energy_arr)
        struct_labels = (
            np.unique(self._label[changed]) if changed.size else _EMPTY
        )
        key_dirty = self._key_dirty_labels(energy_arr, ekey, struct_labels)
        if changed.size == 0 and key_dirty.size == 0:
            # both fingerprints clean: the previous result is exact
            if obs.enabled():
                obs.count("sdelta.short_circuit")
                obs.count("cds.computed")
                obs.add("cds.size", self._prev_result.size)
            return self._prev_result

        dirty_labels = np.union1d(struct_labels, key_dirty)
        nodes = np.flatnonzero(np.isin(self._label, dirty_labels))
        sub = sub_csr(self._csr, nodes)
        sub_energy = energy_arr[nodes] if energy_arr is not None else None
        detail = self.engine.run_detailed(sub, sub_energy)
        self._flags[nodes] = detail.flags
        self._label[nodes] = nodes[detail.roots[detail.comp_of]]
        for lab in dirty_labels.tolist():
            self._stats.pop(int(lab), None)
        groots = nodes[detail.roots]
        for c in range(len(groots)):
            self._stats[int(groots[c])] = (
                int(detail.initial_c[c]),
                int(detail.rem1_c[c]),
                int(detail.rem2_c[c]),
                int(detail.rounds_c[c]),
            )
        if obs.enabled():
            obs.add("sdelta.changed_rows", int(changed.size))
            obs.add("sdelta.dirty_nodes", int(len(nodes)))
            obs.add("sdelta.reused_nodes", int(self._n - len(nodes)))
        return self._finish(graph, energy_arr)

    def _finish(self, graph, energy_arr) -> CDSResult:
        sch = self.scheme
        initial = rem1 = rem2 = rounds = 0
        for si, s1, s2, sr in self._stats.values():
            initial += si
            rem1 += s1
            rem2 += s2
            rounds = max(rounds, sr)
        # the reference engine always runs at least one rule round
        rounds = max(rounds, 1) if sch.uses_rules else 0
        mask = flags_to_masks(self._flags[None, :])[0]
        result = CDSResult(
            scheme=sch.name,
            gateway_mask=mask,
            n=self._n,
            stats=PruneStats(initial, rem1, rem2, rounds),
        )
        self._ekey = self._energy_fingerprint(energy_arr)
        self._refresh_key_cache(energy_arr)
        self._prev_result = result
        if obs.enabled():
            # the same whole-snapshot totals SparseCDSEngine.run reports
            obs.add("scds.marked", initial)
            obs.add("scds.final", int(self._flags.sum()))
            obs.add("scds.rounds", rounds)
        check_result(
            result,
            (
                self._adjacency_rows(graph)
                if self.verify or self.shadow_check
                else None
            ),
            energy_arr,
            scheme=sch,
            fixed_point=self.fixed_point,
            verify=self.verify,
            shadow_check=self.shadow_check,
            context="sparse-delta",
        )
        return result

    def _adjacency_rows(self, graph) -> list[int]:
        """Python-int rows for the opt-in verify/shadow paths only."""
        if self._mode == "adj":
            return self._rows
        return list(graph.adjacency)
