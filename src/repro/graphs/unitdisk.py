"""Vectorized unit-disk-graph construction.

The paper's topology model: hosts live in a 2-D free space and ``{u, v}``
is an edge iff their Euclidean distance is at most the (homogeneous)
transmission radius.  Two strategies are provided:

* :func:`unit_disk_adjacency_dense` — dense ``O(n^2)`` pairwise distances
  via a single NumPy broadcast.  For the paper's regime (n ≤ a few
  hundred) this is fastest because it stays inside one vectorized
  expression.
* :func:`unit_disk_adjacency_grid` — the directed edges of
  :func:`unit_disk_edge_lists`, the package's one spatial hash, packed
  into rows; ``O(n)`` for bounded density and preferable for thousands
  of hosts.

Both return open-neighborhood bitmasks (see :mod:`repro.graphs.bitset`).
``unit_disk_adjacency`` dispatches to the grid variant above a size cutoff.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError

__all__ = [
    "unit_disk_adjacency",
    "unit_disk_adjacency_dense",
    "unit_disk_adjacency_grid",
    "unit_disk_edge_lists",
    "unit_disk_edges",
]

#: Above this node count the grid strategy wins; below, dense broadcasting.
_GRID_CUTOFF = 512

#: Gathered candidates per edge-list chunk, and bytes per packing block
#: (32 MiB each: the default chunk budget of the array engines).
_CHUNK_WORDS = 1 << 22


def _check_positions(positions: np.ndarray) -> np.ndarray:
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise TopologyError(f"positions must be (n, 2), got {pos.shape}")
    if not np.all(np.isfinite(pos)):
        raise TopologyError("positions contain NaN/inf")
    return pos


def unit_disk_adjacency(positions: np.ndarray, radius: float) -> list[int]:
    """Open-neighborhood bitmasks of the unit-disk graph.

    Edge rule: ``dist(u, v) <= radius`` (inclusive, matching "within
    wireless transmission range").
    """
    pos = _check_positions(positions)
    if radius < 0:
        raise TopologyError(f"radius must be non-negative, got {radius}")
    if len(pos) > _GRID_CUTOFF:
        return unit_disk_adjacency_grid(pos, radius)
    return unit_disk_adjacency_dense(pos, radius)


def unit_disk_adjacency_dense(positions: np.ndarray, radius: float) -> list[int]:
    """Dense ``O(n^2)`` strategy: one broadcasted distance matrix."""
    pos = _check_positions(positions)
    n = len(pos)
    if n == 0:
        return []
    # Squared distances avoid n^2 sqrt calls.
    diff = pos[:, None, :] - pos[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    within = d2 <= radius * radius
    np.fill_diagonal(within, False)
    return _masks_from_bool_matrix(within)


def _masks_from_bool_matrix(within: np.ndarray) -> list[int]:
    """Pack each boolean row into a Python-int bitmask.

    ``np.packbits`` + ``int.from_bytes`` converts a whole row in C instead
    of a Python-level bit loop.
    """
    packed = np.packbits(within, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def unit_disk_adjacency_grid(positions: np.ndarray, radius: float) -> list[int]:
    """Spatial-hash strategy: the grid hash's edges for all nodes as rows."""
    pos = _check_positions(positions)
    return _grid_rows(pos, radius, np.arange(len(pos), dtype=np.int64))


def _grid_rows(pos: np.ndarray, radius: float, srcs: np.ndarray) -> list[int]:
    """Bitmask rows of the sorted, distinct sources ``srcs``.

    The edges of :func:`unit_disk_edge_lists` are ORed into a
    ``(rows, ⌈n/8⌉)`` uint8 buffer, one block of rows at a time so the
    buffer stays within ``_CHUNK_WORDS`` bytes, and each row becomes an
    int through ``int.from_bytes``.
    """
    src, dst = unit_disk_edge_lists(pos, radius, srcs, _CHUNK_WORDS)
    rows = np.searchsorted(srcs, src)
    k, nbytes = len(srcs), (len(pos) + 7) >> 3
    step = max(1, _CHUNK_WORDS // max(1, nbytes))
    out: list[int] = []
    for lo in range(0, k, step):
        hi = min(k, lo + step)
        sel = (rows >= lo) & (rows < hi)
        r, d = rows[sel] - lo, dst[sel]
        buf = np.zeros((hi - lo, nbytes), dtype=np.uint8)
        np.bitwise_or.at(buf, (r, d >> 3), (1 << (d & 7)).astype(np.uint8))
        out.extend(int.from_bytes(row.tobytes(), "little") for row in buf)
    return out


def unit_disk_edge_lists(
    pos: np.ndarray,
    radius: float,
    srcs: np.ndarray,
    budget_words: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-disk ``(src, dst)`` directed edge lists for a source subset.

    Candidates come from the 3×3 grid-cell block around each source (cell
    size = radius, or 1 at radius 0, where only coincident points — which
    share a cell — are kept), expanded in chunks bounded by
    ``budget_words``.  The distance arithmetic (``Σ (Δ)²`` in float64,
    inclusive ``d² ≤ r²``) matches :func:`unit_disk_adjacency_dense`, so
    calling this for *all* nodes builds the whole graph and calling it
    for just the movers yields rows bit-identical to a full rebuild — the
    property both :meth:`repro.graphs.adhoc.AdHocNetwork.apply_moves` and
    the incremental sparse pipeline's CSR patching rest on.  Edges are
    returned unsorted (grouped by chunk); callers lexsort or pack.
    """
    empty = np.empty(0, dtype=np.int64)
    k = len(srcs)
    if k == 0:
        return empty, empty
    n = len(pos)
    r2 = radius * radius
    keys = np.floor(pos / (radius if radius > 0 else 1.0)).astype(np.int64)
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


def unit_disk_edges(positions: np.ndarray, radius: float) -> list[tuple[int, int]]:
    """Edge list ``(u, v), u < v`` of the unit-disk graph."""
    adj = unit_disk_adjacency(positions, radius)
    edges = []
    for u, m in enumerate(adj):
        upper = m >> (u + 1)
        while upper:
            low = upper & -upper
            edges.append((u, u + 1 + low.bit_length() - 1))
            upper ^= low
    return edges
