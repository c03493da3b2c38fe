"""Mutable per-tenant network state with exact (bit-identical) replay.

A tenant is one ad hoc network: external node ids mapped to dense
indices, positions, energy levels, and a lazily maintained unit-disk
adjacency.  The contract that everything else in :mod:`repro.service`
leans on:

**State is a pure function of the applied update prefix.**  Applying the
same updates in the same order — whether live, or replayed from a
snapshot + WAL after a crash — produces byte-identical state: positions
and energies go through the same float operations in the same order, and
serialization round-trips float64 exactly (JSON numbers print via
``repr``).  :meth:`digest` pins that down to one comparable hash.

Index discipline: dense indices are assignment-ordered (a join appends,
a leave closes the gap by shifting).  Priority schemes tiebreak on the
dense index, so the mapping is part of the replayed state — which is why
it lives in the snapshot rather than being re-derived.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.graphs import bitset
from repro.graphs.neighborhoods import is_connected
from repro.graphs.unitdisk import unit_disk_adjacency
from repro.service.updates import Drain, Join, Leave, Move, Update

__all__ = ["TenantState"]


class TenantState:
    """One tenant network: membership, positions, energy, adjacency."""

    def __init__(
        self,
        *,
        radius: float = 25.0,
        side: float = 100.0,
        scheme: str = "el2",
    ):
        if radius <= 0:
            raise ConfigurationError(f"radius must be positive, got {radius}")
        if side <= 0:
            raise ConfigurationError(f"side must be positive, got {side}")
        self.radius = float(radius)
        self.side = float(side)
        self.scheme = scheme
        #: external node ids, assignment-ordered (dense index = position)
        self.ids: list[int] = []
        self._index: dict[int, int] = {}
        self.positions = np.zeros((0, 2), dtype=np.float64)
        self.energy: list[float] = []
        self._adj: list[int] = []
        #: number of updates applied since the tenant was created
        self.seq = 0

    # -- population ----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def adjacency(self) -> list[int]:
        """Open-neighborhood bitmasks over dense indices (do not mutate)."""
        return self._adj

    def index_of(self, node: int) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise TopologyError(f"node {node} is not a member") from None

    def is_connected(self) -> bool:
        return is_connected(self._adj)

    def seed_population(
        self, positions: np.ndarray, energy: list[float] | None = None
    ) -> None:
        """Install the initial population (ids ``0..n-1``), seq stays 0."""
        if self.ids:
            raise ConfigurationError("population already seeded")
        pos = np.array(positions, dtype=np.float64)
        n = len(pos)
        self.ids = list(range(n))
        self._index = {v: v for v in range(n)}
        self.positions = pos
        self.energy = [100.0] * n if energy is None else [float(e) for e in energy]
        self._adj = unit_disk_adjacency(pos, self.radius)

    # -- update application --------------------------------------------------

    def check(self, update: Update) -> None:
        """Raise if ``update`` is invalid here; never changes state.

        Invalid: joining a member; leaving, moving or draining a node that
        is not one; a NaN or infinite coordinate, energy or drain.  The
        service checks before it journals, so the WAL holds only updates
        that :meth:`apply` accepts on replay.
        """
        _reject_non_finite(update)
        if not isinstance(update, Join):
            self.index_of(update.node)
        elif update.node in self._index:
            raise TopologyError(f"join of existing node {update.node}")

    def apply(self, update: Update) -> int:
        """Apply one update; returns the bitmask of adjacency rows changed.

        Membership changes (join/leave) renumber indices, so they report
        *all* rows changed; callers treat that as a pipeline cold start
        (the cached engine resets on a size change anyway).  An invalid
        update (see :meth:`check`) raises before any state changes —
        deliberately: a tenant feeding garbage is exactly what the
        supervisor's quarantine escalation is for.
        """
        self.check(update)
        if isinstance(update, Join):
            changed = self._join(update)
        elif isinstance(update, Leave):
            changed = self._leave(update)
        elif isinstance(update, Move):
            changed = self._move(update)
        elif isinstance(update, Drain):
            changed = self._drain(update)
        else:  # pragma: no cover - exhaustive over the Update union
            raise ConfigurationError(f"unknown update {update!r}")
        self.seq += 1
        return changed

    def _join(self, u: Join) -> int:
        self._index[u.node] = len(self.ids)
        self.ids.append(u.node)
        self.positions = np.vstack(
            [self.positions, np.array([[u.x, u.y]], dtype=np.float64)]
        )
        self.energy.append(float(u.energy))
        self._adj = unit_disk_adjacency(self.positions, self.radius)
        return (1 << self.n) - 1

    def _leave(self, u: Leave) -> int:
        v = self.index_of(u.node)
        self.ids.pop(v)
        self.positions = np.delete(self.positions, v, axis=0)
        self.energy.pop(v)
        self._index = {node: i for i, node in enumerate(self.ids)}
        self._adj = unit_disk_adjacency(self.positions, self.radius)
        return (1 << self.n) - 1 if self.n else 0

    def _move(self, u: Move) -> int:
        v = self.index_of(u.node)
        self.positions[v, 0] = float(u.x)
        self.positions[v, 1] = float(u.y)
        diff = self.positions - self.positions[v]
        d2 = np.einsum("ij,ij->i", diff, diff)
        within = d2 <= self.radius * self.radius
        within[v] = False
        new_row = bitset.mask_from_ids(np.flatnonzero(within).tolist())
        old_row = self._adj[v]
        flipped = new_row ^ old_row
        if not flipped:
            return 0
        self._adj[v] = new_row
        for u_idx in bitset.iter_bits(flipped):
            self._adj[u_idx] ^= 1 << v
        return flipped | (1 << v)

    def _drain(self, u: Drain) -> int:
        v = self.index_of(u.node)
        self.energy[v] = self.energy[v] - float(u.amount)
        return 0  # keys changed, structure did not

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Canonical snapshot document (floats round-trip exactly)."""
        return {
            "version": 1,
            "radius": self.radius,
            "side": self.side,
            "scheme": self.scheme,
            "seq": self.seq,
            "ids": list(self.ids),
            "pos": [[float(x), float(y)] for x, y in self.positions],
            "energy": [float(e) for e in self.energy],
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "TenantState":
        st = cls(
            radius=doc["radius"], side=doc["side"], scheme=doc["scheme"]
        )
        st.seq = int(doc["seq"])
        st.ids = [int(v) for v in doc["ids"]]
        st._index = {node: i for i, node in enumerate(st.ids)}
        st.positions = np.array(doc["pos"], dtype=np.float64).reshape(
            len(st.ids), 2
        )
        st.energy = [float(e) for e in doc["energy"]]
        st._adj = unit_disk_adjacency(st.positions, st.radius)
        return st

    def digest(self) -> str:
        """SHA-256 over the canonical document — equal iff states equal."""
        doc = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _reject_non_finite(update: Update) -> None:
    """Raise if ``update`` carries a NaN or infinite number."""
    if isinstance(update, (Join, Move)) and not (
        math.isfinite(update.x) and math.isfinite(update.y)
    ):
        raise TopologyError(
            f"{type(update).__name__.lower()} of node {update.node} to a "
            f"non-finite position ({update.x!r}, {update.y!r})"
        )
    if isinstance(update, Join) and not math.isfinite(update.energy):
        raise ConfigurationError(
            f"join of node {update.node} with non-finite energy "
            f"{update.energy!r}"
        )
    if isinstance(update, Drain) and not math.isfinite(update.amount):
        raise ConfigurationError(
            f"drain of node {update.node} by non-finite amount "
            f"{update.amount!r}"
        )
