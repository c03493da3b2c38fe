"""One-call facade: :func:`compute_cds`.

This is the API most users and all experiment code go through::

    from repro import compute_cds
    result = compute_cds(network, scheme="el1", energy=levels)
    result.gateways          # set of gateway node ids
    result.size              # |G'|
    result.stats             # what each rule removed

The facade runs the marking process, applies the scheme's rule pair
(single-pass by default, as the paper does), and optionally verifies the
invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.core.marking import marked_mask
from repro.core.pipeline import check_result, validate_energy
from repro.core.priority import PriorityScheme, scheme_by_name
from repro.core.reduction import PruneStats, prune
from repro.graphs import bitset
from repro.types import SupportsNeighborhoods

__all__ = ["CDSResult", "compute_cds"]


@dataclass(frozen=True)
class CDSResult:
    """Output of :func:`compute_cds`.

    ``gateway_mask`` is the bitmask form (cheap set algebra); ``gateways``
    materializes the id set on first access.
    """

    scheme: str
    gateway_mask: int
    n: int
    stats: PruneStats
    _gateways: frozenset[int] | None = field(init=False, repr=False, default=None)

    @property
    def gateways(self) -> frozenset[int]:
        """Gateway (dominating-set member) node ids (built on first access).

        The simulator produces one ``CDSResult`` per interval and touches
        only ``gateway_mask``; deferring the frozenset keeps the hot loop
        allocation-free.
        """
        if self._gateways is None:
            object.__setattr__(
                self, "_gateways", frozenset(bitset.ids_from_mask(self.gateway_mask))
            )
        assert self._gateways is not None
        return self._gateways

    @property
    def size(self) -> int:
        """``|G'|`` — the quantity Figure 10 plots."""
        return bitset.popcount(self.gateway_mask)

    def is_gateway(self, v: int) -> bool:
        return bool(self.gateway_mask >> v & 1)

    def status_vector(self) -> list[bool]:
        """Per-node gateway flags, index-aligned with node ids."""
        return [bool(self.gateway_mask >> v & 1) for v in range(self.n)]


def compute_cds(
    graph: SupportsNeighborhoods | Sequence[int],
    scheme: str | PriorityScheme = "id",
    energy: Sequence[float] | None = None,
    *,
    fixed_point: bool = False,
    verify: bool = False,
) -> CDSResult:
    """Compute the connected dominating set under a priority scheme.

    Parameters
    ----------
    graph:
        Anything exposing bitmask ``adjacency`` (AdHocNetwork,
        NeighborhoodView) or a raw bitmask list.
    scheme:
        ``"nr" | "id" | "nd" | "el1" | "el2"`` or a
        :class:`~repro.core.priority.PriorityScheme`.
    energy:
        Per-node energy levels; required for the EL schemes, and every
        level must be finite (:func:`repro.core.pipeline.validate_energy`).
    fixed_point:
        Iterate the rule passes to a fixed point instead of the paper's
        single pass.
    verify:
        Assert Properties 1–2 on the result (raises
        :class:`~repro.errors.InvariantViolation`); skipped for graphs
        where the marking process legitimately returns the empty set
        (complete graphs and n <= 2).
    """
    adj = graph.adjacency if hasattr(graph, "adjacency") else graph
    adj = list(adj)
    sch = scheme_by_name(scheme) if isinstance(scheme, str) else scheme
    validate_energy(sch, energy, len(adj))

    with obs.span("cds"):
        marked = marked_mask(adj)
        final, stats = prune(adj, marked, sch, energy, fixed_point=fixed_point)
        result = CDSResult(
            scheme=sch.name, gateway_mask=final, n=len(adj), stats=stats
        )
        check_result(result, adj, energy, scheme=sch, verify=verify)
    return result
