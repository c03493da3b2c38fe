"""Pluggable CDS-construction algorithm registry.

The paper's marking + Rule 1/2 scheme is one point in a design space of
CDS constructions.  This module makes the construction a first-class,
swappable choice: every algorithm — the Wu–Li marking path, the
centralized baselines of :mod:`repro.baselines`, and the related-work
constructions (Aneja-style (2,2)-connected greedy, Zhou-style
minimum-weight CDS) — registers a :class:`CDSAlgorithm` here and returns
the same :class:`~repro.core.cds.CDSResult`, so the lifespan, figure,
fault, and service campaigns can be parameterized by backbone
construction the way they already are by priority ``scheme``.

Contract
--------
``CDSAlgorithm.compute(graph, scheme, energy)`` accepts anything exposing
bitmask ``adjacency`` (or a raw mask list) and returns a ``CDSResult``
whose ``gateway_mask`` passes :func:`repro.core.properties.verify_cds` on
every connected graph where a backbone is required at all (the marking
process's documented exceptions — cliques and ``n <= 2`` — may yield an
empty mask for the marking family while greedy constructions return a
single node; both are valid backbones).  Disconnected inputs are handled
per component: components of one or two hosts need no gateway, every
larger component gets its own construction, and the union is returned —
the same semantics as :func:`repro.core.components_cds.
compute_cds_per_component`.

Capability flags tell the campaign layers what an algorithm can do:

* ``supports_delta`` — an incremental pipeline exists
  (:class:`repro.core.delta.DeltaCDSPipeline`); only the marking path has
  one, because the 2-hop locality argument is a marking-process theorem;
* ``supports_sparse`` — the persistent-CSR incremental sparse pipeline
  (:mod:`repro.core.sparse_delta`) and the batched CSR engine exist;
  again marking-only today.  The entries of :data:`EXECUTION_BACKENDS`
  are *execution backends of the Wu–Li algorithm*, not algorithms
  themselves;
* ``connectivity`` — 2 for constructions whose backbone survives the loss
  of any single non-cut-vertex gateway; the service publish gate checks
  exactly that property for them (:class:`repro.service.invariants.
  BackboneChecker`);
* ``uses_scheme`` / ``uses_energy`` — whether the priority scheme /
  energy levels influence the output (campaigns can skip redundant grid
  cells for algorithms that ignore a dimension).

Adding an algorithm is one decorated function::

    @register_algorithm(name="my_cds", description="...")
    def _my_cds(adj, scheme, energy, fixed_point):
        return my_mask_of(adj), None     # stats optional

Registered names are what ``SimulationConfig.algorithm``, the
``--algorithm`` CLI flags, ``repro compare``, and the algorithm-matrix
bench all validate against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import obs
from repro.baselines.energy_greedy import energy_aware_greedy_cds
from repro.baselines.greedy_mcds import guha_khuller_cds
from repro.baselines.mis_cds import mis_cds
from repro.baselines.pieces_mcds import pieces_cds
from repro.baselines.pure_dominating import connected_greedy_ds
from repro.baselines.two_connected import aneja_two_connected_cds
from repro.baselines.weighted_mcds import zhou_min_weight_cds
from repro.core.cds import CDSResult, compute_cds
from repro.core.components_cds import compute_cds_per_component
from repro.core.marking import marking_trivially_empty
from repro.core.pipeline import check_result, validate_energy
from repro.core.priority import PriorityScheme, scheme_by_name
from repro.core.properties import verify_cds
from repro.core.reduction import PruneStats
from repro.errors import ConfigurationError
from repro.graphs import bitset
from repro.graphs.neighborhoods import components, is_connected

__all__ = [
    "ALGORITHMS",
    "AlgorithmPipeline",
    "CDSAlgorithm",
    "EXECUTION_BACKENDS",
    "algorithm_by_name",
    "algorithm_names",
    "register_algorithm",
]

#: Execution backends of the Wu–Li marking path (how the same pipeline is
#: evaluated, not which construction runs).  ``SimulationConfig.backend``
#: validates against this so its error message can never drift from the
#: actual choices again.  ``scalar`` auto-selects delta-vs-scratch by
#: host count; ``delta`` forces the incremental pipeline; ``sparse`` is
#: the incremental CSR pipeline (:func:`repro.core.pipeline.make_pipeline`
#: holds the rules).
EXECUTION_BACKENDS: tuple[str, ...] = ("scalar", "delta", "sparse")

#: fn(adjacency, scheme, energy, fixed_point) -> (gateway_mask, stats|None)
ConstructFn = Callable[
    [list[int], PriorityScheme, Sequence[float] | None, bool],
    tuple[int, PruneStats | None],
]


@dataclass(frozen=True)
class CDSAlgorithm:
    """One registered CDS construction (see the module docstring)."""

    name: str
    fn: ConstructFn = field(repr=False)
    #: incremental (delta) pipeline available for this construction.
    supports_delta: bool = False
    #: incremental CSR pipeline + batched CSR engine (``backend="sparse"``).
    supports_sparse: bool = False
    #: 2 for constructions that survive any single (non-cut) gateway loss.
    connectivity: int = 1
    #: the priority scheme changes the output (marking family).
    uses_scheme: bool = False
    #: energy levels change the output (energy-weighted constructions).
    uses_energy: bool = False
    description: str = ""

    def compute(
        self,
        graph,
        scheme: str | PriorityScheme = "id",
        energy: Sequence[float] | None = None,
        *,
        fixed_point: bool = False,
        verify: bool = False,
    ) -> CDSResult:
        """Run the construction; always returns a :class:`CDSResult`.

        Mirrors :func:`repro.core.cds.compute_cds`: ``graph`` is anything
        with bitmask ``adjacency`` or a raw mask list; a given ``energy``
        goes through :func:`repro.core.pipeline.validate_energy`;
        ``verify=True`` asserts the CDS
        invariants (skipped where the marking process legitimately returns
        the empty set).  Disconnected graphs are decomposed per component.
        """
        adj = graph.adjacency if hasattr(graph, "adjacency") else graph
        adj = list(adj)
        sch = scheme_by_name(scheme) if isinstance(scheme, str) else scheme
        if energy is not None:
            validate_energy(sch, energy, len(adj))
        with obs.span("cds_algorithm"):
            if is_connected(adj):
                mask, stats = self.fn(adj, sch, energy, fixed_point)
            else:
                mask, stats = self._per_component(adj, sch, energy, fixed_point)
            if stats is None:
                size = bitset.popcount(mask)
                stats = PruneStats(size, 0, 0, 0)
            result = CDSResult(
                scheme=sch.name, gateway_mask=mask, n=len(adj), stats=stats
            )
            if verify and (mask or not marking_trivially_empty(adj)):
                self._verify(adj, mask)
            check_result(result, adj, energy, scheme=sch)
        return result

    def _per_component(
        self,
        adj: list[int],
        sch: PriorityScheme,
        energy: Sequence[float] | None,
        fixed_point: bool,
    ) -> tuple[int, PruneStats | None]:
        """Union of per-component constructions (≤2-host components skip).

        The marking family runs on the full id space (its rules only look
        at neighborhoods, so foreign components are invisible); the
        centralized constructions require a *connected* input, so each
        component is remapped to dense ids — ascending, preserving the
        relative id order every tiebreak uses — run in isolation, and
        mapped back.
        """
        if self.name == "wu_li":
            mask = compute_cds_per_component(
                adj, sch, energy=energy, fixed_point=fixed_point
            )
            return mask, None
        out = 0
        for comp in components(adj):
            nodes = bitset.ids_from_mask(comp)
            if len(nodes) <= 2:
                continue  # singletons and pairs need no gateway
            back = {i: v for i, v in enumerate(nodes)}
            fwd = {v: i for i, v in enumerate(nodes)}
            sub = [
                bitset.mask_from_ids(
                    fwd[u] for u in bitset.ids_from_mask(adj[v] & comp)
                )
                for v in nodes
            ]
            sub_energy = (
                None if energy is None else [energy[v] for v in nodes]
            )
            sub_mask, _ = self.fn(sub, sch, sub_energy, fixed_point)
            out |= bitset.mask_from_ids(
                back[i] for i in bitset.ids_from_mask(sub_mask)
            )
        return out, None

    def _verify(self, adj: list[int], mask: int) -> None:
        """Per-component invariant check (strongest a fragmented graph has)."""
        with obs.span("verify"):
            if is_connected(adj):
                verify_cds(adj, mask, context=f"algorithm={self.name}")
                return
            for comp in components(adj):
                nodes = bitset.ids_from_mask(comp)
                if len(nodes) <= 2:
                    continue
                fwd = {v: i for i, v in enumerate(nodes)}
                sub = [
                    bitset.mask_from_ids(
                        fwd[u] for u in bitset.ids_from_mask(adj[v] & comp)
                    )
                    for v in nodes
                ]
                members = bitset.mask_from_ids(
                    fwd[v] for v in nodes if mask >> v & 1
                )
                if not members and marking_trivially_empty(sub):
                    continue
                verify_cds(
                    sub,
                    members,
                    context=f"algorithm={self.name} (component)",
                )


ALGORITHMS: dict[str, CDSAlgorithm] = {}


def register_algorithm(
    *,
    name: str,
    supports_delta: bool = False,
    supports_sparse: bool = False,
    connectivity: int = 1,
    uses_scheme: bool = False,
    uses_energy: bool = False,
    description: str = "",
) -> Callable[[ConstructFn], CDSAlgorithm]:
    """Decorator: wrap ``fn`` into a :class:`CDSAlgorithm` and catalog it."""

    def deco(fn: ConstructFn) -> CDSAlgorithm:
        if name in ALGORITHMS:
            raise ConfigurationError(
                f"algorithm {name!r} is already registered"
            )
        algo = CDSAlgorithm(
            name=name,
            fn=fn,
            supports_delta=supports_delta,
            supports_sparse=supports_sparse,
            connectivity=connectivity,
            uses_scheme=uses_scheme,
            uses_energy=uses_energy,
            description=description,
        )
        ALGORITHMS[name] = algo
        return algo

    return deco


def algorithm_names() -> list[str]:
    """Registered algorithm names, sorted (for CLI choices and errors)."""
    return sorted(ALGORITHMS)


def algorithm_by_name(name: str | CDSAlgorithm) -> CDSAlgorithm:
    """Look up an algorithm; raises ConfigurationError with the catalog."""
    if isinstance(name, CDSAlgorithm):
        return name
    try:
        return ALGORITHMS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown CDS algorithm {name!r}; choose from {algorithm_names()}"
        ) from None


class AlgorithmPipeline:
    """Duck-types :class:`repro.core.delta.DeltaCDSPipeline` for any algorithm.

    ``compute(graph, energy=...)`` / ``reset()`` — the socket
    :func:`repro.simulation.interval.run_interval` and the backbone
    service already use.  Stateless: non-marking constructions have no
    incremental theory to cache, so every call recomputes from the live
    adjacency.
    """

    def __init__(
        self,
        algorithm: str | CDSAlgorithm,
        scheme: str | PriorityScheme,
        *,
        verify: bool = False,
    ):
        self.algorithm = algorithm_by_name(algorithm)
        self.scheme = (
            scheme_by_name(scheme) if isinstance(scheme, str) else scheme
        )
        self.verify = verify

    def reset(self) -> None:
        """No cached state to drop; present for pipeline-API parity."""

    def compute(self, graph, energy: Sequence[float] | None = None) -> CDSResult:
        return self.algorithm.compute(
            graph, self.scheme, energy, verify=self.verify
        )


# --------------------------------------------------------------------------
# the catalog
# --------------------------------------------------------------------------


@register_algorithm(
    name="wu_li",
    supports_delta=True,
    supports_sparse=True,
    uses_scheme=True,
    uses_energy=True,
    description=(
        "the paper's marking process + Rule 1/2 pruning under the "
        "configured priority scheme (scalar, delta, and sparse execution "
        "backends)"
    ),
)
def _wu_li(adj, scheme, energy, fixed_point):
    r = compute_cds(adj, scheme, energy=energy, fixed_point=fixed_point)
    return r.gateway_mask, r.stats


@register_algorithm(
    name="greedy_mcds",
    description="Guha-Khuller Algorithm I: centralized greedy tree growth",
)
def _greedy_mcds(adj, scheme, energy, fixed_point):
    return bitset.mask_from_ids(guha_khuller_cds(adj)), None


@register_algorithm(
    name="pieces_mcds",
    description="Guha-Khuller Algorithm II: piece-merging greedy",
)
def _pieces_mcds(adj, scheme, energy, fixed_point):
    return bitset.mask_from_ids(pieces_cds(adj)), None


@register_algorithm(
    name="mis_cds",
    description="maximal independent set (clusterheads) + connectors",
)
def _mis_cds(adj, scheme, energy, fixed_point):
    return bitset.mask_from_ids(mis_cds(adj)), None


@register_algorithm(
    name="connected_greedy",
    description="greedy dominating set + Steiner-path connection",
)
def _connected_greedy(adj, scheme, energy, fixed_point):
    return bitset.mask_from_ids(connected_greedy_ds(adj)), None


@register_algorithm(
    name="energy_greedy",
    uses_energy=True,
    description=(
        "centralized Guha-Khuller growth breaking ties toward the "
        "highest-energy candidate (the price-of-locality oracle)"
    ),
)
def _energy_greedy(adj, scheme, energy, fixed_point):
    levels = list(energy) if energy is not None else [1.0] * len(adj)
    return energy_aware_greedy_cds(adj, levels), None


@register_algorithm(
    name="aneja_2conn",
    connectivity=2,
    uses_energy=True,
    description=(
        "Aneja-style (2,2)-connected greedy: CDS augmented until it "
        "2-dominates every host that can be and survives any single "
        "non-cut-vertex gateway loss"
    ),
)
def _aneja_2conn(adj, scheme, energy, fixed_point):
    return aneja_two_connected_cds(adj, energy), None


@register_algorithm(
    name="zhou_mwcds",
    uses_scheme=True,
    uses_energy=True,
    description=(
        "Zhou-style minimum-weight CDS with EL1/EL2 energy keys as node "
        "weights (coverage-per-weight greedy + min-weight connectors)"
    ),
)
def _zhou_mwcds(adj, scheme, energy, fixed_point):
    return zhou_min_weight_cds(adj, energy, scheme=scheme), None
