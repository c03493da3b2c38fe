"""One update interval of the paper's simulation loop (§4 step 2-3).

Sequence within an interval:

1. snapshot the topology and compute the CDS under the configured scheme
   (for the EL schemes the *current* battery levels feed the priority key —
   this is the dynamic selection the paper proposes);
2. drain energy: gateways lose ``d`` (drain model), others ``d' = 1``;
3. if nobody died, roam hosts for the next interval.

Kept as a free function so the lifespan simulator, the examples, and the
tests can all drive single intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.cds import CDSResult, compute_cds
from repro.core.priority import PriorityScheme
from repro.energy.accounting import EnergyAccountant, IntervalDrainRecord
from repro.graphs.adhoc import AdHocNetwork
from repro.mobility.manager import MobilityManager
from repro.simulation.metrics import IntervalMetrics

__all__ = ["IntervalOutcome", "run_interval"]


@dataclass(frozen=True)
class IntervalOutcome:
    """Everything one interval produced."""

    cds: CDSResult
    drain: IntervalDrainRecord
    metrics: IntervalMetrics
    someone_died: bool


def run_interval(
    network: AdHocNetwork,
    scheme: PriorityScheme,
    accountant: EnergyAccountant,
    mobility: MobilityManager | None,
    *,
    interval_index: int,
    fixed_point: bool = False,
    verify: bool = False,
    cds_fn=None,
    pipeline=None,
    algorithm=None,
) -> IntervalOutcome:
    """Execute one update interval; moves hosts only if nobody died.

    ``cds_fn(adjacency, energy_levels) -> gateway bitmask`` replaces the
    paper's pipeline when given (oracle/baseline comparisons).  With
    ``verify=True`` the custom selector's output is *always* checked —
    including an empty mask, which on any non-trivial graph fails
    domination.  (An earlier revision skipped verification for empty
    masks, silently accepting a degenerate selector.)

    ``pipeline`` (whatever :func:`repro.core.pipeline.make_pipeline`
    returns — a :class:`repro.core.delta.DeltaCDSPipeline` or a
    :class:`repro.core.sparse_delta.IncrementalSparseCDSPipeline`)
    switches the CDS computation off the scratch path: the delta pipeline
    diffs the network's live adjacency against its cached copy, and the
    incremental sparse pipeline patches its persistent CSR from the
    network's *positions* (so it never forces the Python adjacency cache
    to materialize at 100k nodes) — both producing bit-identical
    results.  The pipeline's own
    ``fixed_point``/``verify``/``shadow_check`` settings govern that path
    (the keyword arguments here apply to the scratch path only), so the
    caller must construct it consistently.  Mutually exclusive with
    ``cds_fn``.

    ``algorithm`` (a :class:`repro.core.registry.CDSAlgorithm`) swaps the
    backbone construction entirely; non-``wu_li`` algorithms always see
    the current battery levels (the energy-weighted constructions consult
    them regardless of the scheme key).  ``wu_li`` itself falls through to
    the scratch/pipeline paths below, so the default configuration is
    bit-identical to the pre-registry code.
    """
    with obs.span("interval"):
        if algorithm is not None and cds_fn is None and algorithm.name != "wu_li":
            snap = network.snapshot()
            cds = algorithm.compute(
                snap,
                scheme,
                accountant.bank.levels,
                fixed_point=fixed_point,
                verify=verify,
            )
        elif cds_fn is not None:
            from repro.core.reduction import PruneStats
            from repro.graphs import bitset

            snap = network.snapshot()
            with obs.span("cds_fn"):
                mask = cds_fn(list(snap.adjacency), accountant.bank.levels)
            size = bitset.popcount(mask)
            cds = CDSResult(
                scheme="custom",
                gateway_mask=mask,
                n=snap.n,
                stats=PruneStats(size, 0, 0, 0),
            )
            if verify:
                from repro.core.properties import verify_cds

                with obs.span("verify"):
                    verify_cds(snap.adjacency, mask, context="cds_fn")
        elif pipeline is not None:
            energy = accountant.bank.levels if scheme.needs_energy else None
            cds = pipeline.compute(network, energy=energy)
        else:
            energy = accountant.bank.levels if scheme.needs_energy else None
            cds = compute_cds(
                network.snapshot(),
                scheme,
                energy=energy,
                fixed_point=fixed_point,
                verify=verify,
            )
        with obs.span("drain"):
            drain = accountant.apply(cds.gateway_mask)
        someone_died = bool(drain.died) or accountant.bank.any_dead()

        topology_changed = False
        if not someone_died and mobility is not None:
            with obs.span("mobility"):
                topology_changed = mobility.step()

        if obs.enabled():
            obs.count("interval.count")
            obs.add("interval.cds_size", cds.size)
            if topology_changed:
                obs.count("interval.topology_changed")

    metrics = IntervalMetrics(
        interval=interval_index,
        cds_size=cds.size,
        gateway_drain=drain.gateway_drain,
        min_energy_after=drain.min_level_after,
        topology_changed=topology_changed,
        removed_rule1=cds.stats.removed_rule1,
        removed_rule2=cds.stats.removed_rule2,
    )
    return IntervalOutcome(
        cds=cds, drain=drain, metrics=metrics, someone_died=someone_died
    )
