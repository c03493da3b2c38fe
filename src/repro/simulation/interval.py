"""One update interval of the paper's simulation loop (§4 step 2-3).

Sequence within an interval:

1. compute the CDS on the current topology under the configured scheme
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
from repro.core.cds import CDSResult, ScratchPipeline
from repro.core.priority import PriorityScheme
from repro.core.registry import AlgorithmPipeline
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
    pipeline=None,
    algorithm=None,
) -> IntervalOutcome:
    """Execute one update interval; moves hosts only if nobody died.

    The backbone is one ``pipeline.compute(network, levels)`` call on the
    current battery levels (EL keys and energy-weighted constructions
    read them, the rest ignore them).  ``pipeline`` is what
    :func:`repro.core.pipeline.make_pipeline` returns or a
    :class:`repro.core.cds.SelectorPipeline`; its own settings govern the
    computation.  Without one, ``scheme``, ``fixed_point``, ``verify``
    and ``algorithm`` (a :class:`repro.core.registry.CDSAlgorithm`) build
    a stateless pipeline for this call.
    """
    if pipeline is None:
        if algorithm is None or algorithm.name == "wu_li":
            pipeline = ScratchPipeline(scheme, fixed_point, verify)
        else:
            pipeline = AlgorithmPipeline(
                algorithm, scheme, fixed_point=fixed_point, verify=verify
            )
    with obs.span("interval"):
        cds = pipeline.compute(network, accountant.bank.levels)
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
