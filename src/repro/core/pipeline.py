"""The one per-interval pipeline contract: factory, input check, result check.

Every update interval of the paper's lifespan study (§4) runs the same
marking process and Rules 1/2; the execution backends only differ in *how*
they evaluate it.  This module holds what they share:

* :func:`make_pipeline` — the only place a backend name becomes a pipeline
  object (``LifespanSimulator`` and ``ServiceConfig.fresh_pipeline`` both
  call it), and :func:`require_backend`, the capability check
  ``SimulationConfig`` runs at construction;
* :func:`validate_energy` — the energy check every entry point runs, so a
  bad vector raises the same :class:`ConfigurationError` on every path;
* :func:`check_result` — the verify + shadow-check + ``cds.*`` counter
  epilogue every pipeline runs on the result it is about to return.

Backend rules (:data:`repro.core.registry.EXECUTION_BACKENDS`):

==========  ==============================================================
``scalar``  scratch :func:`compute_cds` below ``INCREMENTAL_MIN_HOSTS``
            (unless ``shadow_check``), the delta pipeline above it
``delta``   :class:`repro.core.delta.DeltaCDSPipeline` at any size
``sparse``  :class:`repro.core.sparse_delta.IncrementalSparseCDSPipeline`
==========  ==============================================================

Algorithms without the marking pipelines (every registry entry except
``wu_li``) get :class:`repro.core.registry.AlgorithmPipeline`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.core.marking import marking_trivially_empty
from repro.core.priority import PriorityScheme, scheme_by_name
from repro.core.properties import verify_cds
from repro.errors import ConfigurationError, InvariantViolation

__all__ = [
    "check_result",
    "make_pipeline",
    "require_backend",
    "validate_energy",
]


def validate_energy(
    scheme: PriorityScheme,
    energy,
    n: int | tuple[int, int],
) -> np.ndarray | None:
    """Check per-node energy levels; return them as float64 (or ``None``).

    ``n`` is the node count, or the ``(B, n)`` shape of a stacked batch.
    Raises :class:`ConfigurationError` for a missing vector on an EL
    scheme, a wrong length/shape, and any NaN or infinite level (which
    the priority keys cannot order).
    """
    if energy is None:
        if scheme.needs_energy:
            raise ConfigurationError(
                f"scheme {scheme.name!r} ranks by energy level; pass energy="
            )
        return None
    try:
        arr = np.asarray(energy, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"energy is not a numeric vector: {exc}"
        ) from None
    shape = (n,) if isinstance(n, int) else tuple(n)
    if arr.shape != shape:
        if len(shape) == 1:
            raise ConfigurationError(
                f"energy has {arr.size} entries for {n} nodes"
            )
        raise ConfigurationError(
            f"energies has shape {arr.shape} for a {shape} batch"
        )
    if not np.isfinite(arr).all():
        raise ConfigurationError(
            "energy levels must be finite (NaN/inf cannot be ranked)"
        )
    return arr


def check_result(
    result,
    adj: Sequence[int] | None,
    energy,
    *,
    scheme: PriorityScheme,
    fixed_point: bool = False,
    verify: bool = False,
    shadow_check: bool = False,
    context: str = "",
) -> None:
    """The epilogue every pipeline runs on a freshly computed result.

    ``verify`` asserts Properties 1–2 (skipped where the marking process
    legitimately returns the empty set); ``shadow_check`` recomputes with
    the scalar :func:`compute_cds` oracle and raises
    :class:`InvariantViolation` unless the gateway mask **and** the
    :class:`PruneStats` are identical.  ``adj`` (bitmask rows) is read
    only by those two checks, so callers that would have to materialize
    it may pass ``None`` when both are off.  Always counts
    ``cds.computed`` / ``cds.size``.
    """
    mask = result.gateway_mask
    label = f"{context} scheme={scheme.name}".strip()
    # an empty mask is legitimate only where the marking process is defined
    # to return nothing (complete graphs, n <= 2); anywhere else it is a
    # bug that verify_cds must flag
    if verify and (mask or not marking_trivially_empty(adj)):
        with obs.span("verify"):
            verify_cds(adj, mask, context=label)
    if shadow_check:
        # deferred: the oracle module imports this one
        from repro.core import cds

        with obs.span("shadow"):
            reference = cds.compute_cds(
                list(adj), scheme, energy=energy, fixed_point=fixed_point
            )
        if obs.enabled():
            obs.count("cds.shadow_checks")
        if reference.gateway_mask != mask or reference.stats != result.stats:
            raise InvariantViolation(
                f"{context} pipeline diverged from the scratch pipeline "
                f"(scheme={scheme.name}): mask {mask:#x} stats "
                f"{result.stats} != scratch mask "
                f"{reference.gateway_mask:#x} stats {reference.stats}"
            )
    if obs.enabled():
        obs.count("cds.computed")
        obs.add("cds.size", result.size)


def require_backend(algorithm, backend: str) -> None:
    """Validate an (algorithm, backend) pair.

    Raises :class:`ConfigurationError` for an unknown backend name or one
    the construction has no kernels for.
    """
    from repro.core.registry import EXECUTION_BACKENDS, algorithm_by_name

    if backend not in EXECUTION_BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose from "
            f"{sorted(EXECUTION_BACKENDS)}"
        )
    algo = algorithm_by_name(algorithm)
    capable = {"delta": algo.supports_delta, "sparse": algo.supports_sparse}
    if not capable.get(backend, True):
        raise ConfigurationError(
            f"algorithm {algo.name!r} has no {backend} backend; "
            "use backend='scalar'"
        )


def make_pipeline(
    algorithm,
    backend: str,
    scheme: str | PriorityScheme,
    *,
    n_hosts: int | None = None,
    fixed_point: bool = False,
    verify: bool = False,
    shadow_check: bool = False,
    memory_budget_mb: float | None = None,
):
    """The per-interval pipeline for one (algorithm, backend) choice.

    Returns a :class:`~repro.core.delta.DeltaCDSPipeline`, an
    :class:`~repro.core.sparse_delta.IncrementalSparseCDSPipeline`, an
    :class:`~repro.core.registry.AlgorithmPipeline`, or ``None`` for the
    scratch :func:`~repro.core.cds.compute_cds` path (see the module
    docstring for the rules).  ``n_hosts`` is read only by ``scalar``;
    ``None`` means "large".  One instance per trial/tenant: the delta and
    sparse pipelines carry state across intervals.
    """
    # deferred: the pipelines import the scratch oracle, which imports
    # this module for its input/result checks
    from repro.core.delta import INCREMENTAL_MIN_HOSTS, DeltaCDSPipeline
    from repro.core.registry import AlgorithmPipeline, algorithm_by_name
    from repro.core.sparse_delta import IncrementalSparseCDSPipeline

    algo = algorithm_by_name(algorithm)
    sch = scheme_by_name(scheme) if isinstance(scheme, str) else scheme
    if algo.name != "wu_li":
        # the backend only selects how wu_li runs
        return AlgorithmPipeline(algo, sch, verify=verify)
    require_backend(algo, backend)
    if backend == "sparse":
        return IncrementalSparseCDSPipeline(
            sch,
            fixed_point=fixed_point,
            verify=verify,
            shadow_check=shadow_check,
            memory_budget_mb=memory_budget_mb,
        )
    if (
        backend == "scalar"
        and n_hosts is not None
        and n_hosts < INCREMENTAL_MIN_HOSTS
        and not shadow_check
    ):
        # below the measured crossover scratch is faster; shadow checking
        # needs a pipeline to check
        return None
    return DeltaCDSPipeline(
        sch, fixed_point=fixed_point, verify=verify, shadow_check=shadow_check
    )
