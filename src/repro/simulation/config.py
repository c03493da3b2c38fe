"""Simulation configuration, defaulting to the paper's §4 parameters.

Every knob the paper states is a field with the paper's value as default;
everything the paper leaves open (boundary policy, disconnect handling,
step-length discreteness) is also a field so ablations are one-liner
config edits.  Validation happens at construction, not inside the hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ConfigurationError

__all__ = ["SimulationConfig"]


@dataclass(frozen=True)
class SimulationConfig:
    """All parameters of one lifespan simulation.

    Defaults reproduce the paper: 100x100 region, radius 25, initial energy
    100, c = 0.5, l in [1..6], d' = 1.
    """

    #: number of hosts (the paper sweeps 3..100).
    n_hosts: int = 50
    #: side of the square region.
    side: float = 100.0
    #: homogeneous transmission radius.
    radius: float = 25.0
    #: initial energy level of every host.
    initial_energy: float = 100.0
    #: heterogeneity: hosts start uniform in ``initial_energy * (1 ± jitter)``.
    #: The paper uses 0 (uniform batteries); the EL schemes' advantage grows
    #: with jitter because rotation can shelter the weak hosts immediately.
    initial_energy_jitter: float = 0.0
    #: priority scheme name: nr | id | nd | el1 | el2.
    scheme: str = "id"
    #: gateway drain model name: constant | linear | quadratic | fixed.
    drain_model: str = "constant"
    #: the paper's c — probability a host stays put in an interval.
    stability: float = 0.5
    #: step length range (the paper's l in [1..6]).
    min_step: float = 1.0
    max_step: float = 6.0
    #: draw l from integers {1..6} instead of the continuous interval.
    integer_steps: bool = False
    #: boundary policy name: clamp | reflect | torus.
    boundary: str = "clamp"
    #: what to do when movement disconnects the graph: retry | accept.
    on_disconnect: str = "retry"
    #: retries per interval before freezing hosts (retry policy only).
    max_move_retries: int = 25
    #: iterate rules to a fixed point instead of the paper's single pass.
    fixed_point: bool = False
    #: verify CDS invariants every interval (slow; for debugging).
    verify_invariants: bool = False
    #: run the scratch pipeline alongside the backend's pipeline every
    #: interval and raise on any gateway-mask or ``PruneStats`` divergence
    #: (debug/CI mode; pays for both paths).
    shadow_check: bool = False
    #: CDS computation backend (:func:`repro.core.pipeline.make_pipeline`
    #: holds the rules): ``scalar`` (the default — scratch below
    #: ``repro.core.delta.INCREMENTAL_MIN_HOSTS`` hosts, the delta
    #: pipeline above), ``delta`` (the delta pipeline at any size), or
    #: ``sparse`` (the persistent-CSR incremental pipeline of
    #: :mod:`repro.core.sparse_delta`; built for n ≳ 1000, and the
    #: backend whose batched figure cells stack trials into one CSR
    #: engine pass).  All backends produce bit-identical masks and
    #: ``PruneStats``.
    backend: str = "scalar"
    #: CDS construction algorithm, one of :func:`repro.core.registry.
    #: algorithm_names` — ``wu_li`` is the paper's marking + pruning path
    #: (the only one with delta/sparse execution backends); the rest
    #: are the centralized constructions of :mod:`repro.baselines`.
    #: Orthogonal to ``scheme`` (algorithms that ignore the priority key
    #: simply produce the same mask for every scheme) and to ``backend``
    #: (which only selects how ``wu_li`` is executed).
    algorithm: str = "wu_li"
    #: hard cap on intervals (guards d' = 0 style configs; None = no cap).
    max_intervals: int | None = 100_000
    #: non-gateway drain d' (the paper's unit).
    non_gateway_drain: float = 1.0
    #: chunking budget (MB) for the sparse/dense engines' streamed
    #: table builders — results are bit-identical at any positive value,
    #: only peak temporary memory and speed change.  ``None`` defers to
    #: the ``REPRO_MEMORY_BUDGET_MB`` env var, then the engine default.
    memory_budget_mb: float | None = None

    def __post_init__(self) -> None:
        if self.n_hosts < 1:
            raise ConfigurationError(f"n_hosts must be >= 1, got {self.n_hosts}")
        if self.side <= 0:
            raise ConfigurationError(f"side must be positive, got {self.side}")
        if self.radius < 0:
            raise ConfigurationError(f"radius must be >= 0, got {self.radius}")
        if self.initial_energy <= 0:
            raise ConfigurationError(
                f"initial_energy must be positive, got {self.initial_energy}"
            )
        if not 0.0 <= self.initial_energy_jitter < 1.0:
            raise ConfigurationError(
                "initial_energy_jitter must be in [0, 1), got "
                f"{self.initial_energy_jitter}"
            )
        if not 0.0 <= self.stability <= 1.0:
            raise ConfigurationError(
                f"stability must be in [0,1], got {self.stability}"
            )
        if not 0 <= self.min_step <= self.max_step:
            raise ConfigurationError(
                f"need 0 <= min_step <= max_step, got "
                f"[{self.min_step}, {self.max_step}]"
            )
        if self.boundary not in ("clamp", "reflect", "torus"):
            raise ConfigurationError(f"unknown boundary {self.boundary!r}")
        if self.on_disconnect not in ("retry", "accept"):
            raise ConfigurationError(
                f"on_disconnect must be retry|accept, got {self.on_disconnect!r}"
            )
        if self.max_intervals is not None and self.max_intervals < 1:
            raise ConfigurationError(
                f"max_intervals must be >= 1 or None, got {self.max_intervals}"
            )
        if self.non_gateway_drain < 0:
            raise ConfigurationError(
                f"non_gateway_drain must be >= 0, got {self.non_gateway_drain}"
            )
        # scheme, algorithm, backend, and drain-model names are validated
        # by their registries at simulator construction; doing it here too
        # gives early errors, and sourcing the messages from the registries
        # keeps them from drifting as entries are added
        from repro.core.pipeline import require_backend
        from repro.core.priority import scheme_by_name
        from repro.energy.models import drain_model_by_name

        require_backend(self.algorithm, self.backend)
        if self.memory_budget_mb is not None and not self.memory_budget_mb > 0:
            raise ConfigurationError(
                "memory_budget_mb must be positive or None, got "
                f"{self.memory_budget_mb}"
            )
        scheme_by_name(self.scheme)
        drain_model_by_name(self.drain_model)

    def with_overrides(self, **kwargs: Any) -> "SimulationConfig":
        """Functional update (frozen dataclass)."""
        return replace(self, **kwargs)

    @classmethod
    def paper_defaults(cls, n_hosts: int, scheme: str, drain_model: str) -> "SimulationConfig":
        """The exact §4 setup for a given (N, series, figure) triple."""
        return cls(n_hosts=n_hosts, scheme=scheme, drain_model=drain_model)
