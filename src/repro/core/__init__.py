"""The paper's contribution: Wu–Li marking + power-aware pruning rules.

Public surface:

* :func:`repro.core.marking.marking_process` — the gateway marking process,
* :class:`repro.core.priority.PriorityScheme` and the ``SCHEMES`` registry
  (``"nr"``, ``"id"``, ``"nd"``, ``"el1"``, ``"el2"``),
* :func:`repro.core.rules.apply_rule1` / :func:`repro.core.rules.apply_rule2`
  — the generic Rule 1 / Rule 2 engines all eight paper rules instantiate,
* :func:`repro.core.cds.compute_cds` — one-call facade returning a
  :class:`repro.core.cds.CDSResult`,
* :mod:`repro.core.properties` — domination/connectivity/Property-3 checks,
* :mod:`repro.core.reduction` — single-pass vs fixed-point pipelines,
* :func:`repro.core.pipeline.make_pipeline` — the per-interval pipeline
  for an (algorithm, backend) choice.
"""

from repro.core.priority import (
    SCHEMES,
    PriorityScheme,
    scheme_by_name,
)
from repro.core.marking import marking_process, marked_set
from repro.core.rules import RuleEngine, apply_rule1, apply_rule2
from repro.core.cds import CDSResult, compute_cds
from repro.core.properties import (
    is_cds,
    is_dominating,
    verify_cds,
    shortest_paths_use_gateways,
)
from repro.core.reduction import prune, PruneStats
from repro.core.rule_k import compute_cds_rule_k, rule_k_pass
from repro.core.components_cds import compute_cds_per_component
from repro.core.vectorized import (
    BatchCDSEngine,
    compute_cds_batch,
    compute_cds_rule_k_batch,
)
from repro.core.sparse import (
    CSRBatch,
    SparseCDSEngine,
    compute_cds_sparse,
)
from repro.core.pipeline import make_pipeline, validate_energy
from repro.core.unidirectional import (
    compute_directed_cds,
    directed_marking,
    is_dominating_and_absorbing,
)
from repro.core.registry import (
    ALGORITHMS,
    EXECUTION_BACKENDS,
    AlgorithmPipeline,
    CDSAlgorithm,
    algorithm_by_name,
    algorithm_names,
    register_algorithm,
)

__all__ = [
    "ALGORITHMS",
    "EXECUTION_BACKENDS",
    "AlgorithmPipeline",
    "CDSAlgorithm",
    "algorithm_by_name",
    "algorithm_names",
    "register_algorithm",
    "compute_directed_cds",
    "directed_marking",
    "is_dominating_and_absorbing",
    "compute_cds_rule_k",
    "rule_k_pass",
    "compute_cds_per_component",
    "SCHEMES",
    "PriorityScheme",
    "scheme_by_name",
    "marking_process",
    "marked_set",
    "RuleEngine",
    "apply_rule1",
    "apply_rule2",
    "CDSResult",
    "compute_cds",
    "is_cds",
    "is_dominating",
    "verify_cds",
    "shortest_paths_use_gateways",
    "prune",
    "PruneStats",
    "BatchCDSEngine",
    "CSRBatch",
    "SparseCDSEngine",
    "make_pipeline",
    "validate_energy",
    "compute_cds_sparse",
    "compute_cds_batch",
    "compute_cds_rule_k_batch",
]
