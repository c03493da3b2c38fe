"""The algorithm registry: Wu–Li bit-identity gate + the matrix campaign.

Two script modes (plus nothing under pytest — the timing benches live in
``bench_vectorized.py``; this file is the registry's CI gate and the
producer of the ``extra.algorithms`` payload)::

    python benchmarks/bench_algorithms.py --smoke     # CI gate
    python benchmarks/bench_algorithms.py --record    # algorithm matrix

``--smoke`` asserts two things on seeded geometric networks:

* routing Wu–Li through :mod:`repro.core.registry` is **bit-identical**
  (gateway mask *and* PruneStats) to calling ``compute_cds`` directly,
  across all five schemes and all three execution paths (scalar scratch,
  delta pipeline, incremental sparse pipeline);
* every registered algorithm drives one verified lifespan interval — a
  real :func:`repro.simulation.interval.run_interval` tick with
  ``verify=True`` — at small N.

``--record`` runs :func:`repro.analysis.experiments.run_algorithm_matrix`
(the algorithm × scheme lifespan grid through the sharded SweepExecutor)
and merges the curves into ``benchmarks/results/BENCH_pipeline.json``
under ``extra.algorithms`` (read-modify-write, same protocol as
``bench_vectorized.py --record``).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # plain-script mode without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.cds import compute_cds
from repro.core.delta import DeltaCDSPipeline
from repro.core.priority import scheme_by_name
from repro.core.registry import ALGORITHMS
from repro.core.sparse_delta import IncrementalSparseCDSPipeline
from repro.graphs.generators import random_connected_network

SCHEMES = ("nr", "id", "nd", "el1", "el2")


def _nets(seed: int, count: int = 4, lo: int = 10, hi: int = 70):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(lo, hi))
        net = random_connected_network(n, side=80, radius=25, rng=seed + i)
        energy = list(rng.uniform(50.0, 150.0, size=n))
        yield net, energy


def _gate_wu_li_identity(seed: int) -> None:
    """Registry wu_li == compute_cds, masks and stats, all backends."""
    algo = ALGORITHMS["wu_li"]
    checked = 0
    for net, energy in _nets(seed):
        for scheme in SCHEMES:
            ref = compute_cds(net, scheme, energy=energy)
            via = algo.compute(net, scheme, energy)
            assert (via.gateway_mask, via.stats) == (
                ref.gateway_mask, ref.stats,
            ), f"registry wu_li diverged from compute_cds on scheme {scheme}"
            sch = scheme_by_name(scheme)
            dlt = DeltaCDSPipeline(sch).compute(list(net.adjacency), energy)
            assert dlt.gateway_mask == ref.gateway_mask, (
                f"delta pipeline diverged on scheme {scheme}"
            )
            sp = IncrementalSparseCDSPipeline(sch).compute(net, energy=energy)
            assert (sp.gateway_mask, sp.stats) == (
                ref.gateway_mask, ref.stats,
            ), f"sparse pipeline diverged on scheme {scheme}"
            checked += 1
    print(f"wu_li bit-identity ok: {checked} (network, scheme) cells x 3 backends")


def _gate_one_interval_each(seed: int) -> None:
    """Every registered algorithm survives a verified lifespan interval."""
    from repro.simulation.config import SimulationConfig
    from repro.simulation.lifespan import LifespanSimulator

    for name in sorted(ALGORITHMS):
        cfg = SimulationConfig(
            n_hosts=15,
            side=60.0,
            radius=30.0,
            scheme="el2",
            initial_energy=10.0,
            max_intervals=200,
            verify_invariants=True,
            algorithm=name,
        )
        result = LifespanSimulator(cfg, rng=seed).run()
        print(
            f"  {name:>16}: lifespan {result.lifespan:>3} intervals, "
            f"mean |G'| {result.metrics.mean_cds_size:.1f} (verified)"
        )


def _smoke(seed: int) -> int:
    _gate_wu_li_identity(seed)
    _gate_one_interval_each(seed)
    print("smoke ok")
    return 0


def _record(seed: int, output: str, n_hosts: int, trials: int) -> int:
    import json

    from repro.analysis.experiments import run_algorithm_matrix

    t0 = time.perf_counter()
    matrix = run_algorithm_matrix(
        n_hosts=n_hosts, trials=trials, root_seed=seed, parallel=True
    )
    elapsed = time.perf_counter() - t0
    print(matrix.to_table())
    print(f"matrix done in {elapsed:.1f}s")
    if output != "-":
        out = Path(output)
        if out.exists():
            payload = json.loads(out.read_text(encoding="utf-8"))
        else:
            payload = {"schema": "repro-bench-pipeline/1", "benchmarks": []}
        record = matrix.to_json()
        record["seed"] = seed
        record["wall_seconds"] = elapsed
        record["created_unix"] = time.time()
        payload.setdefault("extra", {})["algorithms"] = record
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"merged algorithm matrix into {out} (extra.algorithms)")
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--smoke", action="store_true",
        help="wu_li bit-identity across schemes x backends + one verified "
        "lifespan run per registered algorithm",
    )
    p.add_argument(
        "--record", action="store_true",
        help="run the algorithm x scheme lifespan matrix and merge the "
        "curves into the bench JSON under extra.algorithms",
    )
    p.add_argument("--seed", type=int, default=2001)
    p.add_argument("--hosts", type=int, default=30)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument(
        "--output", default="benchmarks/results/BENCH_pipeline.json",
        help="bench JSON to merge --record numbers into (under "
        "extra.algorithms); '-' skips writing",
    )
    args = p.parse_args(argv)
    if not (args.smoke or args.record):
        p.error("pass --smoke and/or --record")
    rc = 0
    if args.smoke:
        rc = _smoke(args.seed)
    if rc == 0 and args.record:
        rc = _record(args.seed, args.output, args.hosts, args.trials)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
