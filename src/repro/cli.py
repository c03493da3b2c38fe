"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``cds``       compute a CDS on a random network (or a saved topology) and
              print the gateways + an ASCII map;
``lifespan``  run lifespan trials for one or all schemes;
``figure``    regenerate one of the paper's figures (10, 11, 12, 13);
``example``   print the §3.3 worked example results for every scheme;
``compare``   run every registered CDS algorithm on one generated
              network and print a size/runtime/verified table (the
              centralized-oracle comparison the lifespan docstring
              promises);
``faults``    run the fault-injected distributed protocol and report
              convergence + retransmission overhead;
``profile``   run an instrumented simulation (and optionally the
              distributed protocol engines) and print the observability
              span tree + counters (see :mod:`repro.obs`);
``serve``     run the crash-safe multi-tenant backbone service over a
              seeded update stream, with optional journaling (kill/
              restart recovers bit-identically) and chaos injection;
``serve-bench``  measure sustained service updates/sec + query latency
              percentiles per topology size into BENCH_pipeline.json.

Everything the CLI does goes through the same public API the examples
use; it exists so the reproduction can be driven without writing Python.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.experiments import run_figure10, run_lifespan_figure
from repro.analysis.netview import render_network
from repro.analysis.stats import summarize
from repro.analysis.tables import render_table
from repro.core.cds import compute_cds
from repro.core.priority import PAPER_SERIES_ORDER
from repro.core.registry import EXECUTION_BACKENDS, algorithm_names
from repro.graphs.generators import paper_example_graph, random_connected_network
from repro.io.topology_io import load_network
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import batches_cells, run_trials

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Power-aware connected dominating sets (ICPP 2001 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cds", help="compute a CDS and draw the network")
    c.add_argument("--hosts", type=int, default=40)
    c.add_argument("--scheme", default="nd", choices=list(PAPER_SERIES_ORDER))
    c.add_argument("--radius", type=float, default=25.0)
    c.add_argument("--seed", type=int, default=7)
    c.add_argument("--topology", help="load a saved repro-network JSON instead")

    l = sub.add_parser("lifespan", help="run lifespan trials")
    l.add_argument("--hosts", type=int, default=50)
    l.add_argument(
        "--scheme", default="all",
        choices=["all", *PAPER_SERIES_ORDER],
    )
    l.add_argument("--drain", default="fixed")
    l.add_argument("--trials", type=int, default=8)
    l.add_argument("--seed", type=int, default=2001)
    l.add_argument(
        "--processes", type=int, default=None,
        help="pool size for the trial fan-out (default: cpu count)",
    )
    l.add_argument(
        "--resume", default=None, metavar="DIR",
        help="checkpoint directory: completed (scheme, trial) shards are "
        "saved there and a re-run resumes from them bit-identically",
    )
    l.add_argument(
        "--shadow-check", action="store_true",
        help="run both pipelines every interval and fail on any divergence",
    )
    l.add_argument(
        "--backend", default="scalar", choices=list(EXECUTION_BACKENDS),
        help="CDS backend: scalar (scratch below 48 hosts, delta above), "
        "delta (the packed-word incremental pipeline at any size), or "
        "sparse (the incremental CSR pipeline) — bit-identical results; "
        "delta wins at the paper's N=100, sparse from N~1000",
    )
    l.add_argument(
        "--memory-budget-mb", type=float, default=None, metavar="MB",
        help="chunking budget for the sparse engine "
        "(bit-identical at any positive value; default: "
        "REPRO_MEMORY_BUDGET_MB or 64)",
    )
    l.add_argument(
        "--algorithm", default="wu_li", choices=algorithm_names(),
        help="CDS construction from the repro.core.registry catalog "
        "(default: the paper's marking + pruning path)",
    )
    l.add_argument(
        "--no-batch-cells", action="store_true",
        help="force per-trial shards even on the batched backends "
        "(default: each scheme's trials run as one stacked engine pass "
        "when the backend is sparse; results are identical)",
    )

    f = sub.add_parser("figure", help="regenerate a paper figure")
    f.add_argument("number", type=int, choices=[10, 11, 12, 13])
    f.add_argument("--trials", type=int, default=8)
    f.add_argument(
        "--sweep", default="10,25,50,75,100",
        help="comma-separated N values",
    )
    f.add_argument(
        "--reading", default="per-gateway", choices=["literal", "per-gateway"],
        help="drain-model reading for figures 11-13 (see EXPERIMENTS.md)",
    )
    f.add_argument("--seed", type=int, default=2001)
    f.add_argument(
        "--processes", type=int, default=None,
        help="pool size for the shard fan-out (default: cpu count)",
    )
    f.add_argument(
        "--resume", default=None, metavar="DIR",
        help="checkpoint directory: a killed figure run resumes from its "
        "completed (N, scheme, trial) shards bit-identically",
    )
    f.add_argument(
        "--backend", default="scalar", choices=list(EXECUTION_BACKENDS),
        help="CDS backend per shard (bit-identical results; use sparse "
        "for N >= 1000 sweeps)",
    )
    f.add_argument(
        "--memory-budget-mb", type=float, default=None, metavar="MB",
        help="chunking budget for the sparse engine "
        "(bit-identical at any positive value)",
    )
    f.add_argument(
        "--no-batch-cells", action="store_true",
        help="force per-trial shards even on the batched backends "
        "(default: each cell's trials run as one stacked engine pass "
        "when the backend is sparse; results are identical)",
    )
    f.add_argument(
        "--density-scaled", action="store_true",
        help="grow the arena side as 100*sqrt(N/100) so node density (and "
        "degree) stays at the paper's level — required reading for N=10k "
        "scenario families (see EXPERIMENTS.md)",
    )
    f.add_argument(
        "--algorithm", default="wu_li", choices=algorithm_names(),
        help="CDS construction for every cell of the figure sweep",
    )

    sub.add_parser("example", help="the paper's §3.3 worked example")

    cp = sub.add_parser(
        "compare",
        help="run every registered CDS algorithm on one network and print "
        "a size/runtime/verified table",
    )
    cp.add_argument("--hosts", type=int, default=40)
    cp.add_argument("--radius", type=float, default=25.0)
    cp.add_argument("--side", type=float, default=100.0)
    cp.add_argument(
        "--scheme", default="el2", choices=list(PAPER_SERIES_ORDER),
        help="priority scheme fed to scheme-aware algorithms",
    )
    cp.add_argument("--seed", type=int, default=2001)
    cp.add_argument(
        "--jitter", type=float, default=0.3,
        help="energy heterogeneity: levels uniform in 100*(1±jitter) — "
        "what separates the energy-aware constructions",
    )

    ft = sub.add_parser(
        "faults", help="fault-injected distributed CDS (loss, crashes, repair)"
    )
    ft.add_argument("--hosts", type=int, default=50)
    ft.add_argument("--scheme", default="nd", choices=list(PAPER_SERIES_ORDER))
    ft.add_argument("--loss", type=float, default=0.2, help="per-frame loss p")
    ft.add_argument(
        "--burst", action="store_true",
        help="Gilbert-Elliott burst loss instead of Bernoulli",
    )
    ft.add_argument("--crashes", type=int, default=1, help="nodes that crash")
    ft.add_argument("--delay", type=float, default=0.0, help="P(frame slips a round)")
    ft.add_argument("--runs", type=int, default=20)
    ft.add_argument("--policy", default="degrade", choices=["strict", "degrade"])
    ft.add_argument("--max-retries", type=int, default=6)
    ft.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed for the fault plan (default: derived from --seed)",
    )
    ft.add_argument("--seed", type=int, default=2001, help="topology seed")

    d = sub.add_parser(
        "directed", help="CDS on a heterogeneous-range (unidirectional) network"
    )
    d.add_argument("--hosts", type=int, default=30)
    d.add_argument("--spread", type=float, default=0.4)
    d.add_argument("--scheme", default="nd", choices=list(PAPER_SERIES_ORDER))
    d.add_argument("--seed", type=int, default=7)

    r = sub.add_parser(
        "report", help="collect benchmarks/results into REPORT.md"
    )
    r.add_argument(
        "--results", default="benchmarks/results",
        help="directory the benches wrote to",
    )
    r.add_argument("--output", default=None)

    pr = sub.add_parser(
        "profile",
        help="instrumented run: per-stage span tree + counters (repro.obs)",
    )
    pr.add_argument("--hosts", type=int, default=50)
    pr.add_argument("--scheme", default="el2", choices=list(PAPER_SERIES_ORDER))
    pr.add_argument("--drain", default="fixed")
    pr.add_argument(
        "--intervals", type=int, default=30,
        help="max update intervals to profile (stops early on first death)",
    )
    pr.add_argument(
        "--protocol", action="store_true",
        help="also profile one sync + one async distributed execution",
    )
    pr.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write the JSON-lines span/counter event trace to FILE",
    )
    pr.add_argument(
        "--trials", type=int, default=1,
        help="with >1: profile full lifespan trials through the sharded "
        "executor instead of one in-process interval loop (worker-side "
        "counters are merged back, so the totals match a serial run)",
    )
    pr.add_argument(
        "--processes", type=int, default=None,
        help="pool size for --trials > 1 (default: cpu count)",
    )
    pr.add_argument(
        "--backend", default="scalar", choices=list(EXECUTION_BACKENDS),
        help="CDS backend to profile (bit-identical results)",
    )
    pr.add_argument(
        "--memory-budget-mb", type=float, default=None, metavar="MB",
        help="chunking budget for the sparse engine",
    )
    pr.add_argument(
        "--density-scaled", action="store_true",
        help="grow the arena side as 100*sqrt(N/100) — pair with "
        "--hosts 10000 --backend sparse to profile the 10k family",
    )
    pr.add_argument(
        "--algorithm", default="wu_li", choices=algorithm_names(),
        help="CDS construction to profile",
    )
    pr.add_argument("--seed", type=int, default=2001)

    sv = sub.add_parser(
        "serve",
        help="run the crash-safe backbone service over a seeded update "
        "stream (multi-tenant; optional journaling + chaos injection)",
    )
    sv.add_argument("--tenants", type=int, default=2)
    sv.add_argument("--hosts", type=int, default=40, help="hosts per tenant")
    sv.add_argument("--updates", type=int, default=100, help="updates per tenant")
    sv.add_argument("--seed", type=int, default=2001)
    sv.add_argument("--scheme", default="el2", choices=list(PAPER_SERIES_ORDER))
    sv.add_argument(
        "--algorithm", default="wu_li", choices=algorithm_names(),
        help="backbone construction; 2-connected algorithms arm the "
        "stronger publish gate (survives any single gateway loss)",
    )
    sv.add_argument("--radius", type=float, default=25.0)
    sv.add_argument("--side", type=float, default=100.0)
    sv.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="journal root: per-tenant WAL + snapshots; a killed serve "
        "re-run with the same arguments recovers and resumes bit-identically",
    )
    sv.add_argument("--snapshot-every", type=int, default=25)
    sv.add_argument(
        "--recompute-timeout", type=float, default=None, metavar="S",
        help="per-recompute budget; overruns degrade to the stale backbone",
    )
    sv.add_argument(
        "--chaos-loss", type=float, default=0.0,
        help="probability an update apply crashes the tenant's task",
    )
    sv.add_argument(
        "--chaos-delay", type=float, default=0.0,
        help="probability a recompute is slowed (drives the timeout path)",
    )
    sv.add_argument(
        "--chaos-seed", type=int, default=None,
        help="fault-plan seed (default: derived from --seed)",
    )
    sv.add_argument(
        "--max-failures", type=int, default=5,
        help="consecutive task failures before a tenant is quarantined",
    )
    sv.add_argument(
        "--deadline", type=float, default=600.0,
        help="overall per-tenant drive deadline in seconds",
    )
    sv.add_argument(
        "--digest", action="store_true",
        help="print one machine-readable 'digest <tenant> <sha256>' line "
        "per tenant (what the CI chaos job compares)",
    )
    sv.add_argument(
        "--backend", default="delta", choices=["delta", "sparse"],
        help="recompute backend for wu_li tenants: the packed-word delta "
        "pipeline (default) or the persistent-CSR incremental sparse "
        "pipeline (bit-identical; for very large tenants)",
    )
    sv.add_argument(
        "--memory-budget-mb", type=float, default=None, metavar="MB",
        help="chunking budget for the sparse backend's streamed builders "
        "(bit-identical at any positive value; default: "
        "REPRO_MEMORY_BUDGET_MB or 64)",
    )

    sb = sub.add_parser(
        "serve-bench",
        help="service throughput/latency: sustained updates/sec and query "
        "p99 per topology size, merged into BENCH_pipeline.json",
    )
    sb.add_argument(
        "--sizes", default="100,1000",
        help="comma-separated hosts-per-tenant topology sizes",
    )
    sb.add_argument("--updates", type=int, default=150, help="updates per size")
    sb.add_argument("--seed", type=int, default=2001)
    sb.add_argument("--scheme", default="el2", choices=list(PAPER_SERIES_ORDER))
    sb.add_argument(
        "--output", default="benchmarks/results/BENCH_pipeline.json",
        help="bench JSON to merge the service numbers into (under "
        "extra.service); '-' skips writing",
    )

    s = sub.add_parser("sweep", help="lifespan sensitivity to one config knob")
    s.add_argument(
        "knob",
        choices=["radius", "stability", "initial_energy_jitter", "n_hosts"],
    )
    s.add_argument(
        "values", help="comma-separated values, e.g. 15,25,40"
    )
    s.add_argument("--hosts", type=int, default=50)
    s.add_argument("--drain", default="fixed")
    s.add_argument("--trials", type=int, default=6)
    s.add_argument("--seed", type=int, default=2001)
    s.add_argument(
        "--processes", type=int, default=None,
        help="pool size for the shard fan-out (default: cpu count)",
    )
    s.add_argument(
        "--resume", default=None, metavar="DIR",
        help="checkpoint directory: a killed sweep resumes from its "
        "completed (value, scheme, trial) shards bit-identically",
    )
    s.add_argument(
        "--memory-budget-mb", type=float, default=None, metavar="MB",
        help="chunking budget for the sparse engine "
        "(bit-identical at any positive value; default: "
        "REPRO_MEMORY_BUDGET_MB or 64)",
    )
    return p


def _cmd_cds(args) -> int:
    if args.topology:
        net = load_network(args.topology)
    else:
        net = random_connected_network(
            args.hosts, radius=args.radius, rng=args.seed
        )
    energy = np.full(net.n, 100.0)
    result = compute_cds(net, args.scheme, energy=energy, verify=True)
    print(
        f"{net.n} hosts, scheme {args.scheme.upper()}: "
        f"{result.size} gateways {sorted(result.gateways)}"
    )
    print(
        render_network(
            net.positions,
            net.side,
            gateway_mask=result.gateway_mask,
            show_backbone_links=True,
            adjacency=net.adjacency,
        )
    )
    print("legend: # gateway   o host   + backbone link midpoint")
    return 0


def _cmd_lifespan(args) -> int:
    from repro.exec import SweepExecutor, progress_printer

    schemes = list(PAPER_SERIES_ORDER) if args.scheme == "all" else [args.scheme]
    cells = [
        (
            scheme,
            SimulationConfig(
                n_hosts=args.hosts,
                scheme=scheme,
                drain_model=args.drain,
                shadow_check=args.shadow_check,
                backend=args.backend,
                algorithm=args.algorithm,
                memory_budget_mb=args.memory_budget_mb,
            ),
        )
        for scheme in schemes
    ]
    executor = SweepExecutor(
        processes=args.processes,
        checkpoint=args.resume,
        progress=progress_printer(),
    )
    batch = batches_cells(args.backend) and not args.no_batch_cells
    run = executor.run_batched if batch else executor.run
    outcome = run(cells, args.trials, root_seed=args.seed)
    rows = []
    for scheme in schemes:
        metrics = outcome.cell(scheme)
        life = summarize([m.lifespan for m in metrics])
        size = summarize([m.mean_cds_size for m in metrics])
        rows.append([scheme.upper(), life.mean, life.sem, size.mean])
    print(
        render_table(
            ["scheme", "lifespan", "±sem", "mean |G'|"],
            rows,
            title=(
                f"Lifespan: N={args.hosts}, drain '{args.drain}', "
                f"{args.trials} trials"
            ),
        )
    )
    return 0


def _cmd_figure(args) -> int:
    from repro.exec import progress_printer

    sweep = tuple(int(x) for x in args.sweep.split(","))
    common = dict(
        n_values=sweep,
        trials=args.trials,
        root_seed=args.seed,
        processes=args.processes,
        checkpoint_dir=args.resume,
        progress=progress_printer(),
        backend=args.backend,
        density_scaled=args.density_scaled,
        algorithm=args.algorithm,
        memory_budget_mb=args.memory_budget_mb,
        batch_cells=False if args.no_batch_cells else None,
    )
    if args.number == 10:
        result = run_figure10(**common)
    else:
        literal = {11: "constant", 12: "linear", 13: "quadratic"}
        per_gw = {11: "fixed", 12: "pg-linear", 13: "pg-quadratic"}
        model = (literal if args.reading == "literal" else per_gw)[args.number]
        result = run_lifespan_figure(model, **common)
    print(result.report())
    return 0


def _cmd_example(args) -> int:
    ex = paper_example_graph()
    print("the paper's §3.3 worked example (27 hosts):")
    for scheme in PAPER_SERIES_ORDER:
        r = compute_cds(ex.graph, scheme, energy=ex.energy)
        print(
            f"  {scheme.upper():>3}: {r.size:2d} gateways "
            f"{sorted(ex.labels(r.gateways))}"
        )
    return 0


def _cmd_compare(args) -> int:
    import time as _time

    from repro.core.marking import marking_trivially_empty
    from repro.core.properties import is_cds
    from repro.core.registry import ALGORITHMS

    net = random_connected_network(
        args.hosts, side=args.side, radius=args.radius, rng=args.seed
    )
    rng = np.random.default_rng(args.seed)
    lo = 100.0 * (1.0 - args.jitter)
    hi = 100.0 * (1.0 + args.jitter)
    energy = list(rng.uniform(lo, hi, size=net.n))
    rows = []
    for name in sorted(ALGORITHMS):
        algo = ALGORITHMS[name]
        t0 = _time.perf_counter()
        result = algo.compute(net, args.scheme, energy)
        ms = (_time.perf_counter() - t0) * 1e3
        mask = result.gateway_mask
        valid = (
            is_cds(net.adjacency, mask)
            if mask
            else marking_trivially_empty(net.adjacency)
        )
        flags = []
        if algo.connectivity >= 2:
            flags.append("2-conn")
        if algo.supports_delta:
            flags.append("delta")
        if algo.supports_sparse:
            flags.append("sparse")
        rows.append(
            [
                name,
                result.size,
                f"{ms:.2f}",
                "yes" if valid else "NO",
                ",".join(flags) or "-",
            ]
        )
    print(
        render_table(
            ["algorithm", "|G'|", "runtime ms", "verified", "capabilities"],
            rows,
            title=(
                f"CDS constructions on one network: N={args.hosts}, "
                f"radius {args.radius}, scheme {args.scheme.upper()}, "
                f"energy jitter ±{args.jitter:.0%}, seed {args.seed}"
            ),
        )
    )
    return 0


def _cmd_faults(args) -> int:
    from repro.faults import FaultPlan, GilbertElliott
    from repro.protocol.fault_tolerant import run_fault_tolerant_cds
    from repro.simulation.metrics import FaultSummary

    fault_seed = args.fault_seed if args.fault_seed is not None else args.seed + 7919
    burst = GilbertElliott() if args.burst else None
    outcomes = []
    for i in range(args.runs):
        net = random_connected_network(args.hosts, rng=args.seed + i)
        energy = np.full(net.n, 100.0)
        plan = FaultPlan.random(
            net.n,
            seed=fault_seed + i,
            loss=args.loss,
            burst=burst,
            n_crashes=args.crashes,
            delay=args.delay,
        )
        outcomes.append(
            run_fault_tolerant_cds(
                net,
                args.scheme,
                energy=energy,
                plan=plan,
                policy=args.policy,
                max_retries=args.max_retries,
            )
        )
    s = FaultSummary.from_outcomes(outcomes)
    loss_desc = "GE burst" if args.burst else f"p={args.loss}"
    print(
        render_table(
            ["metric", "value"],
            [
                ["runs", s.runs],
                ["completed", s.completed],
                ["converged", s.converged],
                ["convergence rate", f"{s.convergence_rate:.2f}"],
                ["mean extra rounds", f"{s.mean_extra_rounds:.2f}"],
                ["mean retransmissions", f"{s.mean_retransmissions:.1f}"],
                ["mean dropped frames", f"{s.mean_dropped:.1f}"],
                ["mean coverage gap", f"{s.mean_coverage_gap:.2f}"],
                ["repair rate", f"{s.repair_rate:.2f}"],
                ["mean |G'|", f"{s.mean_cds_size:.1f}"],
            ],
            title=(
                f"Faults: N={args.hosts}, {args.scheme.upper()}, loss {loss_desc}, "
                f"{args.crashes} crash(es), policy {args.policy}, "
                f"fault-seed {fault_seed}"
            ),
        )
    )
    return 0


def _cmd_directed(args) -> int:
    from repro.core.unidirectional import (
        compute_directed_cds,
        is_dominating_and_absorbing,
    )
    from repro.graphs import bitset
    from repro.graphs.digraph import random_strongly_connected_digraph

    view, _, ranges = random_strongly_connected_digraph(
        args.hosts, range_spread=args.spread, rng=args.seed
    )
    arcs = sum(bitset.popcount(m) for m in view.out_adj)
    mutual = sum(bitset.popcount(m) for m in view.bidirectional_core())
    gws = compute_directed_cds(view, args.scheme, use_rule_k=True)
    print(
        f"{args.hosts} hosts, ranges {ranges.min():.1f}..{ranges.max():.1f}: "
        f"{arcs} arcs ({arcs - mutual} one-way)"
    )
    print(
        f"directed backbone ({args.scheme.upper()} + rule-k): "
        f"{len(gws)} gateways {sorted(gws)}"
    )
    print(f"dominating and absorbing: {is_dominating_and_absorbing(view, gws)}")
    return 0


def _cmd_profile(args) -> int:
    from repro import obs
    from repro.simulation.interval import run_interval
    from repro.simulation.lifespan import LifespanSimulator

    from repro.graphs.generators import scaled_side

    cfg = SimulationConfig(
        n_hosts=args.hosts,
        scheme=args.scheme,
        drain_model=args.drain,
        backend=args.backend,
        algorithm=args.algorithm,
        side=scaled_side(args.hosts) if args.density_scaled else 100.0,
        memory_budget_mb=args.memory_budget_mb,
    )
    if args.trials > 1:
        # profile the fan-out itself: trials run through the sharded
        # executor (parallel per --processes) and every worker's counters
        # and spans are merged back into this registry — the totals match
        # a serial run of the same trials.
        with obs.capture() as reg:
            run_trials(
                cfg, args.trials, root_seed=args.seed,
                processes=args.processes,
            )
        print(
            f"profile: N={args.hosts}, scheme {args.scheme.upper()}, "
            f"drain '{args.drain}', {args.trials} trial(s) via the sharded "
            f"executor (processes={args.processes or 'auto'})"
        )
        print()
        print(obs.render_profile(reg))
        if args.trace is not None:
            print(
                "note: --trace covers the in-process interval mode only; "
                "worker-side snapshots do not carry trace events"
            )
        return 0
    with obs.capture(trace=args.trace is not None) as reg:
        sim = LifespanSimulator(cfg, rng=args.seed)
        intervals = 0
        with obs.span("profile"):
            for i in range(args.intervals):
                outcome = run_interval(
                    sim.network,
                    sim.scheme,
                    sim.accountant,
                    sim.mobility,
                    interval_index=i + 1,
                    pipeline=sim.pipeline,
                    algorithm=sim.algorithm,
                )
                intervals += 1
                if outcome.someone_died:
                    break
            if args.protocol:
                from repro.protocol.async_sim import run_async_cds
                from repro.protocol.distributed_cds import distributed_cds

                net = random_connected_network(args.hosts, rng=args.seed)
                energy = np.full(net.n, 100.0)
                with obs.span("sync_protocol"):
                    distributed_cds(net, args.scheme, energy=energy)
                run_async_cds(net, args.scheme, energy=energy, rng=args.seed)

    print(
        f"profile: N={args.hosts}, scheme {args.scheme.upper()}, "
        f"drain '{args.drain}', {intervals} interval(s)"
        + (", protocol engines" if args.protocol else "")
    )
    print()
    print(obs.render_profile(reg))
    if args.trace is not None:
        n_events = obs.write_jsonl_trace(reg, args.trace)
        print(f"\nwrote {n_events} trace events to {args.trace}")
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import write_report

    out = write_report(args.results, args.output)
    print(f"wrote {out}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.faults.plan import FaultPlan
    from repro.service import ChaosSchedule, RestartPolicy, ServiceConfig
    from repro.service.driver import drive_tenants
    from repro.service.server import BackboneService

    chaos = None
    if args.chaos_loss > 0.0 or args.chaos_delay > 0.0:
        chaos_seed = (
            args.chaos_seed if args.chaos_seed is not None else args.seed + 7919
        )
        chaos = ChaosSchedule(
            FaultPlan(
                seed=chaos_seed, loss=args.chaos_loss, delay=args.chaos_delay
            )
        )
    config = ServiceConfig(
        radius=args.radius,
        side=args.side,
        scheme=args.scheme,
        algorithm=args.algorithm,
        snapshot_every=args.snapshot_every,
        recompute_timeout_s=args.recompute_timeout,
        restart=RestartPolicy(
            max_failures=args.max_failures, seed=args.seed
        ),
        data_dir=args.data_dir,
        backend=args.backend,
        memory_budget_mb=args.memory_budget_mb,
    )

    async def run():
        service = BackboneService(config, chaos=chaos)
        try:
            return await drive_tenants(
                service,
                tenants=args.tenants,
                hosts=args.hosts,
                updates=args.updates,
                seed=args.seed,
                side=args.side,
                deadline_s=args.deadline,
            )
        finally:
            await service.close()

    report = asyncio.run(run())
    rows = [
        [
            name,
            st["seq"],
            st["n_nodes"],
            st["restarts"],
            st["failures"],
            st["stale_publishes"],
            "yes" if st["quarantined"] else "no",
        ]
        for name, st in sorted(report.stats.items())
    ]
    print(
        render_table(
            ["tenant", "seq", "hosts", "restarts", "failures", "stale", "quar"],
            rows,
            title=(
                f"serve: {args.tenants} tenant(s) x {args.updates} updates, "
                f"N={args.hosts}, scheme {args.scheme.upper()}, "
                f"{report.elapsed_s:.2f}s"
                + (
                    f", chaos loss={args.chaos_loss} delay={args.chaos_delay}"
                    if chaos is not None
                    else ""
                )
            ),
        )
    )
    if chaos is not None and chaos.events:
        print(f"chaos injections: {chaos.counts()}")
    if args.digest:
        for name, digest in sorted(report.digests.items()):
            print(f"digest {name} {digest}")
    if not report.ok:
        print(
            "serve: FAILED — "
            + (
                f"quarantined: {sorted(report.quarantined)}"
                if report.quarantined
                else "some tenants short of the target seq"
            )
        )
        return 1
    return 0


def _cmd_serve_bench(args) -> int:
    import asyncio
    import json
    import time as _time
    from pathlib import Path

    from repro.service import ServiceConfig
    from repro.service.driver import bench_service, scaled_side
    from repro.service.server import BackboneService

    sizes = [int(x) for x in args.sizes.split(",")]
    results: dict[str, dict] = {}
    rows = []
    for hosts in sizes:
        side = scaled_side(hosts)
        config = ServiceConfig(
            side=side,
            scheme=args.scheme,
            queue_high_water=max(256, args.updates),
        )

        async def run(hosts=hosts, side=side, config=config):
            service = BackboneService(config)
            try:
                return await bench_service(
                    service,
                    hosts=hosts,
                    updates=args.updates,
                    seed=args.seed,
                    side=side,
                )
            finally:
                await service.close()

        res = asyncio.run(run())
        results[f"n{hosts}"] = res
        rows.append(
            [
                hosts,
                f"{res['updates_per_s']:.1f}",
                f"{res['query_p50_ms']:.3f}" if res["query_p50_ms"] else "-",
                f"{res['query_p99_ms']:.3f}" if res["query_p99_ms"] else "-",
                res["queries"],
                res["final_backbone"],
            ]
        )
    print(
        render_table(
            ["hosts", "updates/s", "q p50 ms", "q p99 ms", "queries", "|G'|"],
            rows,
            title=(
                f"serve-bench: {args.updates} updates/size, scheme "
                f"{args.scheme.upper()}, seed {args.seed} "
                f"(density-constant arena)"
            ),
        )
    )
    if args.output != "-":
        out = Path(args.output)
        if out.exists():
            payload = json.loads(out.read_text(encoding="utf-8"))
        else:
            payload = {"schema": "repro-bench-pipeline/1", "benchmarks": []}
        payload.setdefault("extra", {})["service"] = {
            "created_unix": _time.time(),
            "updates": args.updates,
            "seed": args.seed,
            "scheme": args.scheme,
            "results": results,
        }
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"merged service numbers into {out} (extra.service)")
    return 0


def _cmd_sweep(args) -> int:
    from repro.analysis.sweeps import sweep_parameter
    from repro.exec import progress_printer

    caster = int if args.knob == "n_hosts" else float
    values = tuple(caster(x) for x in args.values.split(","))
    base = SimulationConfig(
        n_hosts=args.hosts,
        drain_model=args.drain,
        memory_budget_mb=args.memory_budget_mb,
    )
    result = sweep_parameter(
        args.knob, values, base=base, trials=args.trials,
        root_seed=args.seed, processes=args.processes,
        checkpoint_dir=args.resume, progress=progress_printer(),
    )
    print(result.to_table())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "cds": _cmd_cds,
        "lifespan": _cmd_lifespan,
        "figure": _cmd_figure,
        "example": _cmd_example,
        "compare": _cmd_compare,
        "faults": _cmd_faults,
        "directed": _cmd_directed,
        "profile": _cmd_profile,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "serve-bench": _cmd_serve_bench,
        "sweep": _cmd_sweep,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
