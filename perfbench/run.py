"""Whole-interval benchmark of the lifespan simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-n100 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload giant-n4096 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --pin 0-31        # rewrite perfbench/pins.json

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures for
half the time untraced and half traced and reports the per-layer
metrics.  Every run checks its outputs (see README.md); the last line of
standard output is one JSON object, and the exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"

E2E_UNITS = {
    "intervals_per_s": "1/s",
    "interval_ms_p50": "ms",
    "interval_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: obs counters recorded per prefix interval (``obs.`` + name).
OBS_COUNTERS = (
    "delta.intervals", "delta.nodes", "delta.changed_rows", "delta.dirty_marking",
    "delta.rows_patched", "delta.key_refreshes", "delta.short_circuit",
    "delta.coverage_triples", "delta.covered_triples",
    "sdelta.intervals", "sdelta.cold_starts", "sdelta.short_circuit",
    "sdelta.changed_rows", "sdelta.dirty_nodes", "sdelta.reused_nodes",
    "scds.batches", "scds.elements", "scds.components", "scds.edges",
    "scds.dense_nodes", "scds.csr_nodes", "scds.marked", "scds.final", "scds.rounds",
)

#: counts that must repeat exactly between runs of one (workload, seed).
EXACT = (
    "backbone.kept", "backbone.added", "backbone.dropped", "cds.size_mean",
    "graphs.rows_changed", "mobility.retries", "mobility.frozen", "dense.calls",
)


def _pin_threads() -> None:
    # one thread: nproc is small and the loop is single-threaded by design
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("REPRO_OBS", None)
    os.environ.pop("REPRO_MEMORY_BUDGET_MB", None)


def machine_signature() -> dict:
    import numpy as np
    from numpy._core import _multiarray_umath as um

    feats = um.__cpu_features__
    return {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_simd": [t for t in um.__cpu_dispatch__ if feats.get(t)],
    }


def _load_pins() -> dict:
    try:
        return json.loads(PINS.read_text())
    except FileNotFoundError:
        return {"signature": None, "pins": {}}


def pin_check(workload: str, seed: int, prefix, pins: dict) -> tuple[list[str], str]:
    """Compare a run's prefix with the pinned record, if there is one."""
    rec = pins["pins"].get(workload, {}).get(str(seed))
    if rec is None:
        return [], "unpinned seed"
    if pins["signature"] != machine_signature():
        return [], "pinned on another machine signature; not compared"
    bad = []
    if prefix.digest != rec["digest"]:
        bad.append(f"digest {prefix.digest} != pinned {rec['digest']}")
    for key, want in rec["counts"].items():
        if key in prefix.counts and prefix.counts[key] != want:
            bad.append(f"{key} {prefix.counts[key]} != pinned {want}")
    return bad, "matches pin" if not bad else "DIFFERS from pin"


def _quantile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def end_to_end(res, factor: float) -> dict[str, float]:
    """The end-to-end metrics, times scaled to reference speed by ``factor``."""
    warm = res.warm_s
    return {
        "intervals_per_s": len(warm) / sum(warm) / factor,
        "interval_ms_p50": 1000.0 * statistics.median(warm) * factor,
        "interval_ms_p90": 1000.0 * _quantile(warm, 90) * factor,
        "setup_s": statistics.median(res.setup_s) * factor,
        "peak_rss_mb": res.peak_rss_mb,
    }


def per_layer(tracer, res_untraced, res_traced, wl, f_untraced, f_traced) -> dict[str, float]:
    """Per-layer metrics; times at reference speed, counts over the prefix."""
    c = res_traced.prefix.counts
    p = max(len(res_traced.prefix.masks), 1)

    def ms(name: str) -> float:
        return tracer.per_interval_ms(name) * f_traced

    steps = c["mobility.steps"]
    ok = steps - c["mobility.frozen"]
    draws = ok + c["mobility.retries"] + c["mobility.frozen"] * wl.config.max_move_retries

    def obs_ratio(num: str, other: str) -> float:
        a, b = c.get("obs." + num, 0.0), c.get("obs." + other, 0.0)
        return a / (a + b) if a + b else 0.0

    nodes = c.get("obs.delta.nodes", 0.0)
    ips_u = len(res_untraced.warm_s) / sum(res_untraced.warm_s) / f_untraced
    ips_t = len(res_traced.warm_s) / sum(res_traced.warm_s) / f_traced
    out = {
        "sim.interval_self_ms": ms("sim.interval"),
        "delta.compute_ms": ms("delta.compute"),
        "delta.update_ms": ms("delta.update"),
        "delta.rules_ms": ms("delta.rules"),
        "delta.dirty_frac": c.get("obs.delta.dirty_marking", 0.0) / nodes if nodes else 0.0,
        "sdelta.self_ms": ms("sdelta"),
        "sdelta.reuse_frac": obs_ratio("sdelta.reused_nodes", "sdelta.dirty_nodes"),
        "sparse.engine_ms": ms("sparse.engine"),
        "sparse.csr_build_ms": ms("sparse.csr_build"),
        "dense.engine_ms": ms("dense.engine"),
        "dense.calls": c["dense.calls"] / p,
        "graphs.apply_moves_ms": ms("graphs.apply_moves"),
        "graphs.rows_changed": c["graphs.rows_changed"] / p,
        "graphs.is_connected_ms": ms("graphs.is_connected"),
        "graphs.is_connected_calls": c["graphs.is_connected_calls"] / p,
        "mobility.step_self_ms": ms("mobility.step"),
        "mobility.retries": c["mobility.retries"],
        "mobility.accept_frac": ok / draws if draws else 1.0,
        "energy.drain_ms": ms("energy.drain"),
        "backbone.kept": c["backbone.kept"],
        "backbone.added": c["backbone.added"],
        "backbone.dropped": c["backbone.dropped"],
        "cds.size_mean": c["cds.size_mean"],
        "trace.interval_ms": 1000.0 * tracer.total_s / max(tracer.intervals, 1) * f_traced,
        "trace.overhead_frac": ips_u / ips_t - 1.0,
    }
    for name in OBS_COUNTERS:
        out["obs." + name] = c.get("obs." + name, 0.0) / p
    return out


PER_LAYER_UNITS = {
    **{k: "ms" for k in (
        "sim.interval_self_ms", "delta.compute_ms", "delta.update_ms", "delta.rules_ms",
        "sdelta.self_ms", "sparse.engine_ms", "sparse.csr_build_ms", "dense.engine_ms",
        "graphs.apply_moves_ms", "graphs.is_connected_ms", "mobility.step_self_ms",
        "energy.drain_ms", "trace.interval_ms")},
    **{k: "ratio" for k in (
        "delta.dirty_frac", "sdelta.reuse_frac", "mobility.accept_frac",
        "trace.overhead_frac")},
    **{k: "count" for k in (
        "dense.calls", "graphs.rows_changed", "graphs.is_connected_calls",
        "mobility.retries", "backbone.kept", "backbone.added", "backbone.dropped",
        "cds.size_mean")},
    **{"obs." + k: "count" for k in OBS_COUNTERS},
}


def _compare_prefixes(a, b) -> list[str]:
    bad = []
    if a.digest != b.digest:
        bad.append(f"digest differs between phases: {a.digest} vs {b.digest}")
    for key in EXACT:
        if key in a.counts and key in b.counts and a.counts[key] != b.counts[key]:
            bad.append(f"{key} differs between phases: {a.counts[key]} vs {b.counts[key]}")
    return bad


def _report(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run(args) -> int:
    from repro import obs

    from bench import Calibrator, measure
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    pins = _load_pins()
    tag = f"[{wl.name} seed={args.seed}]"
    if not args.trace:
        cal = Calibrator()
        res = measure(wl, args.seed, args.seconds, setup_reps=wl.setup_reps, calibrator=cal)
        runs = [res]
        failures = list(res.failures)
    else:
        half = args.seconds / 2.0
        cal_u, cal = Calibrator(), Calibrator()
        with Tracer(timing=False) as counter:
            res_u = measure(wl, args.seed, half, setup_reps=1, tracer=counter,
                            calibrator=cal_u)
        with obs.capture(), Tracer() as tracer:
            res = measure(wl, args.seed, half, setup_reps=1, tracer=tracer,
                          calibrator=cal)
        runs = [res_u, res]
        failures = res_u.failures + res.failures
        failures += _compare_prefixes(res_u.prefix, res.prefix)
        gap = tracer.attribution_gap()
        if gap > 1e-9:
            failures.append(f"per-layer self times miss the interval total by {gap:.3g}")
        if tracer.missing:
            print(f"{tag} not traced (gone from the library): {', '.join(tracer.missing)}")
    for r in runs:
        bad, state = pin_check(wl.name, args.seed, r.prefix, pins)
        failures += bad
    print(f"{tag} prefix digest {res.prefix.digest} ({state})")

    attempted = sum(r.attempted for r in runs)
    failed = len(failures)
    for f in failures:
        print(f"{tag} FAILED: {f}")
    if not res.warm_s:
        print(f"{tag} no warm interval completed")
        return 1
    factor = cal.factor
    e2e = end_to_end(res, factor)
    e2e["failed_frac"] = failed / attempted
    n = len(res.warm_s)
    print(f"{tag} {res.units} unit(s), {n} warm intervals timed, "
          f"{len(res.setup_s)} set-ups, {attempted} intervals attempted")
    raw = end_to_end(res, 1.0)
    print(f"{tag} speed factor {factor:.4f} from {len(cal.samples)} calibration samples; "
          "raw (unscaled) times: " + ", ".join(
              f"{k} = {raw[k]:.6g}" for k in ("intervals_per_s", "interval_ms_p50",
                                             "interval_ms_p90", "setup_s")))
    for k, v in e2e.items():
        unit = E2E_UNITS.get(k, "ratio")
        note = ""
        if k == "interval_ms_p90" and n < 100:
            note = f"  (only {n} samples: fewer than 10 lie beyond p90)"
        print(f"{tag} {k} = {v:.6g} {unit}{note}")
    correct = failed == 0
    if not args.trace:
        del e2e["failed_frac"]
        _report(correct, attempted, failed, e2e, E2E_UNITS)
        return 0 if correct else 1

    layers = per_layer(tracer, res_u, res, wl, cal_u.factor, factor)
    share = {k: v / layers["trace.interval_ms"] for k, v in layers.items()
             if PER_LAYER_UNITS[k] == "ms" and k != "trace.interval_ms"}
    for k, v in layers.items():
        extra = f"  ({100 * share[k]:.1f}% of the traced interval)" if k in share else ""
        print(f"{tag} {k} = {v:.6g} {PER_LAYER_UNITS[k]}{extra}")
    absent = [k for k, v in layers.items() if v == 0.0 and not k.startswith("obs.")]
    if absent:
        print(f"{tag} zero here because the layer is not on this path: {', '.join(absent)}")
    other = sorted(k[4:] for k in res.prefix.counts
                   if k.startswith("obs.") and k[4:] not in OBS_COUNTERS)
    if other:
        print(f"{tag} obs counters outside the fixed list: {', '.join(other)}")
    _report(correct, attempted, failed, layers, PER_LAYER_UNITS)
    return 0 if correct else 1


def pin(seeds: list[int]) -> int:
    """Record digest and exact counts of every (workload, seed) prefix."""
    from repro import obs

    from bench import measure
    from tracer import Tracer
    from workloads import WORKLOADS

    out = {"signature": machine_signature(), "pins": {}}
    for name, wl in WORKLOADS.items():
        for seed in seeds:
            with obs.capture(), Tracer() as tracer:
                res = measure(wl, seed, 0.0, setup_reps=1, tracer=tracer, oracle=False)
            if res.failures:
                print(f"[{name} seed={seed}] cannot pin: {res.failures}", file=sys.stderr)
                return 1
            counts = {k: res.prefix.counts[k] for k in EXACT}
            out["pins"].setdefault(name, {})[str(seed)] = {
                "digest": res.prefix.digest, "counts": counts,
            }
            print(f"[{name} seed={seed}] {res.prefix.digest}")
    PINS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", type=_seed_range, metavar="LO-HI",
                    help="rewrite pins.json for these seeds and exit")
    args = ap.parse_args(argv)

    _pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import repro
        import workloads
    except ImportError as exc:
        print(f"cannot import the simulator from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.pin:
        return pin(args.pin)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
