"""Tests of the benchmark's own checks.

Run from the repository root with ``python -m pytest perfbench -q``.
They use the ``paper-n100`` workload with ``seconds=0``, which runs just
the pinned prefix (40 intervals), so the whole file takes seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from bench import _take_snapshot, measure, oracle_mismatch  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, Unit  # noqa: E402

WL = WORKLOADS["paper-n100"]


def _flip_gateway_bit(monkeypatch, at_index: int) -> None:
    """Make the first unit's interval ``at_index`` report one bit flipped."""
    original = Unit.interval

    def interval(self):
        out = original(self)
        if self.trial == 0 and self.index == at_index:
            cds = dataclasses.replace(out.cds, gateway_mask=out.cds.gateway_mask ^ 1)
            out = dataclasses.replace(out, cds=cds)
        return out

    monkeypatch.setattr(Unit, "interval", interval)


def test_oracle_accepts_the_program_and_rejects_one_flipped_bit():
    unit = Unit(WL, 5, 0, "el2")
    snap = _take_snapshot(unit)
    out = unit.interval()
    snap.mask = out.cds.gateway_mask
    snap.stats = tuple(out.cds.stats.__dict__.values())
    assert oracle_mismatch(snap) is None
    snap.mask ^= 1 << 7
    assert "1 gateway bit(s) differ" in oracle_mismatch(snap)


def test_flip_on_a_sampled_interval_fails_the_run(monkeypatch):
    _flip_gateway_bit(monkeypatch, at_index=1)  # the cold interval is always sampled
    res = measure(WL, 5, 0.0, setup_reps=1)
    assert res.failed == 1 and "differ from compute_cds" in res.failures[0]


def test_flip_on_an_unsampled_interval_changes_the_pinned_digest(monkeypatch):
    clean = measure(WL, 5, 0.0, setup_reps=1)
    pins = {
        "signature": run.machine_signature(),
        "pins": {WL.name: {"5": {"digest": clean.prefix.digest, "counts": {}}}},
    }
    assert run.pin_check(WL.name, 5, clean.prefix, pins)[0] == []
    assert (3 - 1) % WL.oracle_stride != 0  # interval 3 is not compared with the oracle
    _flip_gateway_bit(monkeypatch, at_index=3)
    flipped = measure(WL, 5, 0.0, setup_reps=1)
    assert flipped.failed == 0
    bad, state = run.pin_check(WL.name, 5, flipped.prefix, pins)
    assert bad and state == "DIFFERS from pin"


def test_command_reports_failure_and_exits_nonzero(monkeypatch, capsys):
    _flip_gateway_bit(monkeypatch, at_index=1)
    code = run.main(["--workload", "paper-n100", "--seed", "5", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] >= 1


def test_self_times_add_up_and_methods_are_restored():
    originals = {
        (mod, cls, attr): __import__(mod, fromlist=[cls]).__dict__[cls].__dict__[attr]
        for _, mod, cls, attr in TARGETS
    }
    with Tracer() as tracer:
        res = measure(WL, 5, 0.0, setup_reps=1, tracer=tracer, oracle=False)
    assert not tracer.missing
    assert tracer.intervals == len(res.prefix.masks) == WL.prefix
    assert tracer.attribution_gap() < 1e-9
    assert tracer.self_s["delta.update"] > 0 and tracer.self_s["graphs.apply_moves"] > 0
    for (mod, cls, attr), raw in originals.items():
        assert __import__(mod, fromlist=[cls]).__dict__[cls].__dict__[attr] is raw


def test_obs_counters_cover_only_the_prefix():
    from repro import obs

    with obs.capture(), Tracer() as tracer:
        res = measure(WL, 5, 0.0, setup_reps=2, tracer=tracer, oracle=False)
    assert res.prefix.counts["obs.delta.intervals"] == WL.prefix


def test_exact_counts_repeat_between_traced_and_counting_runs():
    with Tracer(timing=False) as counter:
        a = measure(WL, 9, 0.0, setup_reps=1, tracer=counter, oracle=False)
    with Tracer() as tracer:
        b = measure(WL, 9, 0.0, setup_reps=1, tracer=tracer, oracle=False)
    assert run._compare_prefixes(a.prefix, b.prefix) == []
    assert a.prefix.counts["graphs.rows_changed"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_fails_without_the_simulator_sources(tmp_path, trace):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-n100",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_command_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == run.PER_LAYER_UNITS
    assert set(w["name"] for w in spec["workloads"]) <= set(WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == e2e_bound(spec, "setup_s")


def e2e_bound(spec, name):
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)
