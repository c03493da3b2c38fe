"""Batched sweep execution: ``SweepExecutor.run_batched`` (ISSUE 9).

The batched path runs one stacked :func:`run_lifespan_batch` engine pass
per sweep cell instead of one simulation per trial.  The contract is
strict: bit-identical metrics to the per-trial :meth:`SweepExecutor.run`
path, full checkpoint interoperability in BOTH directions (a per-trial
checkpoint restores into a batched run and vice versa), the same
retry/fault machinery at cell granularity, and no lost observability
(``vectorized.batch_intervals`` counters prove the batched engine ran).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import ConfigurationError, TrialExecutionError
from repro.exec.checkpoint import CheckpointStore
from repro.exec.executor import SweepExecutor
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_trials

SPARSE_ND = SimulationConfig(
    n_hosts=12, scheme="nd", drain_model="linear", backend="sparse"
)
SPARSE = SimulationConfig(
    n_hosts=12, scheme="el2", drain_model="linear", backend="sparse"
)
CELLS = [("sparse-nd", SPARSE_ND), ("sparse-el2", SPARSE)]


def _batched(executor: SweepExecutor, trials: int = 3, **kwargs):
    return executor.run_batched(CELLS, trials, root_seed=23, **kwargs)


def _per_trial(executor: SweepExecutor, trials: int = 3, **kwargs):
    return executor.run(CELLS, trials, root_seed=23, **kwargs)


class TestBitIdentity:
    def test_batched_equals_per_trial(self):
        assert (
            _batched(SweepExecutor(processes=1)).cells
            == _per_trial(SweepExecutor(processes=1)).cells
        )

    def test_pooled_equals_serial(self):
        assert (
            _batched(SweepExecutor(processes=2)).cells
            == _batched(SweepExecutor(processes=1)).cells
        )

    def test_cells_are_trial_ordered(self):
        out = _batched(SweepExecutor(processes=2), trials=4)
        assert out.cell("sparse-nd") == run_trials(
            SPARSE_ND, 4, root_seed=23, parallel=False
        )

    def test_scalar_algorithm_falls_back_inside_batch(self):
        # non-wu_li algorithms have no batched kernels;
        # run_lifespan_batch falls back to per-trial sims internally and
        # the executor contract must hold regardless
        cells = [
            (
                "greedy",
                SimulationConfig(
                    n_hosts=10, scheme="nd", algorithm="greedy_mcds"
                ),
            )
        ]
        a = SweepExecutor(processes=1).run_batched(cells, 2, root_seed=9)
        b = SweepExecutor(processes=1).run(cells, 2, root_seed=9)
        assert a.cells == b.cells


class TestCheckpointInterop:
    def test_batched_resumes_per_trial_checkpoint(self, tmp_path):
        ck = tmp_path / "ck"
        _per_trial(SweepExecutor(processes=1, checkpoint=ck), trials=2)
        resumed = _batched(
            SweepExecutor(processes=1, checkpoint=ck), trials=4
        )
        assert resumed.restored == 2 * len(CELLS)
        assert resumed.cells == _batched(SweepExecutor(processes=1), trials=4).cells

    def test_per_trial_resumes_batched_checkpoint(self, tmp_path):
        ck = tmp_path / "ck"
        _batched(SweepExecutor(processes=1, checkpoint=ck))
        resumed = _per_trial(SweepExecutor(processes=1, checkpoint=ck))
        assert resumed.executed == 0
        assert resumed.restored == 3 * len(CELLS)
        assert resumed.cells == _per_trial(SweepExecutor(processes=1)).cells

    def test_partial_cell_reexecutes_missing_trials_only(self, tmp_path):
        ck = tmp_path / "ck"
        _batched(SweepExecutor(processes=1, checkpoint=ck))
        shard_file = ck / "shards.jsonl"
        lines = shard_file.read_text().splitlines(keepends=True)
        assert len(lines) == 6
        shard_file.write_text("".join(lines[:2]))
        resumed = _batched(SweepExecutor(processes=1, checkpoint=ck))
        assert resumed.restored == 2
        assert resumed.cells == _batched(SweepExecutor(processes=1)).cells


class TestRetries:
    def test_transient_failure_heals(self, monkeypatch):
        clean = _batched(SweepExecutor(processes=1))
        monkeypatch.setenv("REPRO_EXEC_FAULT", "raise:0:1")
        healed = _batched(SweepExecutor(processes=1))
        assert healed.cells == clean.cells
        assert healed.retried >= 1

    def test_pooled_transient_failure_heals(self, monkeypatch):
        clean = _batched(SweepExecutor(processes=2))
        monkeypatch.setenv("REPRO_EXEC_FAULT", "raise:0:1")
        healed = _batched(SweepExecutor(processes=2))
        assert healed.cells == clean.cells

    def test_exhausted_budget_raises_with_attribution(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_FAULT", "raise:0:99")
        with pytest.raises(TrialExecutionError) as err:
            _batched(SweepExecutor(processes=1, max_retries=1))
        assert err.value.attempts == 2
        assert "injected fault" in str(err.value)

    def test_terminal_failure_leaves_resumable_checkpoint(
        self, monkeypatch, tmp_path
    ):
        # batched fault injection keys on each cell's FIRST missing
        # trial id, so trial 0 kills every cell; the invariant is that a
        # terminal failure never corrupts the checkpoint — a clean rerun
        # finishes and stores everything
        ck = tmp_path / "ck"
        monkeypatch.setenv("REPRO_EXEC_FAULT", "raise:0:99")
        with pytest.raises(TrialExecutionError):
            _batched(
                SweepExecutor(processes=1, max_retries=0, checkpoint=ck)
            )
        monkeypatch.delenv("REPRO_EXEC_FAULT")
        resumed = _batched(SweepExecutor(processes=1, checkpoint=ck))
        saved = CheckpointStore(ck).load()
        assert len(saved) == 6
        assert resumed.cells == _batched(SweepExecutor(processes=1)).cells


class TestObsCapture:
    def test_batched_kernels_show_in_counters(self):
        with obs.capture() as reg:
            _batched(SweepExecutor(processes=1))
        assert reg.counters.get("vectorized.batch_intervals", 0) > 0

    def test_pooled_capture_equals_serial_capture(self):
        with obs.capture() as serial:
            _batched(SweepExecutor(processes=1))
        with obs.capture() as pooled:
            _batched(SweepExecutor(processes=2))
        assert serial.counters != {}
        assert serial.counters == pooled.counters

    def test_resume_does_not_double_count_obs(self, tmp_path):
        with obs.capture() as uninterrupted:
            _batched(SweepExecutor(processes=1))
        ck = tmp_path / "ck"
        with obs.capture():
            _batched(SweepExecutor(processes=1, checkpoint=ck))
        with obs.capture() as resumed:
            _batched(SweepExecutor(processes=1, checkpoint=ck))
        assert resumed.counters == uninterrupted.counters


class TestValidation:
    def test_duplicate_cell_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate cell"):
            SweepExecutor(processes=1).run_batched(
                [("a", SPARSE_ND), ("a", SPARSE_ND)], 2, root_seed=1
            )

    def test_zero_trials_degenerate(self):
        out = SweepExecutor(processes=1).run_batched(CELLS, 0, root_seed=1)
        assert out.total_shards == 0


class TestProgress:
    def test_heartbeats_cover_all_cells(self):
        ticks = []
        ex = SweepExecutor(processes=1, progress=ticks.append)
        out = ex.run_batched(CELLS, 3, root_seed=23)
        assert out.total_shards == 6
        assert ticks[-1].done == 6
        assert {t.cell for t in ticks} == {"sparse-nd", "sparse-el2"}
        assert all(t.source in ("run", "retry", "restored") for t in ticks)

    def test_restore_announces_once(self, tmp_path):
        ck = tmp_path / "ck"
        _batched(SweepExecutor(processes=1, checkpoint=ck))
        ticks = []
        _batched(
            SweepExecutor(processes=1, checkpoint=ck, progress=ticks.append)
        )
        assert [t.source for t in ticks] == ["restored"]
        assert ticks[0].restored == 6
