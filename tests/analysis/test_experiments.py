"""Experiment driver tests (small sweeps — the real ones live in
benchmarks/)."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    DEFAULT_SWEEP,
    run_figure10,
    run_lifespan_figure,
)


@pytest.fixture(scope="module")
def fig10_mini():
    return run_figure10(
        n_values=[8, 16], trials=3, root_seed=7, parallel=False
    )


class TestFigure10Driver:
    def test_series_cover_all_schemes(self, fig10_mini):
        assert set(fig10_mini.series) == {"nr", "id", "nd", "el1", "el2"}

    def test_summaries_aligned_with_sweep(self, fig10_mini):
        for summaries in fig10_mini.series.values():
            assert len(summaries) == 2
            assert all(s.n == 3 for s in summaries)

    def test_nr_is_never_smaller_than_pruned(self, fig10_mini):
        for i in range(2):
            nr = fig10_mini.series["nr"][i].mean
            for s in ("id", "nd", "el1", "el2"):
                assert fig10_mini.series[s][i].mean <= nr + 1e-9

    def test_report_renders(self, fig10_mini):
        text = fig10_mini.report()
        assert "Figure 10" in text
        assert "legend" in text
        assert "note:" in text

    def test_means_accessor(self, fig10_mini):
        assert len(fig10_mini.means("id")) == 2


class TestLifespanDriver:
    def test_figure_names_follow_model(self):
        r = run_lifespan_figure(
            "linear", n_values=[8], trials=2, schemes=["id"],
            root_seed=1, parallel=False,
        )
        assert r.figure == "Figure 12 (literal)"
        assert r.drain_model == "linear"

    def test_lifespans_positive(self):
        r = run_lifespan_figure(
            "quadratic", n_values=[8], trials=2,
            schemes=["id", "el1"], root_seed=1, parallel=False,
        )
        for summaries in r.series.values():
            assert summaries[0].mean >= 1.0

    def test_default_sweep_matches_paper_range(self):
        assert min(DEFAULT_SWEEP) >= 3
        assert max(DEFAULT_SWEEP) == 100


class TestSignificance:
    @pytest.fixture(scope="class")
    def small_result(self):
        return run_lifespan_figure(
            "fixed", n_values=[15], trials=4,
            schemes=["id", "el1"], root_seed=9, parallel=False,
        )

    def test_raw_values_kept(self, small_result):
        assert small_result.raw is not None
        assert len(small_result.raw["el1"][0]) == 4

    def test_welch_t_antisymmetric(self, small_result):
        t1 = small_result.welch_t("el1", "id", 0)
        t2 = small_result.welch_t("id", "el1", 0)
        assert t1 == pytest.approx(-t2)

    def test_significance_lines_render(self, small_result):
        lines = small_result.significance_lines()
        assert len(lines) == 1
        assert "EL1 vs ID" in lines[0]

    def test_missing_raw_raises(self, small_result):
        import dataclasses

        bare = dataclasses.replace(small_result, raw=None)
        with pytest.raises(ValueError):
            bare.welch_t("el1", "id", 0)
        assert "not kept" in bare.significance_lines()[0]


class TestSparseFigures:
    """The figure drivers on ``backend="sparse"``: every trial's metrics,
    and therefore every series, equal the scalar backend's."""

    def test_sparse_lifespan_figure_equals_scalar(self):
        life = dict(
            n_values=[10, 16], trials=3, schemes=["nd", "el2"],
            root_seed=41, parallel=False,
        )
        sparse = run_lifespan_figure("linear", backend="sparse", **life)
        scalar = run_lifespan_figure("linear", backend="scalar", **life)
        assert sparse.raw == scalar.raw
        assert sparse.series == scalar.series

    def test_sparse_figure10_equals_scalar(self):
        fig10 = dict(n_values=[8, 14], trials=3, root_seed=45, parallel=False)
        sparse = run_figure10(backend="sparse", **fig10)
        scalar = run_figure10(backend="scalar", **fig10)
        assert sparse.raw == scalar.raw
        assert sparse.series == scalar.series

    def test_memory_budget_threads_through_figures(self):
        kwargs = dict(
            n_values=[14], trials=2, schemes=["el2"],
            root_seed=47, parallel=False, backend="sparse",
        )
        tiny = run_lifespan_figure("linear", memory_budget_mb=0.01, **kwargs)
        default = run_lifespan_figure("linear", **kwargs)
        assert tiny.raw == default.raw
