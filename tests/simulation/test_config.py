"""SimulationConfig validation tests."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.simulation.config import SimulationConfig


class TestDefaults:
    def test_paper_parameters(self):
        cfg = SimulationConfig()
        assert cfg.side == 100.0
        assert cfg.radius == 25.0
        assert cfg.initial_energy == 100.0
        assert cfg.stability == 0.5
        assert (cfg.min_step, cfg.max_step) == (1.0, 6.0)
        assert cfg.non_gateway_drain == 1.0

    def test_paper_defaults_helper(self):
        cfg = SimulationConfig.paper_defaults(42, "el1", "linear")
        assert (cfg.n_hosts, cfg.scheme, cfg.drain_model) == (42, "el1", "linear")


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_hosts": 0},
            {"side": -1.0},
            {"radius": -2.0},
            {"initial_energy": 0.0},
            {"stability": 1.5},
            {"min_step": 5.0, "max_step": 2.0},
            {"boundary": "bounce"},
            {"on_disconnect": "explode"},
            {"max_intervals": 0},
            {"non_gateway_drain": -1.0},
            {"scheme": "unknown"},
            {"drain_model": "unknown"},
            {"algorithm": "unknown"},
            {"backend": "gpu"},
            {"algorithm": "greedy_mcds", "backend": "sparse"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(Exception) as exc:
            SimulationConfig(**kwargs)
        # scheme/drain names raise their registries' error types; everything
        # else is a ConfigurationError — all are ValueErrors
        assert isinstance(exc.value, ValueError)

    def test_none_max_intervals_allowed(self):
        assert SimulationConfig(max_intervals=None).max_intervals is None

    def test_error_messages_enumerate_registries(self):
        """Validation errors list the valid names from the live registries
        instead of hardcoding them (so new entries appear automatically)."""
        from repro.core.priority import SCHEMES
        from repro.core.registry import ALGORITHMS, EXECUTION_BACKENDS

        with pytest.raises(ConfigurationError) as exc:
            SimulationConfig(scheme="bogus")
        for name in SCHEMES:
            assert name in str(exc.value)

        with pytest.raises(ConfigurationError) as exc:
            SimulationConfig(backend="bogus")
        for name in EXECUTION_BACKENDS:
            assert name in str(exc.value)

        with pytest.raises(ConfigurationError) as exc:
            SimulationConfig(algorithm="bogus")
        for name in ALGORITHMS:
            assert name in str(exc.value)

    def test_sparse_requires_capable_algorithm(self):
        with pytest.raises(ConfigurationError, match="no sparse backend"):
            SimulationConfig(algorithm="mis_cds", backend="sparse")
        with pytest.raises(ConfigurationError, match="no delta backend"):
            SimulationConfig(algorithm="mis_cds", backend="delta")
        # wu_li has the flags, so the combinations are legal
        cfg = SimulationConfig(algorithm="wu_li", backend="sparse")
        assert cfg.backend == "sparse"

    def test_all_registered_algorithms_accepted(self):
        from repro.core.registry import algorithm_names

        for name in algorithm_names():
            assert SimulationConfig(algorithm=name).algorithm == name


class TestOverrides:
    def test_with_overrides_returns_new_object(self):
        base = SimulationConfig()
        mod = base.with_overrides(n_hosts=7, scheme="nd")
        assert mod.n_hosts == 7 and mod.scheme == "nd"
        assert base.n_hosts == 50 and base.scheme == "id"

    def test_overrides_are_validated(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig().with_overrides(stability=-1.0)
