"""The per-interval pipeline contract (:mod:`repro.core.pipeline`).

Three things are pinned here: the factory's backend rules (every choice
is a pipeline), that a bad energy vector raises the same typed error on
every execution path, and that negative levels are valid on every path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cds import ScratchPipeline, compute_cds
from repro.core.delta import INCREMENTAL_MIN_HOSTS, DeltaCDSPipeline
from repro.core.pipeline import make_pipeline
from repro.core.registry import ALGORITHMS, AlgorithmPipeline
from repro.core.sparse import compute_cds_sparse
from repro.core.sparse_delta import IncrementalSparseCDSPipeline
from repro.core.vectorized import compute_cds_batch
from repro.errors import ConfigurationError
from repro.graphs.generators import random_connected_network

N = 30


class TestFactory:
    def test_backend_rules(self):
        small, large = INCREMENTAL_MIN_HOSTS - 1, INCREMENTAL_MIN_HOSTS
        assert isinstance(
            make_pipeline("wu_li", "scalar", "id", n_hosts=small),
            ScratchPipeline,
        )
        assert isinstance(
            make_pipeline("wu_li", "scalar", "id", n_hosts=large),
            DeltaCDSPipeline,
        )
        # shadow checking needs a pipeline to check
        assert isinstance(
            make_pipeline(
                "wu_li", "scalar", "id", n_hosts=small, shadow_check=True
            ),
            DeltaCDSPipeline,
        )
        assert isinstance(
            make_pipeline("wu_li", "delta", "id", n_hosts=small),
            DeltaCDSPipeline,
        )
        assert isinstance(
            make_pipeline("wu_li", "sparse", "id", n_hosts=small),
            IncrementalSparseCDSPipeline,
        )
        for backend in ("scalar", "delta", "sparse"):
            assert isinstance(
                make_pipeline("mis_cds", backend, "id", n_hosts=large),
                AlgorithmPipeline,
            )

    @pytest.mark.parametrize("shadow_check", [False, True])
    @pytest.mark.parametrize(
        "n_hosts", [INCREMENTAL_MIN_HOSTS - 1, INCREMENTAL_MIN_HOSTS, None]
    )
    @pytest.mark.parametrize("backend", ["scalar", "delta", "sparse"])
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_choice_is_a_pipeline(
        self, net, algorithm, backend, n_hosts, shadow_check
    ):
        pipe = make_pipeline(
            algorithm, backend, "el2", n_hosts=n_hosts,
            shadow_check=shadow_check,
        )
        energy = np.linspace(50.0, 100.0, N)
        want = ALGORITHMS[algorithm].compute(net, "el2", energy)
        assert pipe.compute(net, energy).gateway_mask == want.gateway_mask

    def test_settings_reach_the_pipeline(self):
        pipe = make_pipeline(
            "wu_li", "sparse", "el2", fixed_point=True, verify=True,
            shadow_check=True, memory_budget_mb=3.0,
        )
        assert pipe.scheme.name == "el2"
        assert pipe.fixed_point and pipe.verify and pipe.shadow_check
        assert pipe.engine.memory_budget_mb == 3.0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make_pipeline("wu_li", "simd", "id")


@pytest.fixture(scope="module")
def net():
    return random_connected_network(N, side=80.0, radius=25.0, rng=17)


def _scalar(net, energy):
    return compute_cds(net, "el1", energy=energy)


def _delta(net, energy):
    return DeltaCDSPipeline("el1").compute(net, energy=energy)


def _sparse(net, energy):
    return IncrementalSparseCDSPipeline("el1").compute(net, energy=energy)


def _registry(net, energy):
    return ALGORITHMS["wu_li"].compute(net, "el1", energy)


def _sparse_batch(net, energy):
    energies = None if energy is None else [energy]
    return compute_cds_sparse([net], "el1", energies=energies)


def _dense_batch(net, energy):
    energies = None if energy is None else [energy]
    return compute_cds_batch([net], "el1", energies=energies)


def _bad(kind: str):
    energy = np.full(N, 100.0)
    if kind == "short":
        return energy[:-1]
    if kind == "missing":
        return None
    energy[3] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    return energy


class TestBadEnergy:
    @pytest.mark.parametrize(
        "path",
        [_scalar, _delta, _sparse, _registry, _sparse_batch, _dense_batch],
        ids=["scalar", "delta", "sparse", "registry", "sparse_batch",
             "dense_batch"],
    )
    @pytest.mark.parametrize(
        "kind", ["nan", "inf", "-inf", "short", "missing"]
    )
    def test_same_typed_error_on_every_path(self, net, path, kind):
        with pytest.raises(ConfigurationError, match="energ"):
            path(net, _bad(kind))

    def test_good_energy_accepted_everywhere(self, net):
        energy = np.linspace(50.0, 100.0, N)
        want = _scalar(net, energy)
        for path in (_delta, _sparse, _registry):
            assert path(net, energy).gateway_mask == want.gateway_mask
        for path in (_sparse_batch, _dense_batch):
            assert path(net, energy)[0].gateway_mask == want.gateway_mask


class TestNegativeEnergy:
    """Negative levels are valid: a service ``Drain`` can overdraw a battery."""

    @pytest.mark.parametrize("scheme", ["el1", "el2", "id", "nd"])
    @pytest.mark.parametrize(
        "backend,n_hosts",
        [("scalar", INCREMENTAL_MIN_HOSTS - 1), ("delta", None),
         ("sparse", None)],
        ids=["scratch", "delta", "sparse"],
    )
    def test_every_source_matches_scratch(self, backend, n_hosts, scheme):
        rng = np.random.default_rng(5)
        pipe = make_pipeline("wu_li", backend, scheme, n_hosts=n_hosts)
        for seed in range(6):
            net = random_connected_network(40, side=70.0, radius=25.0, rng=seed)
            energy = rng.uniform(-5.0, 5.0, net.n)
            energy[rng.choice(net.n, 8, replace=False)] = -0.0
            want = compute_cds(net, scheme, energy=energy)
            got = pipe.compute(net, energy)
            assert got.gateway_mask == want.gateway_mask
            assert got.stats == want.stats
