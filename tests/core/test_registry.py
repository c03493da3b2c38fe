"""The CDS algorithm registry: catalog, bit-identity pin, new constructions.

The load-bearing test here is the regression pin: routing Wu–Li through
the registry must be *bit-identical* — gateway mask and PruneStats — to
calling ``compute_cds`` directly, across all five schemes and the
scalar scratch path, the delta pipeline and the dense batch kernels.
The refactor adds a dispatch layer; it must not add a behavior.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cds import compute_cds
from repro.core.delta import DeltaCDSPipeline
from repro.core.priority import PAPER_SERIES_ORDER
from repro.core.properties import verify_cds
from repro.core.registry import (
    ALGORITHMS,
    AlgorithmPipeline,
    EXECUTION_BACKENDS,
    algorithm_by_name,
    algorithm_names,
    register_algorithm,
)
from repro.core.vectorized import compute_cds_batch
from repro.errors import ConfigurationError
from repro.graphs import bitset
from repro.graphs.generators import (
    clique,
    from_edges,
    path_graph,
    random_connected_network,
)


def _nets(count=4, lo=10, hi=60):
    rng = np.random.default_rng(1234)
    for i in range(count):
        n = int(rng.integers(lo, hi))
        net = random_connected_network(n, side=80, radius=25, rng=2000 + i)
        energy = list(rng.uniform(50.0, 150.0, size=n))
        yield net, energy


class TestCatalog:
    def test_at_least_eight_algorithms(self):
        assert len(ALGORITHMS) >= 8
        for required in (
            "wu_li", "greedy_mcds", "pieces_mcds", "mis_cds",
            "connected_greedy", "energy_greedy", "aneja_2conn", "zhou_mwcds",
        ):
            assert required in ALGORITHMS

    def test_capability_flags(self):
        wu = ALGORITHMS["wu_li"]
        assert wu.supports_delta and wu.supports_sparse and wu.uses_scheme
        assert ALGORITHMS["aneja_2conn"].connectivity == 2
        assert ALGORITHMS["zhou_mwcds"].uses_energy
        for name, algo in ALGORITHMS.items():
            assert algo.name == name
            assert algo.description
            if name != "wu_li":
                assert not algo.supports_delta
                assert not algo.supports_sparse

    def test_execution_backends_are_not_algorithms(self):
        assert set(EXECUTION_BACKENDS) == {"scalar", "delta", "sparse"}
        assert not set(EXECUTION_BACKENDS) & set(ALGORITHMS)

    def test_lookup_and_names(self):
        assert algorithm_names() == sorted(ALGORITHMS)
        assert algorithm_by_name("WU_LI") is ALGORITHMS["wu_li"]
        assert algorithm_by_name(ALGORITHMS["mis_cds"]) is ALGORITHMS["mis_cds"]

    def test_unknown_name_lists_catalog(self):
        with pytest.raises(ConfigurationError) as exc:
            algorithm_by_name("dijkstra")
        for name in ALGORITHMS:
            assert name in str(exc.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_algorithm(name="wu_li")(lambda a, s, e, f: (0, None))


class TestWuLiBitIdentity:
    """Wu–Li via the registry ≡ pre-refactor compute_cds, all backends."""

    @pytest.mark.parametrize("scheme", PAPER_SERIES_ORDER)
    @pytest.mark.parametrize("fixed_point", [False, True])
    def test_scalar_mask_and_stats(self, scheme, fixed_point):
        algo = ALGORITHMS["wu_li"]
        for net, energy in _nets():
            ref = compute_cds(
                net, scheme, energy=energy, fixed_point=fixed_point
            )
            got = algo.compute(
                net, scheme, energy, fixed_point=fixed_point, verify=True
            )
            assert got.gateway_mask == ref.gateway_mask
            assert got.stats == ref.stats
            assert got.scheme == ref.scheme and got.n == ref.n

    @pytest.mark.parametrize("scheme", PAPER_SERIES_ORDER)
    def test_delta_backend_matches(self, scheme):
        algo = ALGORITHMS["wu_li"]
        for net, energy in _nets(count=3):
            ref = algo.compute(net, scheme, energy)
            pipe = DeltaCDSPipeline(scheme)
            got = pipe.compute(list(net.adjacency), energy)
            assert got.gateway_mask == ref.gateway_mask

    @pytest.mark.parametrize("scheme", PAPER_SERIES_ORDER)
    def test_vectorized_backend_matches(self, scheme):
        """The dense batch engine, one element per call."""
        algo = ALGORITHMS["wu_li"]
        for net, energy in _nets(count=3):
            ref = algo.compute(net, scheme, energy)
            [got] = compute_cds_batch([net], scheme, energies=[energy])
            assert got.gateway_mask == ref.gateway_mask
            assert got.stats == ref.stats


class TestAllAlgorithmsShareInvariants:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_verify_on_random_geometric(self, name):
        algo = ALGORITHMS[name]
        for net, energy in _nets(count=3):
            # verify=True raises InvariantViolation on any failure
            result = algo.compute(net, "el2", energy, verify=True)
            assert result.n == net.n
            assert result.gateway_mask >> net.n == 0

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_disconnected_components_each_dominated(self, name):
        # two triangles + a pendant pair + an isolated node
        g = from_edges(
            9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)]
        )
        result = ALGORITHMS[name].compute(g, "nd", None, verify=True)
        # no gateway may land in the <=2-host fragments
        assert result.gateway_mask & bitset.mask_from_ids([6, 7, 8]) == 0


class TestAlgorithmPipeline:
    def test_duck_types_delta_pipeline(self):
        pipe = AlgorithmPipeline("greedy_mcds", "id")
        net, energy = next(_nets(count=1))
        direct = ALGORITHMS["greedy_mcds"].compute(net, "id", energy)
        via = pipe.compute(net, energy)
        assert via.gateway_mask == direct.gateway_mask
        pipe.reset()  # stateless; must not raise
        assert pipe.compute(net, energy).gateway_mask == direct.gateway_mask


class TestAnejaTwoConnected:
    def test_survives_any_single_non_cut_gateway_loss(self):
        from repro.baselines.two_connected import non_cut_vertices, survives_loss

        for net, energy in _nets(count=4, lo=8, hi=40):
            adj = list(net.adjacency)
            mask = ALGORITHMS["aneja_2conn"].compute(net, "id", energy).gateway_mask
            ncv = non_cut_vertices(adj)
            for g in bitset.iter_bits(mask & ncv):
                assert survives_loss(adj, mask, g), (
                    f"backbone dies with gateway {g}"
                )

    def test_outside_hosts_get_two_dominators(self):
        for net, energy in _nets(count=3, lo=8, hi=40):
            adj = list(net.adjacency)
            mask = ALGORITHMS["aneja_2conn"].compute(net, "id", energy).gateway_mask
            for v in range(net.n):
                if mask >> v & 1:
                    continue
                want = min(2, bitset.popcount(adj[v]))
                assert bitset.popcount(adj[v] & mask) >= want

    def test_degenerate_pair_keeps_both(self):
        assert ALGORITHMS["aneja_2conn"].compute(
            [0b10, 0b01], "id", None
        ).gateway_mask == 0b11


class TestZhouWeighted:
    def test_prefers_fresh_batteries(self):
        # star-of-stars: centers 0 and 1 both dominate everything, but 0
        # is nearly drained — the weighted greedy must pick 1
        g = from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                           (1, 2), (1, 3), (1, 4), (1, 5)])
        energy = [1.0, 100.0, 50.0, 50.0, 50.0, 50.0]
        mask = ALGORITHMS["zhou_mwcds"].compute(g, "el1", energy).gateway_mask
        assert mask >> 1 & 1 == 1
        assert mask >> 0 & 1 == 0

    def test_multi_domination_m2(self):
        from repro.baselines.weighted_mcds import zhou_min_weight_cds

        for net, energy in _nets(count=3, lo=8, hi=30):
            adj = list(net.adjacency)
            mask = zhou_min_weight_cds(adj, energy, m=2)
            verify_cds(adj, mask, context="zhou m=2")
            for v in range(net.n):
                if mask >> v & 1:
                    continue
                want = min(2, bitset.popcount(adj[v]))
                assert bitset.popcount(adj[v] & mask) >= want

    def test_uniform_weights_without_energy(self):
        g = path_graph(7)
        result = ALGORITHMS["zhou_mwcds"].compute(g, "id", None)
        verify_cds(list(g.adjacency), result.gateway_mask, context="zhou uniform")


class TestTrivialTopologies:
    """Cliques and tiny graphs: marking legitimately returns empty; the
    greedy family returns a small non-empty set.  Both verify."""

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_clique_and_tiny(self, name):
        algo = ALGORITHMS[name]
        for g in ([], [0], [0b10, 0b01], clique(5)):
            result = algo.compute(g, "id", None, verify=True)
            assert result.gateway_mask >> result.n == 0
