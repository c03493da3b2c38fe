"""Sparse streaming CDS engine: oracle suite (ISSUE 9).

The contract is total bit-identity with the scalar oracle
:func:`repro.core.cds.compute_cds` — gateway masks AND
:class:`~repro.core.reduction.PruneStats` — across every scheme, both
rule modes, both execution tiers (dense per-component sub-batches and
the streamed CSR kernels), any chunk budget, and topologies the dense
engines never see: disconnected multi-component fields at word-boundary
sizes.  The hypothesis twin lives in
``tests/property/test_sparse_properties.py``; this file pins the named
corners.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cds import compute_cds
from repro.core.priority import PAPER_SERIES_ORDER
from repro.core.sparse import (
    CSRBatch,
    SparseCDSEngine,
    compute_cds_sparse,
    connected_labels,
)
from repro.core.sparse_delta import IncrementalSparseCDSPipeline
from repro.core.vectorized import (
    compute_cds_batch,
    edge_table,
    pack_batch,
)
from repro.errors import ConfigurationError, InvariantViolation
from repro.graphs.adhoc import AdHocNetwork
from repro.graphs.generators import (
    clique,
    from_edges,
    path_graph,
    random_connected_network,
    scaled_side,
    star_graph,
)

RADIUS = 25.0


def _scattered(n: int, seed: int, spread: float = 2.0):
    """A usually-disconnected uniform field (components are the point)."""
    side = spread * scaled_side(n)
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, side, size=(n, 2))
    return AdHocNetwork(pos, RADIUS, side=side)


def _energies(n: int, b: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(50.0, 150.0, size=(b, n))


def _assert_matches_oracle(adjacencies, energies, **sparse_kwargs):
    for scheme in PAPER_SERIES_ORDER:
        for fixed_point in (False, True):
            got = compute_cds_sparse(
                adjacencies, scheme, energies=energies,
                fixed_point=fixed_point, **sparse_kwargs,
            )
            for b, adj in enumerate(adjacencies):
                want = compute_cds(
                    adj, scheme, energy=list(energies[b]),
                    fixed_point=fixed_point,
                )
                assert got[b].gateway_mask == want.gateway_mask, (
                    f"scheme={scheme} fp={fixed_point} b={b}"
                )
                assert got[b].stats == want.stats, (
                    f"scheme={scheme} fp={fixed_point} b={b}"
                )


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128])
    def test_word_boundaries_connected(self, n):
        net = random_connected_network(
            n, side=scaled_side(n), radius=RADIUS, rng=1000 + n
        )
        _assert_matches_oracle([list(net.adjacency)], _energies(n, 1, n))

    @pytest.mark.parametrize("n", [64, 130])
    def test_disconnected_fields(self, n):
        adj = [list(_scattered(n, 2000 + n).adjacency)]
        _assert_matches_oracle(adj, _energies(n, 1, n))

    @pytest.mark.parametrize("dense_cutoff", [0, 2, 8, 10**6])
    def test_tier_forcing(self, dense_cutoff):
        # cutoff 0/2 pushes every component >2 through the streamed CSR
        # kernels; 10**6 forces the dense sub-batch tier; 8 mixes tiers
        # within one batch
        n = 90
        adj = [list(_scattered(n, 31).adjacency)]
        _assert_matches_oracle(
            adj, _energies(n, 1, 7), dense_cutoff=dense_cutoff
        )

    def test_multi_element_batch(self):
        n = 70
        adj = [
            list(_scattered(n, 40 + k, spread=1.0 + 0.7 * k).adjacency)
            for k in range(3)
        ]
        _assert_matches_oracle(adj, _energies(n, 3, 5))

    def test_named_small_topologies(self):
        for g in (path_graph(7), star_graph(6), clique(5),
                  from_edges(9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                 (3, 5), (6, 7)])):
            adj = [list(g.adjacency)]
            _assert_matches_oracle(adj, _energies(g.n, 1, g.n))

    def test_degenerate_inputs(self):
        assert compute_cds_sparse([], "id") == []
        for adj in ([0], [0b10, 0b01], [0, 0, 0]):
            _assert_matches_oracle([adj], _energies(len(adj), 1, 3))

    def test_tiny_budget_bit_identity(self):
        n = 80
        adj = [list(_scattered(n, 55).adjacency)]
        _assert_matches_oracle(
            adj, _energies(n, 1, 9), memory_budget_mb=0.001
        )

    def test_guard_against_key_overflow(self):
        # B*n*n must stay under 2**62 for the flat searchsorted keys
        with pytest.raises(ConfigurationError, match="overflow int64"):
            SparseCDSEngine("id").run(
                CSRBatch(
                    np.zeros(2, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                    1, 2**31 + 1,
                ),
                None,
            )


class TestCSRBatch:
    def test_from_adjacency_matches_edge_table(self):
        n = 50
        net = _scattered(n, 77)
        adj = [list(net.adjacency)]
        csr = CSRBatch.from_adjacency(adj)
        packed = pack_batch(adj)
        rows = packed.reshape(-1, packed.shape[-1])
        src, dst, _ = edge_table(rows, n)
        assert np.array_equal(csr.dst, dst)
        assert np.array_equal(np.repeat(np.arange(n), np.diff(csr.indptr)), src)
        assert csr.nnz == len(dst)

    @pytest.mark.parametrize("n", [1, 17, 300])
    def test_from_positions_matches_adjacency(self, n):
        net = _scattered(n, 88 + n, spread=1.5)
        a = CSRBatch.from_positions(net.positions, RADIUS)
        b = CSRBatch.from_adjacency([list(net.adjacency)])
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.dst, b.dst)

    def test_from_positions_tiny_budget_identical(self):
        net = _scattered(200, 91)
        a = CSRBatch.from_positions(net.positions, RADIUS)
        b = CSRBatch.from_positions(
            net.positions, RADIUS, memory_budget_mb=0.001
        )
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.dst, b.dst)

    def test_empty(self):
        csr = CSRBatch.from_positions(np.empty((0, 2)), RADIUS)
        assert csr.n == 0 and csr.nnz == 0


def _flat_labels(csr: CSRBatch) -> np.ndarray:
    # connected_labels works on FLAT destination rows (eDf), which is
    # what keeps batch elements separate; mirror the engine's prep
    deg = np.diff(csr.indptr)
    eS = np.repeat(np.arange(csr.B * csr.n, dtype=np.int64), deg)
    eDf = eS - eS % csr.n + csr.dst
    return connected_labels(csr.indptr, eDf)


class TestConnectedLabels:
    def test_two_triangles_and_isolates(self):
        g = from_edges(
            9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)]
        )
        labels = _flat_labels(CSRBatch.from_adjacency([list(g.adjacency)]))
        assert labels[0] == labels[1] == labels[2] == 0
        assert labels[3] == labels[4] == labels[5] == 3
        assert labels[6] == labels[7] == 6
        assert labels[8] == 8

    def test_path_is_one_component(self):
        g = path_graph(200)
        labels = _flat_labels(CSRBatch.from_adjacency([list(g.adjacency)]))
        assert len(set(labels.tolist())) == 1

    def test_batch_elements_stay_separate(self):
        g = clique(5)
        labels = _flat_labels(CSRBatch.from_adjacency([list(g.adjacency)] * 2))
        assert set(labels[:5].tolist()) == {0}
        assert set(labels[5:].tolist()) == {5}


class TestSparsePipeline:
    """The ``backend="sparse"`` pipeline (the incremental CSR pipeline)."""

    def test_matches_vectorized_pipeline(self):
        net = random_connected_network(40, side=80, radius=25, rng=5)
        energy = list(np.random.default_rng(5).uniform(50, 150, size=40))
        a = IncrementalSparseCDSPipeline("el2").compute(net, energy=energy)
        [b] = compute_cds_batch([net], "el2", energies=[energy])
        assert a.gateway_mask == b.gateway_mask
        assert a.stats == b.stats

    def test_shadow_check_clean(self):
        net = random_connected_network(30, side=80, radius=25, rng=6)
        pipe = IncrementalSparseCDSPipeline("nd", shadow_check=True)
        assert pipe.compute(net).gateway_mask

    def test_verify_raises_on_corrupt_engine(self, monkeypatch):
        net = random_connected_network(30, side=80, radius=25, rng=7)
        pipe = IncrementalSparseCDSPipeline("nd", verify=True)
        real = pipe.engine.run_detailed

        def corrupt(csr, energy=None):
            d = real(csr, energy)
            d.flags[:] = ~d.flags  # flip every gateway bit
            return d

        monkeypatch.setattr(pipe.engine, "run_detailed", corrupt)
        with pytest.raises(InvariantViolation):
            pipe.compute(net)
