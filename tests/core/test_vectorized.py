"""Equivalence and tail-word tests for the batched vectorized CDS engine.

Every test pins the batch engine against the scalar oracle
(:func:`repro.core.cds.compute_cds` / ``compute_cds_rule_k``) — masks AND
:class:`PruneStats` must be bit-identical.  The n grid deliberately
straddles the uint64 word boundary (63/64/65/127/128) so stray tail bits
in any packed path would surface as a mask mismatch.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.cds import compute_cds
from repro.core.pipeline import check_result
from repro.core.priority import SCHEMES
from repro.core.rule_k import compute_cds_rule_k
from repro.core.vectorized import (
    BatchCDSEngine,
    compute_cds_batch,
    compute_cds_rule_k_batch,
    flags_to_masks,
    pack_adjacency,
    pack_batch,
    pack_rows,
    pair_index_arrays,
    popcount_rows,
    tail_mask,
    words_for,
)
from repro.errors import ConfigurationError, InvariantViolation
from repro.graphs.generators import (
    clique,
    path_graph,
    random_gnp_connected,
    star_graph,
)

WORD_BOUNDARY_NS = [63, 64, 65, 127, 128]


def rand_adj(n: int, p: float, rng: random.Random) -> list[int]:
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def assert_batch_matches_scalar(batch, scheme, energies=None, fixed_point=False):
    res = compute_cds_batch(
        batch, scheme, energies, fixed_point=fixed_point
    )
    for b, adj in enumerate(batch):
        e = energies[b] if energies is not None else None
        want = compute_cds(adj, scheme, energy=e, fixed_point=fixed_point)
        assert res[b].gateway_mask == want.gateway_mask, (scheme, b)
        assert res[b].stats == want.stats, (scheme, b)


class TestPackedTailWords:
    @pytest.mark.parametrize("n", WORD_BOUNDARY_NS)
    def test_pack_rows_strips_stray_high_bits(self, n):
        # rows polluted above bit n-1 must come back tail-clean
        W = words_for(n)
        dirty = [((1 << (W * 64)) - 1) for _ in range(n)]
        packed = pack_rows(dirty, W, n)
        assert int(packed[0, -1]) == int(tail_mask(n))
        # popcounts see exactly n bits per row, never the padding
        assert popcount_rows(packed).tolist() == [n] * n

    def test_tail_mask_values(self):
        assert int(tail_mask(64)) == (1 << 64) - 1
        assert int(tail_mask(63)) == (1 << 63) - 1
        assert int(tail_mask(65)) == 1
        assert int(tail_mask(1)) == 1

    @pytest.mark.parametrize("n", WORD_BOUNDARY_NS)
    def test_equivalence_at_word_boundaries(self, n):
        rng = random.Random(n)
        batch = [rand_adj(n, 0.12, rng) for _ in range(3)]
        energies = [[rng.uniform(1.0, 100.0) for _ in range(n)] for _ in batch]
        for scheme in sorted(SCHEMES):
            assert_batch_matches_scalar(batch, scheme, energies)


class TestBatchEquivalence:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("fixed_point", [False, True])
    def test_mixed_density_batch(self, scheme, fixed_point):
        rng = random.Random(7)
        n = 40
        batch = [rand_adj(n, p, rng) for p in (0.05, 0.2, 0.5, 0.9)]
        energies = [[rng.uniform(1.0, 100.0) for _ in range(n)] for _ in batch]
        assert_batch_matches_scalar(
            batch, scheme, energies, fixed_point=fixed_point
        )

    def test_structured_graphs(self):
        for view in (
            path_graph(65),
            clique(64),
            star_graph(33),
            random_gnp_connected(70, 0.1, rng=3),
        ):
            assert_batch_matches_scalar([list(view.adjacency)], "nd")

    def test_degenerate_inputs(self):
        assert compute_cds_batch([], "id") == []
        res = compute_cds_batch([[0] * 9], "id")
        assert res[0].gateway_mask == 0
        # n == 0 element: rounds bookkeeping matches prune() (1 with rules)
        res = compute_cds_batch([[]], "nd")
        assert res[0].gateway_mask == 0
        assert res[0].stats.rounds == 1
        res = compute_cds_batch([[]], "nr")
        assert res[0].stats.rounds == 0

    def test_inhomogeneous_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            pack_batch([[0, 0], [0, 0, 0]])

    def test_el_scheme_requires_energy(self):
        with pytest.raises(ConfigurationError):
            compute_cds_batch([[2, 1]], "el1")

    def test_energy_shape_validated(self):
        with pytest.raises(ConfigurationError):
            compute_cds_batch([[2, 1]], "el1", [[1.0, 2.0, 3.0]])

    def test_run_rejects_bad_shapes(self):
        eng = BatchCDSEngine("id")
        with pytest.raises(ConfigurationError):
            eng.run(np.zeros((2, 3), dtype=np.uint64))
        with pytest.raises(ConfigurationError):
            eng.run(np.zeros((1, 65, 1), dtype=np.uint64))


class TestRuleKBatch:
    @pytest.mark.parametrize("n", [17, 63, 65])
    def test_matches_scalar_rule_k(self, n):
        rng = random.Random(n * 31)
        batch = [rand_adj(n, 0.15, rng) for _ in range(3)]
        energies = [[rng.uniform(1.0, 100.0) for _ in range(n)] for _ in batch]
        for scheme in sorted(SCHEMES):
            got = compute_cds_rule_k_batch(batch, scheme, energies)
            for b, adj in enumerate(batch):
                want = compute_cds_rule_k(adj, scheme, energy=energies[b])
                assert got[b] == want, (scheme, b)

    def test_empty(self):
        assert compute_cds_rule_k_batch([], "id") == []
        assert compute_cds_rule_k_batch([[]], "id") == [frozenset()]


class TestVectorizedPipeline:
    """The dense engine at batch width 1 plus the shared result check:
    what one per-interval call on the dense kernels amounts to."""

    def test_pipeline_matches_scratch_with_shadow_and_verify(self):
        view = random_gnp_connected(65, 0.08, rng=11)
        [got] = compute_cds_batch([view], "nd", verify=True)
        check_result(
            got, list(view.adjacency), None, scheme=SCHEMES["nd"],
            verify=True, shadow_check=True,
        )
        want = compute_cds(view, "nd")
        assert got.gateway_mask == want.gateway_mask
        assert got.stats == want.stats

    def test_shadow_check_catches_divergence(self, monkeypatch):
        # corrupting the engine output must trip the shadow oracle
        view = random_gnp_connected(30, 0.2, rng=5)
        real_run = BatchCDSEngine.run

        def bad_run(self, packed, energy=None):
            flags, stats = real_run(self, packed, energy)
            flags = flags.copy()
            flags[0, 0] = ~flags[0, 0]
            return flags, stats

        monkeypatch.setattr(BatchCDSEngine, "run", bad_run)
        [got] = compute_cds_batch([view], "id")
        with pytest.raises(InvariantViolation, match="diverged"):
            check_result(
                got, list(view.adjacency), None, scheme=SCHEMES["id"],
                shadow_check=True,
            )


class TestHelpers:
    def test_pair_index_arrays_enumerates_all_pairs(self):
        counts = np.array([0, 1, 2, 3, 5])
        i, j = pair_index_arrays(counts)
        assert len(i) == 0 + 0 + 1 + 3 + 10
        # per-group pairs are exactly {(a,b): a<b<c}
        off = 0
        for c in counts:
            k = c * (c - 1) // 2
            got = {(int(a), int(b)) for a, b in zip(i[off:off + k], j[off:off + k])}
            want = {(a, b) for b in range(c) for a in range(b)}
            assert got == want
            off += k

    def test_flags_to_masks_roundtrip(self):
        flags = np.zeros((2, 70), dtype=bool)
        flags[0, 0] = flags[0, 69] = flags[1, 64] = True
        masks = flags_to_masks(flags)
        assert masks == [(1 << 0) | (1 << 69), 1 << 64]

    def test_pack_adjacency_matches_pack_batch(self):
        adj = [2, 1, 0]
        assert np.array_equal(pack_adjacency(adj), pack_batch([adj])[0])
