"""Equivalence properties for the incremental sparse pipeline (ISSUE 10).

Random *move/churn sequences* — per-interval jitter of a random host
subset, teleports that split or merge components, and energy drain — are
replayed through three paths that must stay bit-identical at every
interval, for all five priority schemes:

1. :class:`repro.core.sparse_delta.IncrementalSparseCDSPipeline`
   (persistent CSR, dirty components — the path under test);
2. a fresh :func:`repro.core.sparse.compute_cds_sparse` call on the
   snapshot (the stateless full rebuild on the same engine);
3. the scalar oracle :func:`repro.core.cds.compute_cds`.

Both gateway masks and :class:`PruneStats` are compared, so the
component-granular stats aggregation (sums, rounds max, floor) is pinned
too, not just the marking outcome.  The slow Hansen–Schmutz check runs
the *incremental* path at N=10k under drain and asserts the CDS fraction
stays in the density-constant band — the ensemble-scale statistical
oracle for the dirty-component machinery.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cds import compute_cds
from repro.core.priority import SCHEMES
from repro.core.sparse import compute_cds_sparse
from repro.core.sparse_delta import IncrementalSparseCDSPipeline
from repro.graphs.generators import random_connected_network, scaled_side


@st.composite
def move_sequences(draw):
    """A geometric network + a per-interval script of moves and drains.

    Each interval is (jitter subset, teleport subset, drain?) — teleports
    relocate uniformly across the arena, the reliable way to split a
    component or merge two; jitter is paper-walk-sized.  Small arenas
    keep multi-component states common.
    """
    # feasible (n, side) pairs at radius 25: sparse enough that teleports
    # split components, dense enough that a connected seed placement exists
    n, side = draw(
        st.sampled_from(
            [(12, 60.0), (30, 60.0), (30, 90.0), (64, 90.0), (80, 140.0)]
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    intervals = []
    for _ in range(draw(st.integers(2, 5))):
        n_jitter = draw(st.integers(0, max(1, n // 4)))
        n_tp = draw(st.integers(0, 2))
        drains = draw(st.booleans())
        intervals.append((n_jitter, n_tp, drains))
    return n, side, seed, intervals


def _apply_interval(net, energy, mask, spec, rng):
    n_jitter, n_tp, drains = spec
    n = len(energy)
    if n_jitter:
        who = rng.choice(n, size=n_jitter, replace=False)
        step = rng.uniform(1.0, 6.0, size=(n_jitter, 1))
        theta = rng.uniform(0.0, 2 * np.pi, size=n_jitter)
        delta = step * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        net.positions[who] = np.clip(
            net.positions[who] + delta, 0.0, net.side
        )
        net.invalidate()
    for _ in range(n_tp):
        v = int(rng.integers(0, n))
        net.move_host(v, rng.uniform(0.0, net.side, size=2))
    if drains:
        for v in range(n):
            energy[v] -= 3.0 if (mask >> v) & 1 else 1.0


class TestIncrementalSparseEquivalence:
    @given(move_sequences(), st.sampled_from(sorted(SCHEMES)))
    @settings(max_examples=60, deadline=None)
    def test_three_way_bit_identity(self, payload, scheme_name):
        n, side, seed, intervals = payload
        rng = np.random.default_rng(seed)
        net = random_connected_network(n, side=side, radius=25.0, rng=rng)
        needs_energy = SCHEMES[scheme_name].needs_energy
        energy = [100.0] * n
        inc = IncrementalSparseCDSPipeline(scheme_name)
        mask = 0
        for spec in [(0, 0, False)] + intervals:
            _apply_interval(net, energy, mask, spec, rng)
            e = list(energy) if needs_energy else None
            got = inc.compute(net, energy=e)
            [stateless] = compute_cds_sparse(
                [list(net.adjacency)],
                scheme_name,
                energies=None if e is None else [e],
            )
            oracle = compute_cds(net.snapshot(), scheme_name, energy=e)
            assert got.gateway_mask == stateless.gateway_mask
            assert got.stats == stateless.stats
            assert got.gateway_mask == oracle.gateway_mask
            assert got.stats == oracle.stats
            mask = got.gateway_mask

    @given(move_sequences(), st.sampled_from(sorted(SCHEMES)))
    @settings(max_examples=15, deadline=None)
    def test_adjacency_fallback_bit_identity(self, payload, scheme_name):
        """The raw-rows input mode reuses components too; same identity."""
        n, side, seed, intervals = payload
        rng = np.random.default_rng(seed)
        net = random_connected_network(n, side=side, radius=25.0, rng=rng)
        needs_energy = SCHEMES[scheme_name].needs_energy
        energy = [100.0] * n
        inc = IncrementalSparseCDSPipeline(scheme_name)
        mask = 0
        for spec in [(0, 0, False)] + intervals:
            _apply_interval(net, energy, mask, spec, rng)
            e = list(energy) if needs_energy else None
            rows = [int(r) for r in net.adjacency]
            got = inc.compute(rows, energy=e)
            oracle = compute_cds(rows, scheme_name, energy=e)
            assert got.gateway_mask == oracle.gateway_mask
            assert got.stats == oracle.stats
            mask = got.gateway_mask


def _incremental_gateway_fraction(n: int, seeds) -> np.ndarray:
    """Per-topology CDS fraction from the *incremental* path under drain."""
    fractions = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        net = random_connected_network(
            n, side=scaled_side(n), radius=25.0, rng=rng
        )
        pipe = IncrementalSparseCDSPipeline("nd")
        pipe.compute(net)
        # warm steps with real movement: the fraction measured comes off
        # the dirty-component path, not the cold start
        for _ in range(2):
            who = rng.choice(n, size=max(1, n // 100), replace=False)
            for v in who:
                net.move_host(
                    int(v), rng.uniform(0.0, net.side, size=2)
                )
            res = pipe.compute(net)
        fractions.append(res.size / n)
    return np.array(fractions, dtype=np.float64)


@pytest.mark.slow
class TestHansenSchmutzIncremental:
    def test_cds_fraction_density_constant_at_10k(self):
        small = _incremental_gateway_fraction(1000, seeds=range(5))
        big = _incremental_gateway_fraction(10_000, seeds=range(100, 103))
        assert abs(float(big.mean()) - float(small.mean())) < 0.04
        assert float(big.std()) / float(big.mean()) < 0.05
        assert 0.1 < float(big.mean()) < 0.6
