"""Tests for the contraction planner/executor and the hot-path bugfix sweep.

Covers the plan cache (hit/miss accounting, DMRG integration), the
equivalence of the planned/batched GEMM path with the naive Algorithm-2
block-pair loop across random index structures, and regression tests for the
dtype/truncation fixes that rode along with the planner PR.
"""

import numpy as np
import pytest

from repro.backends import DirectBackend
from repro.dmrg import DMRGConfig, Sweeps, dmrg
from repro.dmrg.davidson import _randomize_like
from repro.models import heisenberg_chain_model
from repro.mps import MPS, build_mpo
from repro.symmetry import (BlockSparseTensor, Index, PlanCache, build_plan,
                            contract_planned, execute_plan, svd,
                            tensor_signature)


# --------------------------------------------------------------------------- #
# random contraction instances
# --------------------------------------------------------------------------- #
def _random_index(rng: np.random.Generator, max_sectors: int = 3,
                  max_dim: int = 3) -> Index:
    ns = int(rng.integers(1, max_sectors + 1))
    sectors = [(int(q),) for q in rng.integers(-2, 3, size=ns)]
    dims = [int(d) for d in rng.integers(1, max_dim + 1, size=ns)]
    flow = 1 if rng.random() < 0.5 else -1
    return Index(sectors, dims, flow=flow)


def _random_case(rng: np.random.Generator):
    """A random contractable (a, b, axes) triple with shuffled mode order."""
    n_contr = int(rng.integers(1, 3))
    contr = [_random_index(rng) for _ in range(n_contr)]
    a_free = [_random_index(rng) for _ in range(int(rng.integers(1, 3)))]
    b_free = [_random_index(rng) for _ in range(int(rng.integers(1, 3)))]
    a_modes = a_free + contr
    b_modes = [ix.dual() for ix in contr] + b_free
    perm_a = list(rng.permutation(len(a_modes)))
    perm_b = list(rng.permutation(len(b_modes)))
    a = BlockSparseTensor.random([a_modes[p] for p in perm_a], flux=(0,),
                                 rng=rng)
    b = BlockSparseTensor.random([b_modes[p] for p in perm_b], flux=(0,),
                                 rng=rng)
    axes_a = [perm_a.index(len(a_free) + i) for i in range(n_contr)]
    axes_b = [perm_b.index(i) for i in range(n_contr)]
    return a, b, (axes_a, axes_b)


class TestPlannedContraction:
    def test_matches_naive_across_random_structures(self):
        """Property test: planner == Algorithm 2 over random index structures."""
        rng = np.random.default_rng(42)
        cache = PlanCache()
        checked = 0
        for _ in range(40):
            a, b, axes = _random_case(rng)
            ref = a.contract(b, axes)
            out = contract_planned(a, b, axes, cache=cache)
            assert np.allclose(out.to_dense(), ref.to_dense(), atol=1e-12)
            # a second execution must come from the cache and agree too
            hits0 = cache.hits
            again = contract_planned(a, b, axes, cache=cache)
            assert cache.hits == hits0 + 1
            assert np.allclose(again.to_dense(), ref.to_dense(), atol=1e-12)
            checked += 1
        assert checked == 40

    def test_full_contraction_to_scalar_matches_naive(self):
        rng = np.random.default_rng(3)
        i1 = Index([(0,), (1,)], [2, 3], flow=1)
        i2 = Index([(0,), (-1,)], [2, 2], flow=-1)
        a = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng)
        b = BlockSparseTensor.random([i2.dual(), i1.dual()], flux=(0,),
                                     rng=rng)
        ref = a.contract(b, axes=([0, 1], [1, 0]))
        out = contract_planned(a, b, axes=([0, 1], [1, 0]),
                               cache=PlanCache())
        assert out == pytest.approx(ref, abs=1e-12)

    def test_complex_and_mixed_dtype(self):
        rng = np.random.default_rng(5)
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [3, 2], flow=-1)
        a = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng,
                                     dtype=np.complex128)
        b = BlockSparseTensor.random([i2.dual(), i1.dual()], flux=(0,),
                                     rng=rng)
        out = contract_planned(a, b, axes=([1], [0]), cache=PlanCache())
        ref = a.contract(b, axes=([1], [0]))
        assert out.dtype == np.complex128
        assert np.allclose(out.to_dense(), ref.to_dense(), atol=1e-12)

    def test_plan_reused_for_equal_structure_different_values(self):
        rng = np.random.default_rng(9)
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [2, 2], flow=-1)
        cache = PlanCache()
        a1 = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng)
        a2 = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng)
        b = BlockSparseTensor.random([i2.dual(), i1.dual()], flux=(0,),
                                     rng=rng)
        assert tensor_signature(a1) == tensor_signature(a2)
        contract_planned(a1, b, axes=([1], [0]), cache=cache)
        out = contract_planned(a2, b, axes=([1], [0]), cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert np.allclose(out.to_dense(),
                           a2.contract(b, axes=([1], [0])).to_dense(),
                           atol=1e-12)

    def test_invalid_axes_raise(self):
        rng = np.random.default_rng(1)
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        a = BlockSparseTensor.random([i1, i1.dual()], flux=(0,), rng=rng)
        with pytest.raises(ValueError):
            build_plan(a, a, axes=([1], [1]))  # equal flows cannot contract

    def test_plan_groups_cover_all_pairs(self):
        rng = np.random.default_rng(11)
        a, b, axes = _random_case(rng)
        plan = build_plan(a, b, axes)
        in_fused = sum(len(g.a_slots) for g in plan.fused_groups)
        in_batched = sum(len(g.entries) for g in plan.batch_groups)
        assert in_fused + in_batched == plan.npairs
        assert plan.out_nnz == sum(s.rows * s.cols for s in plan.out_specs)


class TestPlanCacheInDMRG:
    def test_davidson_matvecs_hit_cached_plans(self):
        lattice, sites, opsum, cs = heisenberg_chain_model(8)
        mpo = build_mpo(opsum, sites, compress=True)
        psi0 = MPS.product_state(sites, cs)
        backend = DirectBackend()
        config = DMRGConfig(sweeps=Sweeps.fixed(24, 8, cutoff=1e-10))
        res, _ = dmrg(mpo, psi0, config, backend=backend)
        assert res.metrics["plan_cache.hits"] > 0
        assert res.plan_cache_hit_rate > 0.5
        # once the block structure converges, sweeps run fully from cache
        assert res.sweep_records[-1].metrics["plan_cache.misses"] == 0
        assert res.sweep_records[-1].plan_hit_rate == 1.0
        assert res.plan_cache_hit_rate_after_first_sweep > 0.8

    def test_planned_energy_matches_naive_path(self):
        lattice, sites, opsum, cs = heisenberg_chain_model(8)
        mpo = build_mpo(opsum, sites, compress=True)
        psi0 = MPS.product_state(sites, cs)
        config = DMRGConfig(sweeps=Sweeps.fixed(32, 6, cutoff=1e-10))
        res_naive, _ = dmrg(mpo, psi0, config,
                            backend=DirectBackend(use_planner=False))
        res_plan, _ = dmrg(mpo, psi0, config, backend=DirectBackend())
        assert res_plan.energy == pytest.approx(res_naive.energy, abs=1e-10)
        # the naive backend reports no plan statistics
        assert res_naive.metrics["plan_cache.hits"] == 0
        assert res_naive.metrics["plan_cache.misses"] == 0


# --------------------------------------------------------------------------- #
# satellite bugfix regressions
# --------------------------------------------------------------------------- #
class TestBugfixRegressions:
    def test_degenerate_svd_reports_dim1_bond(self):
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [2, 2], flow=-1)
        empty = BlockSparseTensor([i1, i2], {}, flux=(0,))
        u, spec, vh, info = svd(empty, row_axes=[0])
        # the emitted bond really has dimension 1, and kept_dim must agree
        assert u.indices[-1].dim == 1
        assert vh.indices[0].dim == 1
        assert info.kept_dim == 1

    def test_add_casts_blocks_to_result_dtype(self):
        rng = np.random.default_rng(0)
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [2, 2], flow=-1)
        a = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng)
        b = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng,
                                     dtype=np.complex128)
        out = a + b
        assert out.dtype == np.complex128
        assert all(blk.dtype == np.complex128 for blk in out.blocks.values())
        # blocks present only in `a` must be cast as well
        sparse_b = BlockSparseTensor([i1, i2],
                                     {next(iter(b.blocks)):
                                      next(iter(b.blocks.values()))},
                                     flux=(0,), dtype=np.complex128)
        out2 = a + sparse_b
        assert all(blk.dtype == np.complex128
                   for blk in out2.blocks.values())

    def test_mul_keeps_dtype_attribute_consistent_with_blocks(self):
        rng = np.random.default_rng(0)
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [2, 2], flow=-1)
        a = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng,
                                     dtype=np.complex64)
        out = a * 2.0
        assert all(blk.dtype == out.dtype for blk in out.blocks.values())
        outc = a * (1.0 + 2.0j)
        assert outc.dtype.kind == "c"
        assert all(blk.dtype == outc.dtype for blk in outc.blocks.values())
        # the dtype must not depend on whether blocks happen to be stored
        empty = BlockSparseTensor.zeros([i1, i2], flux=(0,),
                                        dtype=np.complex64)
        assert (empty * 2.0).dtype == out.dtype

    def test_plan_cache_none_still_contracts_on_all_backends(self):
        """The naive oracle (the one backend without a plan cache) contracts
        through Algorithm 2 and agrees with the planned path."""
        rng = np.random.default_rng(2)
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [2, 2], flow=-1)
        a = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng)
        b = BlockSparseTensor.random([i2.dual(), i1.dual()], flux=(0,),
                                     rng=rng)
        naive = DirectBackend(use_planner=False)
        assert naive.plan_cache is None
        out = naive.contract(a, b, axes=([1], [0]))
        ref = DirectBackend().contract(a, b, axes=([1], [0]))
        assert np.allclose(out.to_dense(), ref.to_dense(), atol=1e-12)

    def test_scalar_contract_with_no_pairs_keeps_result_dtype(self):
        ii = Index([(0,), (1,)], [1, 1], flow=1)
        a = BlockSparseTensor([ii], {(0,): np.ones(1, dtype=np.complex128)},
                              flux=(0,), dtype=np.complex128)
        b = BlockSparseTensor([ii.dual()],
                              {(1,): np.ones(1, dtype=np.complex128)},
                              flux=(-1,), dtype=np.complex128)
        out = a.contract(b, axes=([0], [0]))
        assert np.asarray(out).dtype == np.complex128
        assert out == 0
        planned = contract_planned(a, b, axes=([0], [0]), cache=PlanCache())
        assert np.asarray(planned).dtype == np.complex128
        assert planned == 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64,
                                       np.complex64, np.complex128])
    def test_randomize_like_respects_dtype(self, dtype):
        rng = np.random.default_rng(0)
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [2, 2], flow=-1)
        x = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng,
                                     dtype=dtype)
        out = _randomize_like(x, rng)
        assert out.dtype == np.dtype(dtype)
        assert all(blk.dtype == np.dtype(dtype)
                   for blk in out.blocks.values())
        assert out.norm() > 0
