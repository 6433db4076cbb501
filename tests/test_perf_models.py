"""Tests for the performance layer: flop counting, block model, Table II
complexity, shape simulation and the scaling harness."""

import numpy as np
import pytest

from repro.ctf import BLUE_WATERS, STAMPEDE2, SimWorld
from repro.perf import (GeometricBlockModel, MeasuredBlockStructure,
                        ShapeTensor, charge_contraction, charge_svd,
                        count_flops, flops, plan_shape_contraction,
                        scaling_exponent, table2, table2_entry)
from repro.perf.flops import contraction_flops, qr_flops, svd_flops
from repro.symmetry import BlockSparseTensor, Index
from repro.symmetry.linalg import svd_group_shapes


class TestFlopCounting:
    def test_contraction_flops_matmul(self):
        # (10x20) @ (20x30) -> 2*10*20*30
        assert contraction_flops((10, 20), (20, 30), (1,), (0,)) == 12000

    def test_svd_qr_flops_positive(self):
        assert svd_flops(100, 50) > 0
        assert qr_flops(100, 50) > 0

    def test_counter_categories(self):
        c = flops.FlopCounter()
        c.add(5, "gemm")
        c.add(3, "svd")
        c.add(2, "other")
        assert c.total == 10
        snap = c.snapshot()
        assert snap["gemm"] == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            flops.FlopCounter().add(-1)

    def test_context_manager_delta(self):
        with count_flops() as c:
            flops.add_flops(7.0, "gemm")
        assert c.gemm == pytest.approx(7.0)


class TestGeometricBlockModel:
    def test_paper_parameters(self):
        spins = GeometricBlockModel.spins()
        electrons = GeometricBlockModel.electrons()
        assert (spins.q, spins.r) == (4.0, 0.6)
        assert (electrons.q, electrons.r) == (10.0, 0.65)

    def test_block_dims_decreasing(self):
        model = GeometricBlockModel.spins()
        dims = model.block_dims(4096)
        assert dims == sorted(dims, reverse=True)
        assert dims[0] == 1024

    def test_num_blocks_grows_with_m(self):
        model = GeometricBlockModel.electrons()
        assert len(model.block_dims(2 ** 15)) > len(model.block_dims(2 ** 11))

    def test_largest_block_roughly_linear(self):
        """Fig. 2a: the largest block scales as ~ m^0.94-0.97."""
        model = GeometricBlockModel.spins()
        ms = [2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14, 2 ** 15]
        sizes = [model.block_dims(m)[0] for m in ms]
        slope = np.polyfit(np.log(ms), np.log(sizes), 1)[0]
        assert 0.9 <= slope <= 1.05

    def test_fit_recovers_parameters(self):
        model = GeometricBlockModel(q=5.0, r=0.7)
        dims = model.block_dims(8192)
        fitted = GeometricBlockModel.fit(dims)
        assert fitted.r == pytest.approx(0.7, abs=0.1)
        assert fitted.q == pytest.approx(5.0, rel=0.5)


class TestMeasuredBlockStructure:
    def test_from_small_bond(self):
        left = Index([(0,), (2,)], [3, 2], flow=1)
        phys = Index([(1,), (-1,)], [1, 1], flow=1)
        right = Index([(1,), (3,), (-1,)], [3, 2, 1], flow=-1)
        ms = MeasuredBlockStructure.from_bond(left, phys, right)
        assert ms.num_blocks > 0
        assert ms.largest_block > 0
        assert 0 < ms.fill_fraction <= 1


class TestTable2:
    def test_all_rows_present(self):
        model = GeometricBlockModel.spins()
        rows = table2(model, 8192, k=32, d=2, nsites=200, nprocs=256)
        assert [r.algorithm for r in rows] == ["list", "sparse-sparse",
                                               "sparse-dense"]

    def test_dense_memory_larger_than_blocked(self):
        model = GeometricBlockModel.spins()
        blocked = table2_entry("list", model, 8192, 32, 2, 200, 256)
        dense = table2_entry("sparse-dense", model, 8192, 32, 2, 200, 256)
        assert dense.davidson_memory > blocked.davidson_memory
        assert dense.flops > blocked.flops

    def test_supersteps(self):
        model = GeometricBlockModel.electrons()
        lst = table2_entry("list", model, 8192, 26, 4, 36, 64)
        sparse = table2_entry("sparse-sparse", model, 8192, 26, 4, 36, 64)
        assert lst.bsp_supersteps > sparse.bsp_supersteps == 1.0
        # sparse pays more words per processor than the 2/3-power dense law
        assert sparse.bsp_comm_words > lst.bsp_comm_words

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            table2_entry("magic", GeometricBlockModel.spins(), 8192, 32, 2,
                         200, 256)

    def test_scaling_exponents_match_formulas(self):
        model = GeometricBlockModel.spins()
        ms = [2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14, 2 ** 15]
        assert scaling_exponent(model, "flops", ms) == pytest.approx(3.0, abs=0.25)
        assert scaling_exponent(model, "davidson_memory", ms) == \
            pytest.approx(2.0, abs=0.25)


class TestShapeSimulation:
    def _pair(self):
        left = Index([(0,), (2,), (-2,)], [8, 5, 5], flow=1)
        right = Index([(1,), (-1,), (3,)], [6, 6, 2], flow=-1)
        phys = Index([(1,), (-1,)], [1, 1], flow=1)
        a = ShapeTensor((left, phys, right))
        b = ShapeTensor((right.dual(), phys.dual(), left.dual()))
        return a, b

    def test_shape_contract_matches_block_tensor(self, rng):
        """The plan-derived output shape reproduces the real block structure."""
        i1 = Index([(0,), (1,)], [2, 3], flow=1)
        i2 = Index([(0,), (1,), (2,)], [2, 2, 1], flow=1)
        i3 = Index([(0,), (1,), (2,)], [1, 2, 2], flow=-1)
        a = BlockSparseTensor.random([i1, i2, i3], flux=(0,), rng=rng)
        b = BlockSparseTensor.random([i3.dual(), i2.dual()], flux=(0,), rng=rng)
        with count_flops() as counted:
            real = a.contract(b, axes=([2], [0]))
        sa, sb = ShapeTensor.from_block_tensor(a), ShapeTensor.from_block_tensor(b)
        out, nflops = charge_contraction(SimWorld(), "sparse-sparse", sa, sb,
                                         ([2], [0]))
        assert out.nnz == real.nnz
        assert set(out.blocks) == set(real.blocks)
        assert all(out.blocks[k] == real.blocks[k].shape for k in out.blocks)
        assert nflops == counted.total
        assert plan_shape_contraction(sa, sb, ([2], [0])).total_flops == \
            counted.total

    def test_charge_contraction_all_algorithms(self):
        a, b = self._pair()
        for alg in ("list", "sparse-dense", "sparse-sparse"):
            world = SimWorld(nodes=2, procs_per_node=8, machine=BLUE_WATERS)
            out, nflops = charge_contraction(world, alg, a, b, ([2], [0]))
            assert nflops > 0
            assert world.modelled_seconds() > 0

    def test_charge_contraction_unknown_algorithm(self):
        a, b = self._pair()
        with pytest.raises(ValueError):
            charge_contraction(SimWorld(), "magic", a, b, ([2], [0]))

    def test_svd_group_shapes(self):
        a, _ = self._pair()
        shapes = svd_group_shapes(a, [0, 1])
        assert all(r > 0 and c > 0 for r, c in shapes)
        world = SimWorld(nodes=2, procs_per_node=8, machine=BLUE_WATERS)
        assert charge_svd(world, "list", a, [0, 1]) > 0
        assert world.profiler.seconds["svd"] > 0

    def test_incompatible_contraction_rejected(self):
        a, b = self._pair()
        with pytest.raises(ValueError):
            charge_contraction(SimWorld(), "list", a, b, ([0], [1]))
