"""Tests for the simulated Cyclops framework: machine model, BSP costs and
profiler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ctf import (BLUE_WATERS, MACHINES, STAMPEDE2, CATEGORIES,
                       CommCost, Profiler, SimWorld,
                       blockwise_contraction_comm, dense_contraction_comm,
                       load_imbalance_fraction, parallel_gemm_efficiency,
                       sparse_contraction_comm)


class TestMachineAndBSP:
    def test_machine_presets(self):
        assert set(MACHINES) == {"blue-waters", "stampede2", "laptop"}
        assert BLUE_WATERS.memory_bytes_per_node() == pytest.approx(64e9)

    def test_gemm_seconds_scale_with_nodes(self):
        t1 = BLUE_WATERS.gemm_seconds(1e12, 1)
        t16 = BLUE_WATERS.gemm_seconds(1e12, 16)
        assert t16 == pytest.approx(t1 / 16)

    def test_comm_includes_latency(self):
        t = STAMPEDE2.comm_seconds(0.0, 4, supersteps=10)
        assert t == pytest.approx(10 * STAMPEDE2.network_latency_us * 1e-6)

    def test_bsp_comm_scaling(self):
        dense = dense_contraction_comm(1e6, 1e6, 1e6, 64)
        sparse = sparse_contraction_comm(1e6, 1e6, 1e6, 64)
        block = blockwise_contraction_comm(1e6, 1e6, 1e6, 64)
        # Table II: dense/list move ~M/p^(2/3), sparse ~M/p^(1/2) (more words)
        assert dense.words < sparse.words
        assert block.supersteps == 1.0
        assert isinstance(dense + sparse, CommCost)

    def test_gemm_efficiency_monotone(self):
        small = parallel_gemm_efficiency(1e5, 256)
        large = parallel_gemm_efficiency(1e12, 256)
        assert small < large <= 1.0

    def test_imbalance_fraction_bounds(self):
        assert load_imbalance_fraction(0, 1.0, 4) == 0.0
        assert 0.0 <= load_imbalance_fraction(10, 0.5, 64) <= 0.6


class TestProfilerAndWorld:
    def test_categories_and_breakdown(self):
        p = Profiler()
        p.add("gemm", 3.0)
        p.add("svd", 1.0)
        bd = p.breakdown()
        assert set(bd) == set(CATEGORIES)
        assert bd["gemm"] == pytest.approx(75.0)
        assert p.total_seconds() == pytest.approx(4.0)

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            Profiler().add("disk", 1.0)
        with pytest.raises(ValueError):
            Profiler().add("gemm", -1.0)

    def test_world_memory_check(self):
        w = SimWorld(nodes=2, procs_per_node=16, machine=BLUE_WATERS)
        assert w.fits_in_memory(1e9)          # 8 GB over 2 nodes
        assert not w.fits_in_memory(1e12)     # 8 TB does not fit
        assert w.nprocs == 32

    def test_world_invalid_config(self):
        with pytest.raises(ValueError):
            SimWorld(nodes=0)

    def test_charges_accumulate(self):
        w = SimWorld(nodes=4, procs_per_node=8, machine=STAMPEDE2)
        w.charge_dense_contraction(1e9, 1e6, 1e6, 1e6)
        w.charge_block_contraction(1e8, 1e5, 1e5, 1e5, num_blocks=10,
                                   largest_block_share=0.5)
        w.charge_sparse_contraction(1e7, 1e4, 1e4, 1e4)
        w.charge_svd(1000, 500)
        w.charge_redistribution(1e6)
        d = w.profiler.as_dict()
        assert d["total"] > 0
        assert d["flops"] > 0
        assert w.profiler.gflops_rate() > 0
