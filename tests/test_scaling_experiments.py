"""Tests of the figure-level scaling harness (on reduced lattices for speed)."""

import pytest

from repro.ctf import BLUE_WATERS, STAMPEDE2, SimWorld
from repro.perf import (column_times, cost_time_points, format_breakdown,
                        format_series, format_table, format_table1, get_system,
                        headline_speedups, itensor_reference, model_dmrg_step,
                        pareto_front, peak_performance,
                        peak_relative_efficiency, strong_scaling,
                        time_breakdown, weak_scaling)


@pytest.fixture(scope="module")
def spins_small():
    return get_system("spins", small=True)


@pytest.fixture(scope="module")
def electrons_small():
    return get_system("electrons", small=True)


class TestStepModel:
    def test_step_cost_positive(self, spins_small):
        world = SimWorld(nodes=4, procs_per_node=16, machine=BLUE_WATERS)
        step = model_dmrg_step(spins_small, 512, world, "list")
        assert step.useful_flops > 0
        assert step.seconds > 0
        assert step.gflops_rate > 0
        assert abs(sum(step.breakdown.values()) - step.seconds) < 1e-9

    def test_flops_grow_with_bond_dimension(self, spins_small):
        w1 = SimWorld(nodes=4, procs_per_node=16, machine=BLUE_WATERS)
        w2 = SimWorld(nodes=4, procs_per_node=16, machine=BLUE_WATERS)
        small = model_dmrg_step(spins_small, 256, w1, "list")
        large = model_dmrg_step(spins_small, 1024, w2, "list")
        # Table II: flops ~ m^3, so x4 in m gives ~x64 in flops
        assert large.useful_flops > 20 * small.useful_flops

    def test_algorithms_have_equal_useful_flops(self, spins_small,
                                                electrons_small):
        """Useful flops are the block-level count for every algorithm, also
        for sparse-dense, whose dense kernel multiplies the zero background
        (rates and ITensor's extrapolated time are defined on it)."""
        for system in (spins_small, electrons_small):
            flops = {model_dmrg_step(system, 512,
                                     SimWorld(nodes=2, procs_per_node=16,
                                              machine=BLUE_WATERS),
                                     algorithm).useful_flops
                     for algorithm in ("list", "sparse-dense",
                                       "sparse-sparse")}
            assert len(flops) == 1

    def test_sparse_dense_memory_larger(self, electrons_small):
        wl = SimWorld(nodes=2, procs_per_node=16, machine=BLUE_WATERS)
        wd = SimWorld(nodes=2, procs_per_node=16, machine=BLUE_WATERS)
        a = model_dmrg_step(electrons_small, 512, wl, "list")
        b = model_dmrg_step(electrons_small, 512, wd, "sparse-dense")
        assert b.davidson_memory > a.davidson_memory

    def test_itensor_reference_single_node(self, spins_small):
        ref = itensor_reference(spins_small, 512, BLUE_WATERS)
        assert ref.nodes == 1
        assert ref.breakdown["communication"] == 0.0
        assert ref.gflops_rate > 0


class TestFigureExperiments:
    def test_fig5_peak_performance(self, spins_small):
        series = peak_performance(spins_small, BLUE_WATERS, "list",
                                  [256, 512, 1024],
                                  {256: 4, 512: 8, 1024: 16})
        assert len(series.x) == 3
        # rate increases with m and nodes, as in Fig. 5
        assert series.y[-1] > series.y[0]
        assert "nodes" in series.annotations[0]

    def test_fig6_column_times_flat_in_middle(self, spins_small):
        series = column_times(spins_small, 512, BLUE_WATERS, nodes=8)
        assert len(series.x) == spins_small.columns
        middle = series.y[len(series.y) // 2]
        assert series.y[0] <= middle * 1.05  # edge columns are cheaper

    def test_fig7_breakdown_sums_to_100(self, electrons_small):
        bd = time_breakdown(electrons_small, 512, STAMPEDE2, nodes=4,
                            algorithm="sparse-sparse")
        assert sum(bd.values()) == pytest.approx(100.0, abs=1e-6)
        assert bd["gemm"] > 0

    def test_fig8_weak_scaling_series(self, spins_small):
        series = weak_scaling(spins_small, BLUE_WATERS, "list",
                              [(2, 256), (4, 512), (8, 1024)], reference_m=256)
        assert len(series.x) == 3
        assert all(e > 0 for e in series.y)

    def test_fig8b_peak_relative_efficiency(self, spins_small):
        series = peak_relative_efficiency(spins_small, BLUE_WATERS, "list",
                                          nodes_list=[2, 4], ms=[256, 512],
                                          reference_m=256,
                                          procs_per_node_options=(16,))
        assert len(series.x) == 2
        assert all(y > 0 for y in series.y)

    def test_fig9_strong_scaling(self, spins_small):
        speedup, efficiency = strong_scaling(spins_small, BLUE_WATERS, "list",
                                             512, [2, 4, 8])
        assert speedup.y[0] == pytest.approx(1.0)
        assert efficiency.y[0] == pytest.approx(1.0)
        # speedup grows with node count (not necessarily ideally)
        assert speedup.y[-1] > 1.0

    def test_fig10_cost_time_points_and_pareto(self, spins_small):
        points = cost_time_points(spins_small, BLUE_WATERS,
                                  ["list", "sparse-dense"], [256, 512],
                                  [2, 4], procs_per_node_options=(16,))
        assert points
        front = pareto_front(points)
        assert front
        costs = [p["relative_cost"] for p in front]
        times = [p["relative_time"] for p in front]
        assert costs == sorted(costs)
        assert times == sorted(times, reverse=True)

    def test_fig12_electron_strong_scaling(self, electrons_small):
        speedup, _ = strong_scaling(electrons_small, STAMPEDE2,
                                    "sparse-sparse", 512, [2, 4, 8],
                                    procs_per_node=32)
        assert speedup.y[-1] > 1.0

    def test_headline_speedups(self, spins_small):
        rows = headline_speedups(spins_small, BLUE_WATERS, [256, 512],
                                 {256: 2, 512: 8}, reference_m=256)
        assert rows[1]["rate_speedup"] > rows[0]["rate_speedup"]
        assert all(r["relative_cost"] > 0 for r in rows)


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "b"], [(1, 2.0), (3, 4.5)], title="T")
        assert "T" in text and "a" in text and "4.5" in text

    def test_format_series(self, spins_small):
        series = peak_performance(spins_small, BLUE_WATERS, "list", [256],
                                  {256: 2})
        text = format_series(series, "m", "GF/s")
        assert "m" in text and "GF/s" in text

    def test_format_breakdown(self):
        text = format_breakdown({"gemm": 50.0, "svd": 50.0})
        assert "gemm" in text and "%" in text

    def test_table1_contains_this_work(self):
        text = format_table1()
        assert "this work" in text
        assert "32768" in text
        assert "Kantian" in text
