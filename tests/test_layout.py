"""Sweep-persistent layout tracker: invariants, backend threading, and the
aggregate-charge bugfixes in the sparse backends' SVD format conversions."""

import numpy as np
import pytest

from repro.backends import (ListBackend, SparseDenseBackend,
                            SparseSparseBackend, make_backend)
from repro.ctf import (BLUE_WATERS, CollectiveModel, LayoutTracker, Profiler,
                       SimWorld, TensorLayout, pair_mapping_decisions,
                       redistribution_words)
from repro.ctf.mapping import GemmShape, MappingDecision, summa_2d, summa_3d
from repro.dmrg import run_dmrg
from repro.mps import MPS, build_mpo
from repro.models import heisenberg_chain_model
from repro.perf.block_model import GeometricBlockModel
from repro.perf.shapesim import (ShapeTensor, charge_contraction,
                                 plan_shape_contraction)
from repro.symmetry import BlockSparseTensor, Index
from repro.symmetry.planner import build_plan


def make_world(nodes=4, ppn=16):
    return SimWorld(nodes=nodes, procs_per_node=ppn, machine=BLUE_WATERS)


def shape_pair(m=64):
    bond = GeometricBlockModel.spins().bond_index(m)
    phys = Index([(0,), (1,)], [1, 1], flow=1)
    env = ShapeTensor((bond.with_flow(1), bond.dual()))
    x = ShapeTensor((bond.with_flow(1), phys, bond.dual()))
    return env, x, ([1], [0])


def block_sparse_pair(rng=None):
    rng = rng or np.random.default_rng(3)
    i1 = Index([(0,), (1,)], [2, 3], flow=1)
    i2 = Index([(0,), (1,), (2,)], [2, 2, 1], flow=1)
    i3 = Index([(0,), (1,), (2,)], [2, 2, 2], flow=-1)
    a = BlockSparseTensor.random([i1, i2, i3], flux=(0,), rng=rng)
    b = BlockSparseTensor.random([i3.dual(), i2.dual()], flux=(0,), rng=rng)
    return a, b, ([2], [0])


# --------------------------------------------------------------------------- #
# LayoutTracker / TensorLayout
# --------------------------------------------------------------------------- #
class TestLayoutTracker:
    L2D = TensorLayout("summa-2d", (4, 4), 1)
    L3D = TensorLayout("summa-3d", (2, 2, 4), 4)

    def test_first_touch_moves(self):
        t = LayoutTracker()
        assert t.observe("env", self.L2D) is True
        assert t.first_touches == 1 and t.transitions == 0

    def test_unchanged_layout_is_free(self):
        t = LayoutTracker()
        t.observe("env", self.L2D)
        assert t.observe("env", self.L2D) is False
        assert t.reuses == 1 and t.charged_moves == 1

    def test_mapping_change_moves(self):
        t = LayoutTracker()
        t.observe("env", self.L2D)
        assert t.observe("env", self.L3D) is True
        assert t.transitions == 1
        assert t.layouts["env"] == self.L3D

    def test_record_birth_is_free_then_reused(self):
        t = LayoutTracker()
        t.record("hx", self.L3D)
        assert t.births == 1 and t.charged_moves == 0
        assert t.observe("hx", self.L3D) is False

    def test_invalidate_forces_recharge(self):
        t = LayoutTracker()
        t.observe("mps", self.L2D)
        t.invalidate("mps")
        assert "mps" not in t.layouts
        assert t.observe("mps", self.L2D) is True
        assert t.first_touches == 2

    def test_snapshot_counts_reuses(self):
        t = LayoutTracker()
        t.observe("a", self.L2D)
        t.observe("a", self.L2D)
        snap = t.snapshot()
        assert snap["observations"] == 2
        assert snap["reuses"] == 1
        assert snap["tracked_operands"] == 1

    def test_layout_from_decision_drops_transients(self):
        d1 = MappingDecision("summa-2d", (4, 4), 1, 10.0, 4.0, 100.0, 1e-3)
        d2 = MappingDecision("summa-2d", (4, 4), 1, 99.0, 9.0, 777.0, 5e-2)
        assert TensorLayout.from_decision(d1) == TensorLayout.from_decision(d2)


# --------------------------------------------------------------------------- #
# SimWorld.charge_layout_transition
# --------------------------------------------------------------------------- #
class TestChargeLayoutTransition:
    def test_first_touch_equals_untracked_charge(self):
        env, x, axes = shape_pair()
        plan = plan_shape_contraction(env, x, axes)
        w_tracked, w_plain = make_world(), make_world()
        s_tracked = w_tracked.charge_layout_transition(
            "env", plan=plan, operand="a", elements=env.nnz)
        s_plain = w_plain.charge_redistribution(env.nnz, plan=plan,
                                                operand="a")
        assert s_tracked == pytest.approx(s_plain, rel=1e-12)

    def test_unchanged_mapping_charges_zero(self):
        env, x, axes = shape_pair()
        plan = plan_shape_contraction(env, x, axes)
        w = make_world()
        w.charge_layout_transition("env", plan=plan, operand="a",
                                   elements=env.nnz)
        before = w.modelled_seconds()
        assert w.charge_layout_transition("env", plan=plan, operand="a",
                                          elements=env.nnz) == 0.0
        assert w.modelled_seconds() == before

    def test_mapping_change_charges_again(self):
        w = make_world()
        model = w.collective_model()
        d2 = summa_2d(GemmShape(64, 64, 64), w.nprocs, model)
        d3 = summa_3d(GemmShape(64, 64, 64), w.nprocs, model)
        assert w.charge_layout_transition("x", mapping=d2,
                                          elements=1e4) > 0.0
        assert w.charge_layout_transition("x", mapping=d3,
                                          elements=1e4) > 0.0
        assert w.layout_tracker.transitions == 1

    def test_untracked_key_falls_back_to_per_contraction(self):
        env, x, axes = shape_pair()
        plan = plan_shape_contraction(env, x, axes)
        w_none, w_plain = make_world(), make_world()
        s_none = w_none.charge_layout_transition(None, plan=plan, operand="a",
                                                 elements=env.nnz)
        s_plain = w_plain.charge_redistribution(env.nnz, plan=plan,
                                                operand="a")
        assert s_none == pytest.approx(s_plain, rel=1e-12)
        assert w_none.layout_tracker.observations == 0

    def test_needs_plan_or_mapping(self):
        with pytest.raises(ValueError):
            make_world().charge_layout_transition("x", elements=10.0)

    def test_tracked_sequence_never_above_untracked(self):
        """Invariant: tracker-on totals <= tracker-off, for any sequence."""
        env, x, axes = shape_pair()
        w_on, w_off = make_world(), make_world()
        for _ in range(4):
            charge_contraction(w_on, "sparse-sparse", env, x, axes,
                               operand_keys=("env", "x"), out_key="hx")
            charge_contraction(w_off, "sparse-sparse", env, x, axes)
        assert w_on.modelled_seconds() <= w_off.modelled_seconds()
        assert w_on.layout_tracker.reuses > 0


# --------------------------------------------------------------------------- #
# backend threading
# --------------------------------------------------------------------------- #
class TestBackendLayoutThreading:
    def test_sparse_sparse_reuses_layouts_across_contractions(self):
        a, b, axes = block_sparse_pair()
        w_on, w_off = make_world(), make_world()
        on = SparseSparseBackend(w_on)
        off = SparseSparseBackend(w_off)
        for _ in range(3):
            on.contract(a, b, axes, operand_keys=("a", "b"), out_key="c")
            off.contract(a, b, axes)
        assert w_on.modelled_seconds() < w_off.modelled_seconds()
        # first contraction charges both operands, later ones are free
        assert w_on.layout_tracker.first_touches == 2
        assert w_on.layout_tracker.reuses == 4

    def test_unkeyed_contract_unchanged(self):
        """Without keys the backend charges the per-contraction recipe."""
        a, b, axes = block_sparse_pair()
        world = make_world()
        SparseSparseBackend(world).contract(a, b, axes)
        reference = make_world()
        expected = reference.charge_planned_contraction(
            build_plan(a, b, axes), operand_nnz=(a.nnz, b.nnz))
        assert world.modelled_seconds() == pytest.approx(expected, rel=1e-12)

    def test_list_backend_accepts_keys(self):
        a, b, axes = block_sparse_pair()
        world = make_world()
        out = ListBackend(world).contract(a, b, axes,
                                          operand_keys=("a", "b"),
                                          out_key="c")
        ref = make_backend("direct").contract(a, b, axes)
        assert np.allclose(out.to_dense(), ref.to_dense())

    def test_dmrg_sweep_reuses_environment_layouts(self):
        """Environments/MPO tensors keep their layout across Davidson
        iterations and sweep steps — the tracker sees real reuse."""
        lat, sites, opsum, config = heisenberg_chain_model(6)
        mpo = build_mpo(opsum, sites)
        psi0 = MPS.product_state(sites, config)
        w_tracked = SimWorld(nodes=4, procs_per_node=16, machine=BLUE_WATERS)
        res, _ = run_dmrg(mpo, psi0, maxdim=16, nsweeps=2,
                          backend=SparseSparseBackend(w_tracked))
        snap = w_tracked.layout_tracker.snapshot()
        assert snap["reuses"] > 0
        assert snap["first_touches"] > 0
        # energies still exact
        ref, _ = run_dmrg(mpo, psi0, maxdim=16, nsweeps=2)
        assert res.energy == pytest.approx(ref.energy, abs=1e-9)

    def test_model_step_tracked_never_worse(self):
        from repro.perf import get_system, model_dmrg_step
        system = get_system("spins", small=True)
        w_on, w_off = make_world(), make_world()
        s = system.middle_site()
        on = [model_dmrg_step(system, 256, w_on, "sparse-sparse", site=j,
                              track_layout=True)
              for j in (s, s + 1)]
        off = [model_dmrg_step(system, 256, w_off, "sparse-sparse", site=j)
               for j in (s, s + 1)]
        assert w_on.modelled_seconds() <= w_off.modelled_seconds()
        assert sum(st.layout_reuses for st in on) > 0
        assert all(st.layout_reuses == 0 for st in off)


# --------------------------------------------------------------------------- #
# list backend: per-pair 2D-vs-3D grain-efficiency crossover
# --------------------------------------------------------------------------- #
class TestListMappingCrossover:
    def test_small_pairs_map_2d_large_pairs_3d(self):
        world = make_world()
        model = world.collective_model()
        tiny = Index([(0,)], [4], flow=1)
        big = Index([(0,)], [256], flow=1)
        t_small = ShapeTensor((tiny.with_flow(1), tiny.dual()))
        t_big = ShapeTensor((big.with_flow(1), big.dual()))
        small_plan = plan_shape_contraction(t_small, t_small, ([1], [0]))
        big_plan = plan_shape_contraction(t_big, t_big, ([1], [0]))
        small = pair_mapping_decisions(small_plan, world.nprocs, model)
        large = pair_mapping_decisions(big_plan, world.nprocs, model)
        assert all(d.algorithm == "summa-2d" for d in small)
        assert all(d.algorithm != "summa-2d" for d in large)

    def test_list_backend_counts_mappings(self):
        a, b, axes = block_sparse_pair()
        world = make_world()
        backend = ListBackend(world)
        backend.contract(a, b, axes)
        decisions = world.pair_decisions(backend.plan_cache.lookup(a, b,
                                                                   axes))
        assert len(decisions) > 0
        # the tiny test blocks all fall below the grain crossover
        assert {d.algorithm for d in decisions} == {"summa-2d"}

    def test_2d_pair_transposes_less_than_3d(self):
        w_2d, w_3d = make_world(), make_world()
        model = w_2d.collective_model()
        shape = GemmShape(8, 8, 8)
        d2 = summa_2d(shape, w_2d.nprocs, model)
        w_2d.charge_block_contraction(2.0 * 8 ** 3, shape.words_a,
                                      shape.words_b, shape.words_c,
                                      mapping=d2)
        w_3d.charge_block_contraction(2.0 * 8 ** 3, shape.words_a,
                                      shape.words_b, shape.words_c)
        assert w_2d.profiler.seconds["transposition"] < \
            w_3d.profiler.seconds["transposition"]
        assert w_2d.profiler.seconds["gemm"] == \
            pytest.approx(w_3d.profiler.seconds["gemm"])


# --------------------------------------------------------------------------- #
# sparse backends: SVD format-conversion charges (regression)
# --------------------------------------------------------------------------- #
class TestSvdConversionCharges:
    def test_format_conversion_volume_pinned(self):
        """The two-phase conversion moves min(nnz, planned words) per phase
        and repacks once."""
        env, x, axes = shape_pair()
        plan = plan_shape_contraction(env, x, axes)
        words = redistribution_words(plan, "out")
        w = make_world()
        w.charge_format_conversion(2 * words, phases=2, plan=plan,
                                   operand="out")
        # the cap binds: each phase moves the plan's words, not 2x of them
        assert w.profiler.comm_words == pytest.approx(
            2 * words / w.nprocs, rel=1e-12)
        assert w.profiler.supersteps == pytest.approx(2.0)

    def test_format_conversion_below_double_redistribution(self):
        """Collapsing the double charge drops one repacking pass."""
        w_conv, w_double = make_world(), make_world()
        s_conv = w_conv.charge_format_conversion(1e6, phases=2)
        s_double = w_double.charge_redistribution(1e6) + \
            w_double.charge_redistribution(1e6)
        assert s_conv < s_double
        assert w_conv.profiler.comm_words == pytest.approx(
            w_double.profiler.comm_words)
        assert w_conv.profiler.seconds["transposition"] == pytest.approx(
            w_double.profiler.seconds["transposition"] / 2.0)

    def test_sparse_sparse_svd_charges_two_phase_conversion(self):
        a, b, axes = block_sparse_pair()
        world = make_world()
        backend = SparseSparseBackend(world)
        t = backend.contract(a, b, axes)
        before = world.profiler.as_dict()
        backend.svd(t, row_axes=[0], absorb="right")
        after = world.profiler.as_dict()
        # reference: the documented recipe, with the producing plan's cap
        plan = build_plan(a, b, axes)
        ref = make_world()
        ref.charge_format_conversion(t.nnz, phases=2, plan=plan,
                                     operand="out")
        rows = t.indices[0].dim
        cols = max(t.dense_size // max(rows, 1), 1)
        ref.charge_svd(min(rows, cols * 4), min(cols, rows * 4))
        expected = ref.profiler.as_dict()
        for key in ("communication", "transposition", "svd", "comm_words",
                    "supersteps"):
            assert after[key] - before[key] == pytest.approx(
                expected[key], rel=1e-12), key

    def test_sparse_dense_svd_densification_is_plan_capped(self):
        a, b, axes = block_sparse_pair()
        world = make_world()
        backend = SparseDenseBackend(world)
        t = backend.contract(a, b, axes)
        before = world.profiler.as_dict()
        backend.svd(t, row_axes=[0], absorb="right")
        after = world.profiler.as_dict()
        plan = build_plan(a, b, axes)
        ref = make_world()
        ref.charge_redistribution(t.nnz, plan=plan, operand="out")
        rows = t.indices[0].dim
        cols = max(t.dense_size // max(rows, 1), 1)
        ref.charge_svd(min(rows, cols * 4), min(cols, rows * 4))
        expected = ref.profiler.as_dict()
        for key in ("communication", "transposition", "svd", "comm_words"):
            assert after[key] - before[key] == pytest.approx(
                expected[key], rel=1e-12), key
        # the densification can never move more than the block-aligned bound
        assert after["comm_words"] - before["comm_words"] <= \
            (min(t.nnz, redistribution_words(plan, "out")) / world.nprocs) + \
            (t.dense_size / world.nprocs ** 0.5) + 1e-9

    def test_conversion_plan_ignored_for_unrelated_tensor(self):
        """A tensor that is not the last plan's output falls back to nnz."""
        a, b, axes = block_sparse_pair()
        world = make_world()
        backend = SparseSparseBackend(world)
        backend.contract(a, b, axes)
        assert backend._conversion_plan(a) is None
        t = backend.contract(a, b, axes)
        assert backend._conversion_plan(t) is not None


# --------------------------------------------------------------------------- #
# profiler: custom categories are reported, not silently dropped
# --------------------------------------------------------------------------- #
class TestProfilerCustomCategories:
    def test_as_dict_includes_custom_categories(self):
        p = Profiler()
        p.add("svd", 1.0)
        p.add("checkpoint", 2.0, allow_custom=True)
        d = p.as_dict()
        assert d["checkpoint"] == pytest.approx(2.0)
        assert d["total"] == pytest.approx(3.0)

    def test_typos_still_rejected_without_optin(self):
        with pytest.raises(ValueError):
            Profiler().add("gem", 1.0)

    def test_reserved_names_rejected(self):
        p = Profiler()
        for name in ("total", "comm_words", "supersteps", "flops", ""):
            with pytest.raises(ValueError):
                p.add(name, 1.0, allow_custom=True)

    def test_world_collective_model_memoized(self):
        w = make_world()
        assert w.collective_model() is w.collective_model()
        assert isinstance(w.collective_model(), CollectiveModel)
