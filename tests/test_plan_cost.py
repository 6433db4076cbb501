"""Tests for the plan-aware distributed cost model.

Covers the lowering of contraction plans into per-block-pair cost
descriptions (``repro.ctf.plan_cost``), the plan-aware charging methods of
:class:`SimWorld`, the plan-driven candidate scorer of ``choose_mapping``,
and the plan-aware mode of the shape-level scaling simulation.  The three
acceptance properties:

(a) plan-aware totals equal the aggregate model for a single dense block,
(b) block-sparse plans price strictly less redistribution than the
    dense-aggregate bound,
(c) ``choose_mapping`` decisions are deterministic for a fixed plan.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import make_backend
from repro.ctf import (BLUE_WATERS, STAMPEDE2, CollectiveModel, GemmShape,
                       MappingDecision, PairCost, PlanCost, SimWorld,
                       candidate_mappings, choose_mapping,
                       choose_plan_mapping, gemm_shape_of_contraction,
                       lower_plan, pair_mapping_decisions,
                       plan_candidate_mappings, redistribution_words)
from repro.ctf import mapping as mapping_module
from repro.perf.block_model import GeometricBlockModel
from repro.perf.shapesim import (ShapeTensor, charge_contraction,
                                 plan_shape_contraction)
from repro.symmetry import BlockSparseTensor, Index, build_plan


def make_world() -> SimWorld:
    return SimWorld(nodes=4, procs_per_node=16, machine=BLUE_WATERS)


MODEL = CollectiveModel.for_machine(BLUE_WATERS, nodes=4, procs_per_node=16)


def oracle_plan_candidates(shapes, nprocs, model, resident=0.0):
    """Per-pair scalar reference for ``plan_candidate_mappings``.

    Prices every pair on its own with ``candidate_mappings`` and adds the
    per-pair decisions family by family, left to right in plan order.
    """
    per_pair = [candidate_mappings(s, nprocs, model) for s in shapes]
    owned = [s.total_words / max(nprocs, 1) for s in shapes]
    combined = []
    for family in zip(*per_pair):
        first = family[0]
        transient = max(max(d.memory_words_per_rank - own, 0.0)
                        for d, own in zip(family, owned))
        combined.append(MappingDecision(
            first.algorithm, first.grid, first.replication,
            sum(d.words_per_rank for d in family),
            sum(d.supersteps for d in family),
            resident + transient,
            sum(d.seconds for d in family)))
    return combined


def oracle_choose(cands, budget=None):
    """``choose_mapping``'s selection rule applied to a candidate list."""
    if budget is not None:
        fitting = [c for c in cands if c.memory_words_per_rank <= budget]
        if not fitting:
            return min(cands, key=lambda c: c.memory_words_per_rank)
        cands = fitting
    return min(cands, key=lambda c: (c.seconds, c.words_per_rank))


def synthetic_plan_cost(shapes) -> PlanCost:
    """A lowered plan whose pairs have the given GEMM shapes."""
    pairs = tuple(PairCost(s, s.flops, s.words_a, s.words_b, s.words_c)
                  for s in shapes)
    return PlanCost(pairs, sum(s.words_a for s in shapes),
                    sum(s.words_b for s in shapes),
                    sum(s.words_c for s in shapes),
                    sum(s.flops for s in shapes), 1.0 / len(shapes))


@pytest.fixture
def model():
    return CollectiveModel.for_machine(BLUE_WATERS, nodes=4,
                                       procs_per_node=16)


def dense_pair():
    """A contraction whose operands are each a single dense block."""
    rng = np.random.default_rng(3)
    left = Index.trivial(24, 1, flow=1)
    mid = Index.trivial(16, 1, flow=1)
    right = Index.trivial(12, 1, flow=1)
    a = BlockSparseTensor.random((left, mid.dual()), flux=(0,), rng=rng)
    b = BlockSparseTensor.random((mid, right.dual()), flux=(0,), rng=rng)
    return a, b, ([1], [0])


def block_sparse_pair(m: int = 96):
    """A genuinely block-sparse contraction from the geometric bond model."""
    rng = np.random.default_rng(5)
    bond = GeometricBlockModel.spins().bond_index(m)
    phys = Index([(0,), (1,)], [1, 1], flow=1)
    a = BlockSparseTensor.random((bond.with_flow(1), bond.dual()),
                                 flux=(0,), rng=rng)
    b = BlockSparseTensor.random((bond.with_flow(1), phys, bond.dual()),
                                 flux=(0,), rng=rng)
    return a, b, ([1], [0])


# --------------------------------------------------------------------------- #
# lowering
# --------------------------------------------------------------------------- #
class TestLowerPlan:
    def test_dense_block_matches_aggregate_quantities(self):
        a, b, axes = dense_pair()
        plan = build_plan(a, b, axes)
        cost = lower_plan(plan)
        assert cost.npairs == 1
        assert cost.operand_a_words == a.nnz == a.dense_size
        assert cost.operand_b_words == b.nnz == b.dense_size
        assert cost.output_words == plan.out_nnz
        assert cost.total_flops == plan.total_flops
        agg = gemm_shape_of_contraction((24, 16), (16, 12), axes[0], axes[1])
        assert cost.pairs[0].shape == agg

    def test_block_sparse_touched_words_bounded_by_nnz(self):
        a, b, axes = block_sparse_pair()
        cost = lower_plan(build_plan(a, b, axes))
        assert cost.npairs > 1
        assert cost.operand_a_words <= a.nnz
        assert cost.operand_b_words <= b.nnz
        assert cost.touched_words == (cost.operand_a_words +
                                      cost.operand_b_words +
                                      cost.output_words)
        assert sum(p.flops for p in cost.pairs) == pytest.approx(
            cost.total_flops)

    def test_lowering_is_memoized_on_the_plan(self):
        a, b, axes = block_sparse_pair()
        plan = build_plan(a, b, axes)
        assert lower_plan(plan) is lower_plan(plan)

    def test_redistribution_words_operands(self):
        a, b, axes = block_sparse_pair()
        plan = build_plan(a, b, axes)
        cost = lower_plan(plan)
        assert redistribution_words(plan, "a") == cost.operand_a_words
        assert redistribution_words(plan, "b") == cost.operand_b_words
        assert redistribution_words(plan, "out") == cost.output_words
        assert redistribution_words(cost, "all") == cost.touched_words
        with pytest.raises(ValueError):
            redistribution_words(plan, "c")


# --------------------------------------------------------------------------- #
# SimWorld.charge_planned_contraction
# --------------------------------------------------------------------------- #
class TestChargePlannedContraction:
    def test_dense_block_equals_aggregate_model(self):
        """(a) single dense block: plan-aware == aggregate, per category."""
        a, b, axes = dense_pair()
        plan = build_plan(a, b, axes)
        w_agg, w_plan = make_world(), make_world()
        s_agg = w_agg.charge_sparse_contraction(plan.total_flops, a.nnz,
                                                b.nnz, plan.out_nnz)
        s_plan = w_plan.charge_planned_contraction(plan)
        assert s_plan == pytest.approx(s_agg, rel=1e-12)
        assert w_plan.profiler.as_dict() == pytest.approx(
            w_agg.profiler.as_dict(), rel=1e-12)

    def test_block_sparse_never_charges_more(self):
        a, b, axes = block_sparse_pair()
        plan = build_plan(a, b, axes)
        w_agg, w_plan = make_world(), make_world()
        s_agg = w_agg.charge_sparse_contraction(plan.total_flops, a.nnz,
                                                b.nnz, plan.out_nnz)
        s_plan = w_plan.charge_planned_contraction(plan)
        assert s_plan <= s_agg * (1.0 + 1e-12)
        # same kernel time (same flops), so any saving is communication-side
        assert w_plan.profiler.flops == w_agg.profiler.flops

    def test_list_algorithm_matches_per_pair_charges(self):
        a, b, axes = block_sparse_pair()
        plan = build_plan(a, b, axes)
        cost = lower_plan(plan)
        w_plan, w_manual = make_world(), make_world()
        s_plan = w_plan.charge_planned_contraction(plan, algorithm="list")
        # same per-pair recipe the list backend uses: each pair priced under
        # its own 2D-vs-3D mapping decision
        s_manual = sum(
            w_manual.charge_block_contraction(
                p.flops, p.words_a, p.words_b, p.words_c,
                num_blocks=cost.npairs,
                largest_block_share=cost.largest_pair_share,
                mapping=decision)
            for p, decision in zip(cost.pairs, w_manual.pair_decisions(cost)))
        assert s_plan == pytest.approx(s_manual, rel=1e-12)
        assert w_plan.profiler.total_seconds() == pytest.approx(
            w_manual.profiler.total_seconds(), rel=1e-12)

    def test_list_algorithm_matches_list_backend_execution(self):
        """Modelled list pricing equals what ListBackend actually charges."""
        from repro.backends import ListBackend
        a, b, axes = block_sparse_pair()
        w_backend, w_model = make_world(), make_world()
        ListBackend(w_backend).contract(a, b, axes)
        w_model.charge_planned_contraction(build_plan(a, b, axes),
                                           algorithm="list")
        assert w_backend.profiler.as_dict() == pytest.approx(
            w_model.profiler.as_dict(), rel=1e-12)

    def test_empty_plan_charges_nothing(self):
        rng = np.random.default_rng(11)
        ix = Index([(0,)], [3], flow=1)
        never = Index([(7,)], [2], flow=1)
        a = BlockSparseTensor.random((ix, never.dual()), flux=(-7,), rng=rng)
        b = BlockSparseTensor.random((never, ix.dual()), flux=(7,), rng=rng)
        b.blocks.clear()
        plan = build_plan(a, b, ([1], [0]))
        world = make_world()
        assert world.charge_planned_contraction(plan) == 0.0
        assert world.modelled_seconds() == 0.0

    def test_accepts_pre_lowered_plan_cost(self):
        a, b, axes = block_sparse_pair()
        plan = build_plan(a, b, axes)
        cost = lower_plan(plan)
        w_plan, w_cost = make_world(), make_world()
        s_plan = w_plan.charge_planned_contraction(
            plan, operand_nnz=(a.nnz, b.nnz))
        s_cost = w_cost.charge_planned_contraction(
            cost, operand_nnz=(a.nnz, b.nnz))
        assert s_cost == pytest.approx(s_plan, rel=1e-12)

    def test_unknown_algorithm_rejected(self):
        a, b, axes = dense_pair()
        plan = build_plan(a, b, axes)
        with pytest.raises(ValueError):
            make_world().charge_planned_contraction(plan, algorithm="summa")


# --------------------------------------------------------------------------- #
# plan-aware redistribution
# --------------------------------------------------------------------------- #
class TestPlanAwareRedistribution:
    def test_strictly_less_than_dense_aggregate_bound(self):
        """(b) block-sparse plans beat the dense-aggregate bound strictly."""
        a, b, axes = block_sparse_pair()
        plan = build_plan(a, b, axes)
        w_dense, w_plan = make_world(), make_world()
        s_dense = w_dense.charge_redistribution(b.dense_size)
        s_plan = w_plan.charge_redistribution(plan=plan, operand="b")
        assert redistribution_words(plan, "b") < b.dense_size
        assert s_plan < s_dense
        assert w_plan.profiler.comm_words < w_dense.profiler.comm_words

    def test_aggregate_elements_cap_planned_volume(self):
        a, b, axes = block_sparse_pair()
        plan = build_plan(a, b, axes)
        w_capped, w_small = make_world(), make_world()
        s_capped = w_capped.charge_redistribution(1.0, plan=plan, operand="b")
        assert s_capped == pytest.approx(w_small.charge_redistribution(1.0))

    def test_requires_elements_or_plan(self):
        with pytest.raises(ValueError):
            make_world().charge_redistribution()

    def test_plain_aggregate_path_unchanged(self):
        w1, w2 = make_world(), make_world()
        assert w1.charge_redistribution(12345.0) == pytest.approx(
            w2.charge_redistribution(12345.0))


# --------------------------------------------------------------------------- #
# plan-driven mapping decisions
# --------------------------------------------------------------------------- #
class TestPlanDrivenMapping:
    def test_decision_deterministic_for_fixed_plan(self, model):
        """(c) the same plan always yields the identical decision."""
        a, b, axes = block_sparse_pair()
        plan = build_plan(a, b, axes)
        decisions = [choose_plan_mapping(plan, 64, model) for _ in range(3)]
        assert decisions[0] == decisions[1] == decisions[2]
        # a structurally identical plan built from scratch agrees too
        rebuilt = build_plan(a, b, axes)
        assert choose_plan_mapping(rebuilt, 64, model) == decisions[0]

    def test_single_pair_matches_shape_scorer(self, model):
        # for a one-pair plan the resident share equals the pair's own
        # operand/output words, so the plan scorer reduces exactly to the
        # aggregate-shape scorer
        a, b, axes = dense_pair()
        plan = build_plan(a, b, axes)
        cost = lower_plan(plan)
        by_plan = choose_plan_mapping(plan, 64, model)
        by_shape = choose_mapping(cost.pairs[0].shape, 64, model)
        assert by_plan == by_shape

    def test_plan_candidates_aggregate_pair_costs(self, model):
        shapes = (GemmShape(64, 64, 64), GemmShape(8, 8, 8))
        resident = sum(s.total_words for s in shapes) / 64
        cands = plan_candidate_mappings(shapes, 64, model,
                                        resident_words_per_rank=resident)
        # bit for bit: the array scorer adds in the per-pair loop's order
        assert cands == oracle_plan_candidates(shapes, 64, model, resident)
        assert all(type(v) is float
                   for c in cands for v in (c.seconds, c.words_per_rank,
                                            c.supersteps,
                                            c.memory_words_per_rank))

    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.tuples(st.integers(1, 4096), st.integers(1, 4096),
                                   st.integers(1, 4096)),
                         min_size=1, max_size=300),
           nprocs=st.sampled_from([1, 2, 16, 64, 1000, 4096]),
           resident=st.floats(0.0, 1e9),
           budgeted=st.booleans())
    def test_array_scorer_matches_per_pair_oracle(self, dims, nprocs,
                                                  resident, budgeted):
        """Every field of every candidate, and the chosen decision, equal
        the per-pair scalar oracle exactly (1 and 1000 ranks: no replicated
        candidate, and a cube root that is not a power of two)."""
        shapes = [GemmShape(*d) for d in dims]
        cands = plan_candidate_mappings(shapes, nprocs, MODEL, resident)
        expected = oracle_plan_candidates(shapes, nprocs, MODEL, resident)
        assert cands == expected
        budget = None
        if budgeted:
            budget = float(np.median([c.memory_words_per_rank
                                      for c in expected]))
        chosen = choose_mapping(None, nprocs, MODEL,
                                memory_words_per_rank=budget,
                                pair_shapes=shapes,
                                resident_words_per_rank=resident)
        assert chosen == oracle_choose(expected, budget)

    def test_plan_scoring_is_not_per_pair(self, monkeypatch):
        """Scoring a plan prices each candidate family once, not per pair."""
        calls = []
        real = mapping_module.summa_25d

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(mapping_module, "summa_25d", counting)
        counts = []
        for npairs in (60, 240):
            calls.clear()
            shapes = [GemmShape(8 + i, 16, 4 + i % 7) for i in range(npairs)]
            choose_plan_mapping(synthetic_plan_cost(shapes), 64, MODEL)
            counts.append(len(calls))
        # 64 ranks: the 2.5D (c=2) and 3D (c=4) families, whatever the size
        assert counts == [2, 2]

    def test_resident_blocks_enforce_memory_floor(self, model):
        """A budget below the owned-block share forces the 2D fallback.

        Every rank holds its share of all distinct touched blocks no matter
        which SUMMA variant runs, so a budget below that floor must degrade
        the plan-driven decision to the smallest-footprint (2D) candidate —
        the paper's memory-limited Cyclops behaviour — instead of approving
        a replicated mapping that cannot fit.
        """
        a, b, axes = block_sparse_pair(192)
        plan = build_plan(a, b, axes)
        cost = lower_plan(plan)
        nprocs = 64
        budget = 0.5 * cost.touched_words / nprocs
        decision = choose_plan_mapping(plan, nprocs, model,
                                       memory_words_per_rank=budget)
        assert decision.algorithm == "summa-2d"
        assert decision.replication == 1
        cands = plan_candidate_mappings(cost.pair_shapes, nprocs, model,
                                        cost.touched_words / nprocs)
        assert all(decision.memory_words_per_rank <=
                   c.memory_words_per_rank for c in cands)

    def test_memory_budget_limits_replication(self, model):
        a, b, axes = block_sparse_pair(192)
        plan = build_plan(a, b, axes)
        unconstrained = choose_plan_mapping(plan, 64, model)
        tight = choose_plan_mapping(plan, 64, model,
                                    memory_words_per_rank=1.0)
        assert tight.memory_words_per_rank <= \
            unconstrained.memory_words_per_rank

    def test_choose_mapping_requires_shape_or_pairs(self, model):
        with pytest.raises(ValueError):
            choose_mapping(None, 64, model)
        with pytest.raises(ValueError):
            choose_plan_mapping(PlanCost((), 0.0, 0.0, 0.0, 0.0, 1.0),
                                64, model)


# --------------------------------------------------------------------------- #
# mapping decisions memoized on the lowered plan
# --------------------------------------------------------------------------- #
class TestMappingMemo:
    @pytest.fixture
    def scorings(self, monkeypatch):
        calls = []
        real = mapping_module.candidate_mappings

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(mapping_module, "candidate_mappings", counting)
        return calls

    def test_recharging_a_plan_never_rescores_it(self, scorings):
        a, b, axes = block_sparse_pair()
        plan = build_plan(a, b, axes)
        world = make_world()
        for _ in range(3):
            world.charge_planned_contraction(
                plan, operand_nnz=(a.nnz, b.nnz), operand_keys=("a", "b"),
                out_key="c")
        assert len(scorings) == 1
        # scoring many other plans evicts nothing: the memo lives on the plan
        for i in range(600):
            world.preferred_mapping(synthetic_plan_cost([GemmShape(i + 1, 3,
                                                                   5)]))
        assert len(scorings) == 601
        world.charge_planned_contraction(
            plan, operand_nnz=(a.nnz, b.nnz), operand_keys=("a", "b"))
        assert len(scorings) == 601

    def test_each_world_gets_its_own_decision(self):
        a, b, axes = block_sparse_pair(192)
        cost = lower_plan(build_plan(a, b, axes))
        worlds = [make_world(),
                  SimWorld(nodes=4, procs_per_node=16, machine=STAMPEDE2),
                  SimWorld(nodes=2, procs_per_node=4, machine=BLUE_WATERS)]
        for _ in range(2):
            for w in worlds:
                model = w.collective_model()
                assert w.preferred_mapping(cost) == choose_plan_mapping(
                    cost, w.nprocs, model)
                assert w.pair_decisions(cost) == pair_mapping_decisions(
                    cost, w.nprocs, model)
        grids = {w.preferred_mapping(cost).grid for w in worlds}
        assert len(grids) >= 2
        assert len(cost.decisions) == 2 * len(worlds)

    def test_equal_machines_share_decisions(self):
        a, b, axes = block_sparse_pair()
        cost = lower_plan(build_plan(a, b, axes))
        first, second = make_world(), make_world()
        assert first.preferred_mapping(cost) is second.preferred_mapping(cost)
        assert len(cost.decisions) == 1


# --------------------------------------------------------------------------- #
# backends exercise the plan-aware path
# --------------------------------------------------------------------------- #
class TestBackendCharging:
    def test_sparse_sparse_backend_charges_planned_cost(self):
        a, b, axes = block_sparse_pair()
        world = make_world()
        backend = make_backend("sparse-sparse", world)
        result = backend.contract(a, b, axes)
        plan = build_plan(a, b, axes)
        reference = make_world()
        # one shared recipe: operand remapping + planned contraction
        expected = reference.charge_planned_contraction(
            plan, operand_nnz=(a.nnz, b.nnz))
        assert world.modelled_seconds() == pytest.approx(expected, rel=1e-12)
        # numerics still exact: compare against the direct backend
        direct = make_backend("direct").contract(a, b, axes)
        assert np.allclose(result.to_dense(), direct.to_dense())

    def test_backend_and_shapesim_price_identically(self):
        """Real execution and shape-level simulation share one cost model."""
        a, b, axes = block_sparse_pair()
        w_backend = make_world()
        make_backend("sparse-sparse", w_backend).contract(a, b, axes)
        w_shape = make_world()
        charge_contraction(w_shape, "sparse-sparse",
                           ShapeTensor.from_block_tensor(a),
                           ShapeTensor.from_block_tensor(b), axes,
                           plan_aware=True)
        assert w_backend.modelled_seconds() == pytest.approx(
            w_shape.modelled_seconds(), rel=1e-12)
        assert w_backend.profiler.as_dict() == pytest.approx(
            w_shape.profiler.as_dict(), rel=1e-12)

    def test_sparse_dense_backend_sparse_branch_is_plan_aware(self):
        # order-2/3 operands stay below the Davidson-intermediate order,
        # so the sparse (plan-aware) branch prices the contraction
        a, b, axes = block_sparse_pair()
        world = make_world()
        backend = make_backend("sparse-dense", world)
        backend.contract(a, b, axes)
        plan = build_plan(a, b, axes)
        reference = make_world()
        expected = reference.charge_planned_contraction(
            plan, algorithm="sparse-dense")
        assert world.modelled_seconds() == pytest.approx(expected, rel=1e-12)


# --------------------------------------------------------------------------- #
# shape-level simulation in plan-aware mode
# --------------------------------------------------------------------------- #
class TestShapesimPlanAware:
    def test_output_structure_matches_aggregate_path(self):
        gbm = GeometricBlockModel.electrons()
        bond = gbm.bond_index(64)
        phys = Index([(0,), (1,)], [1, 1], flow=1)
        env = ShapeTensor((bond.with_flow(1), bond.dual()))
        x = ShapeTensor((bond.with_flow(1), phys, bond.dual()))
        out_agg, f_agg = charge_contraction(make_world(), "sparse-sparse",
                                            env, x, ([1], [0]))
        out_plan, f_plan = charge_contraction(make_world(), "sparse-sparse",
                                              env, x, ([1], [0]),
                                              plan_aware=True)
        assert f_plan == pytest.approx(f_agg)
        assert set(out_plan.blocks) == set(out_agg.blocks)
        assert out_plan.nnz == out_agg.nnz

    def test_list_algorithm_modes_agree_up_to_pair_mappings(self):
        """Both modes visit the same pairs with the same flops; plan-aware
        mode additionally applies the per-pair 2D-vs-3D mapping crossover
        (the aggregate path keeps Table II's all-3D assumption), so kernel
        time and flops agree exactly while communication/transposition may
        differ only through the mapping decision."""
        gbm = GeometricBlockModel.spins()
        bond = gbm.bond_index(48)
        phys = Index([(0,), (1,)], [1, 1], flow=1)
        env = ShapeTensor((bond.with_flow(1), bond.dual()))
        x = ShapeTensor((bond.with_flow(1), phys, bond.dual()))
        w_agg, w_plan = make_world(), make_world()
        _, f_agg = charge_contraction(w_agg, "list", env, x, ([1], [0]))
        _, f_plan = charge_contraction(w_plan, "list", env, x, ([1], [0]),
                                       plan_aware=True)
        assert f_plan == pytest.approx(f_agg)
        assert w_plan.profiler.flops == pytest.approx(w_agg.profiler.flops)
        assert w_plan.profiler.seconds["gemm"] == pytest.approx(
            w_agg.profiler.seconds["gemm"], rel=1e-12)
        assert w_plan.profiler.seconds["imbalance"] == pytest.approx(
            w_agg.profiler.seconds["imbalance"], rel=1e-12)
        # 2D-mapped small pairs skip the output refold
        assert w_plan.profiler.seconds["transposition"] <= \
            w_agg.profiler.seconds["transposition"] + 1e-15

    def test_plan_cache_reuses_shape_plans(self):
        bond = GeometricBlockModel.spins().bond_index(32)
        env = ShapeTensor((bond.with_flow(1), bond.dual()))
        x = ShapeTensor((bond.with_flow(1), Index.trivial(2, 1),
                         bond.dual()))
        p1 = plan_shape_contraction(env, x, ([1], [0]))
        p2 = plan_shape_contraction(env, x, ([1], [0]))
        assert p1 is p2

    def test_model_dmrg_step_plan_aware_not_worse(self):
        from repro.perf import get_system
        from repro.perf.scaling import plan_aware_comparison
        system = get_system("spins", small=True)
        cmp = plan_aware_comparison(system, 64, BLUE_WATERS, 8,
                                    "sparse-sparse")
        assert cmp["plan_aware"].seconds <= \
            cmp["aggregate"].seconds * (1.0 + 1e-12)
        assert cmp["plan_aware"].useful_flops == pytest.approx(
            cmp["aggregate"].useful_flops)
        assert cmp["plan_aware"].plan_aware
        assert not cmp["aggregate"].plan_aware


# --------------------------------------------------------------------------- #
# geometric bond index + CLI smoke check
# --------------------------------------------------------------------------- #
class TestSupportingPieces:
    def test_geometric_bond_index_realizes_block_dims(self):
        gbm = GeometricBlockModel.electrons()
        ix = gbm.bond_index(200)
        assert list(ix.dims) == gbm.block_dims(200)
        assert ix.nsym == 1
        assert ix.can_contract_with(ix.dual())

    def test_plan_cost_smoke_check_invariants(self):
        from repro.perf.plan_bench import (format_plan_cost_check,
                                           run_plan_cost_check)
        stats = run_plan_cost_check(m=64, nodes=2)
        assert stats["dense_equal"]
        assert stats["block_not_worse"]
        assert stats["redis_strictly_less"]
        text = format_plan_cost_check(stats)
        assert "plan-aware" in text.lower()
