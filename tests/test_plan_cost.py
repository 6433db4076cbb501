"""Tests for the plan-aware distributed cost model.

Covers the block-aligned word counts a contraction plan carries
(``repro.ctf.plan_cost``), the plan-aware charging methods of
:class:`SimWorld`, the plan-driven candidate scorer ``choose_plan_mapping``,
and the one contraction recipe the backends and the shape-level scaling
simulation share.  The three acceptance properties:

(a) plan-aware totals equal the aggregate model for a single dense block,
(b) block-sparse plans price strictly less redistribution than the
    dense-aggregate bound,
(c) ``choose_plan_mapping`` decisions are deterministic for a fixed plan.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import make_backend
from repro.ctf import (BLUE_WATERS, STAMPEDE2, CollectiveModel, GemmShape,
                       MappingDecision, SimWorld, candidate_mappings,
                       choose_mapping, choose_plan_mapping,
                       pair_mapping_decisions, plan_candidate_mappings,
                       redistribution_words)
from repro.ctf import mapping as mapping_module
from repro.ctf.mapping import cheapest_fitting
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


def pair_columns(shapes) -> GemmShape:
    """One array-valued ``GemmShape`` holding the given per-pair shapes."""
    return GemmShape(*np.array([(s.m, s.n, s.k) for s in shapes],
                               dtype=float).reshape(-1, 3).T)


def synthetic_plan(shapes):
    """A stand-in plan carrying only the pair columns and block words that
    the cost model reads: each pair owns its own A, B and output block."""
    m, n, k = np.array([(s.m, s.n, s.k) for s in shapes],
                       dtype=np.int64).reshape(-1, 3).T
    return SimpleNamespace(npairs=len(shapes), pair_m=m, pair_n=n, pair_k=k,
                           pair_flops=2.0 * m * k * n,
                           a_words=int((m * k).sum()),
                           b_words=int((k * n).sum()),
                           out_nnz=int((m * n).sum()), decisions={})


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


def order4_pair(m: int = 48):
    """The Davidson environment x two-site tensor contraction: the order-4
    operand and output are ``sparse-dense`` intermediates."""
    rng = np.random.default_rng(7)
    bond = GeometricBlockModel.spins().bond_index(m)
    phys = Index([(0,), (1,)], [1, 1], flow=1)
    env = BlockSparseTensor.random((bond.with_flow(1), bond.dual()),
                                   flux=(0,), rng=rng)
    x = BlockSparseTensor.random((bond.with_flow(1), phys, phys,
                                  bond.dual()), flux=(0,), rng=rng)
    return env, x, ([1], [0])


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
# the plan's block-aligned word counts
# --------------------------------------------------------------------------- #
class TestLowerPlan:
    def test_dense_block_matches_aggregate_quantities(self):
        a, b, axes = dense_pair()
        plan = build_plan(a, b, axes)
        assert plan.npairs == 1
        assert plan.a_words == a.nnz == a.dense_size
        assert plan.b_words == b.nnz == b.dense_size
        assert GemmShape(plan.pair_m[0], plan.pair_n[0], plan.pair_k[0]) == \
            GemmShape(24, 12, 16)

    def test_block_sparse_touched_words_bounded_by_nnz(self):
        a, b, axes = block_sparse_pair()
        plan = build_plan(a, b, axes)
        assert plan.npairs > 1
        assert plan.a_words <= a.nnz
        assert plan.b_words <= b.nnz
        assert redistribution_words(plan) == (plan.a_words + plan.b_words +
                                              plan.out_nnz)
        assert plan.pair_flops.sum() == pytest.approx(plan.total_flops)

    def test_redistribution_words_operands(self):
        a, b, axes = block_sparse_pair()
        plan = build_plan(a, b, axes)
        words = {op: redistribution_words(plan, op)
                 for op in ("a", "b", "out", "all")}
        assert words == {"a": plan.a_words, "b": plan.b_words,
                         "out": plan.out_nnz,
                         "all": plan.a_words + plan.b_words + plan.out_nnz}
        assert all(type(w) is float for w in words.values())
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
        w_plan, w_manual = make_world(), make_world()
        s_plan = w_plan.charge_planned_contraction(plan, algorithm="list")
        # same per-pair recipe the list backend uses: each pair priced under
        # its own 2D-vs-3D mapping decision
        s_manual = sum(
            w_manual.charge_block_contraction(
                2.0 * m * k * n, m * k, k * n, m * n,
                num_blocks=plan.npairs,
                largest_block_share=plan.largest_pair_share,
                mapping=decision)
            for m, k, n, decision in zip(
                plan.pair_m.tolist(), plan.pair_k.tolist(),
                plan.pair_n.tolist(), w_manual.pair_decisions(plan)))
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

    def test_unknown_algorithm_rejected(self):
        a, b, axes = dense_pair()
        plan = build_plan(a, b, axes)
        with pytest.raises(ValueError):
            make_world().charge_planned_contraction(plan, algorithm="summa")

    def test_unknown_algorithm_charges_and_records_nothing(self):
        """The algorithm is validated before any operand remap is charged
        or any output layout is recorded."""
        a, b, axes = block_sparse_pair()
        plan = build_plan(a, b, axes)
        world = make_world()
        layouts = world.layout_tracker.snapshot()
        with pytest.raises(ValueError):
            world.charge_planned_contraction(
                plan, algorithm="summa", operand_nnz=(a.nnz, b.nnz),
                operand_keys=("a", "b"), out_key="c")
        assert world.profiler.total_seconds() == 0.0
        assert world.layout_tracker.snapshot() == layouts


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
        by_plan = choose_plan_mapping(plan, 64, model)
        by_shape = choose_mapping(GemmShape(24, 12, 16), 64, model)
        assert by_plan == by_shape

    def test_plan_candidates_aggregate_pair_costs(self, model):
        shapes = (GemmShape(64, 64, 64), GemmShape(8, 8, 8))
        resident = sum(s.total_words for s in shapes) / 64
        cands = plan_candidate_mappings(pair_columns(shapes), 64, model,
                                        resident_words_per_rank=resident)
        # bit for bit: the array scorer adds in the per-pair loop's order
        expected = oracle_plan_candidates(shapes, 64, model, resident)
        assert cands == expected
        assert all(type(v) is float
                   for c in cands for v in (c.seconds, c.words_per_rank,
                                            c.supersteps,
                                            c.memory_words_per_rank))
        # the plan scorer reads the same pair columns and resident share
        assert choose_plan_mapping(synthetic_plan(shapes), 64, model) == \
            oracle_choose(expected)

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
        cands = plan_candidate_mappings(pair_columns(shapes), nprocs, MODEL,
                                        resident)
        expected = oracle_plan_candidates(shapes, nprocs, MODEL, resident)
        assert cands == expected
        budget = None
        if budgeted:
            budget = float(np.median([c.memory_words_per_rank
                                      for c in expected]))
        assert cheapest_fitting(cands, budget) == oracle_choose(expected,
                                                                budget)

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
            choose_plan_mapping(synthetic_plan(shapes), 64, MODEL)
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
        nprocs = 64
        touched = redistribution_words(plan)
        budget = 0.5 * touched / nprocs
        decision = choose_plan_mapping(plan, nprocs, model,
                                       memory_words_per_rank=budget)
        assert decision.algorithm == "summa-2d"
        assert decision.replication == 1
        pairs = GemmShape(plan.pair_m.astype(float),
                          plan.pair_n.astype(float),
                          plan.pair_k.astype(float))
        cands = plan_candidate_mappings(pairs, nprocs, model,
                                        touched / nprocs)
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
        with pytest.raises(ValueError, match="empty plan"):
            choose_plan_mapping(synthetic_plan([]), 64, model)


# --------------------------------------------------------------------------- #
# mapping decisions memoized on the plan
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
            world.preferred_mapping(synthetic_plan([GemmShape(i + 1, 3, 5)]))
        assert len(scorings) == 601
        world.charge_planned_contraction(
            plan, operand_nnz=(a.nnz, b.nnz), operand_keys=("a", "b"))
        assert len(scorings) == 601

    def test_each_world_gets_its_own_decision(self):
        a, b, axes = block_sparse_pair(192)
        plan = build_plan(a, b, axes)
        worlds = [make_world(),
                  SimWorld(nodes=4, procs_per_node=16, machine=STAMPEDE2),
                  SimWorld(nodes=2, procs_per_node=4, machine=BLUE_WATERS)]
        for _ in range(2):
            for w in worlds:
                model = w.collective_model()
                assert w.preferred_mapping(plan) == choose_plan_mapping(
                    plan, w.nprocs, model)
                assert w.pair_decisions(plan) == pair_mapping_decisions(
                    plan, w.nprocs, model)
        grids = {w.preferred_mapping(plan).grid for w in worlds}
        assert len(grids) >= 2
        assert len(plan.decisions) == 2 * len(worlds)

    def test_equal_machines_share_decisions(self):
        a, b, axes = block_sparse_pair()
        plan = build_plan(a, b, axes)
        first, second = make_world(), make_world()
        assert first.preferred_mapping(plan) is second.preferred_mapping(plan)
        assert len(plan.decisions) == 1


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

    @pytest.mark.parametrize("algorithm",
                             ["list", "sparse-dense", "sparse-sparse"])
    @pytest.mark.parametrize("pair", ["block-sparse", "order-4"])
    def test_backend_and_shapesim_price_identically(self, algorithm, pair):
        """Real execution and shape-level simulation share one cost model,
        also where ``sparse-dense`` prices an order-4 intermediate dense."""
        a, b, axes = (block_sparse_pair() if pair == "block-sparse"
                      else order4_pair())
        w_backend = make_world()
        make_backend(algorithm, w_backend).contract(a, b, axes)
        w_shape = make_world()
        _, flops = charge_contraction(w_shape, algorithm,
                                      ShapeTensor.from_block_tensor(a),
                                      ShapeTensor.from_block_tensor(b), axes)
        assert w_backend.profiler.as_dict() == w_shape.profiler.as_dict()
        assert flops == build_plan(a, b, axes).total_flops

    def test_sparse_dense_backend_sparse_branch_is_planned(self):
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
# shape-level simulation
# --------------------------------------------------------------------------- #
class TestShapesimPlanAware:
    def test_plan_cache_reuses_shape_plans(self):
        bond = GeometricBlockModel.spins().bond_index(32)
        env = ShapeTensor((bond.with_flow(1), bond.dual()))
        x = ShapeTensor((bond.with_flow(1), Index.trivial(2, 1),
                         bond.dual()))
        p1 = plan_shape_contraction(env, x, ([1], [0]))
        p2 = plan_shape_contraction(env, x, ([1], [0]))
        assert p1 is p2


# --------------------------------------------------------------------------- #
# geometric bond index
# --------------------------------------------------------------------------- #
class TestSupportingPieces:
    def test_geometric_bond_index_realizes_block_dims(self):
        gbm = GeometricBlockModel.electrons()
        ix = gbm.bond_index(200)
        assert list(ix.dims) == gbm.block_dims(200)
        assert ix.nsym == 1
        assert ix.can_contract_with(ix.dual())
