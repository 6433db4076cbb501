"""Tests for the compiled Davidson matvec (symmetry/matvec.py).

Covers the PR's acceptance contract: the compiled pipeline equals the naive
chained ``backend.contract`` path to 1e-12 across every backend and dtype,
arena buffer reuse never corrupts previously returned Davidson vectors, and
the compiled path replays the chained path's cost accounting (plan-cache
statistics, layout-tracker traffic, modelled seconds) exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (DirectBackend, ListBackend, SparseDenseBackend,
                            SparseSparseBackend)
from repro.ctf import BLUE_WATERS, SimWorld
from repro.dmrg import (DMRGConfig, EffectiveHamiltonian, Sweeps, davidson,
                        dmrg)
from repro.models import heisenberg_chain_model
from repro.mps import MPS, build_mpo
from repro.symmetry import BlockSparseTensor
from repro.symmetry.matvec import (MatvecCompiler, MatvecStage,
                                   WorkspaceArena)

DTYPES = [np.float32, np.float64, np.complex64, np.complex128]


def _cast(t: BlockSparseTensor, dtype) -> BlockSparseTensor:
    return BlockSparseTensor(
        t.indices, {k: v.astype(dtype) for k, v in t.blocks.items()},
        flux=t.flux, dtype=dtype, check=False)


def _heff_operands(nsites=8, maxdim=12, seed=3):
    from repro.perf.matvec_bench import heff_setup
    return heff_setup(nsites, maxdim, seed=seed)


def _backends():
    yield "direct", DirectBackend()
    world = SimWorld(nodes=2, procs_per_node=8, machine=BLUE_WATERS)
    yield "list", ListBackend(world)
    world = SimWorld(nodes=2, procs_per_node=8, machine=BLUE_WATERS)
    yield "sparse-dense", SparseDenseBackend(world)
    world = SimWorld(nodes=2, procs_per_node=8, machine=BLUE_WATERS)
    yield "sparse-sparse", SparseSparseBackend(world)


class TestCompiledMatvecEquality:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_compiled_equals_chained_all_backends(self, dtype):
        """Compiled pipeline == naive chained contract to 1e-12, all dtypes."""
        ops = _heff_operands()
        for name, backend in _backends():
            casted = [_cast(t, dtype) for t in ops]
            left, w1, w2, right, x = casted
            heff_plain = EffectiveHamiltonian(left, (w1, w2), right,
                                              DirectBackend(), compile=False)
            heff_comp = EffectiveHamiltonian(left, (w1, w2), right, backend,
                                             compile=True)
            y_ref = heff_plain.apply(x)
            y_trace = heff_comp.apply(x)      # traced (chained) application
            y_comp = heff_comp.apply(x)       # compiled application
            assert backend.matvec_counters.compiled_applies > 0, name
            assert y_comp.dtype == y_ref.dtype
            scale = max(y_ref.norm(), 1.0)
            assert (y_trace - y_ref).norm() <= 1e-12 * scale, (name, dtype)
            assert (y_comp - y_ref).norm() <= 1e-12 * scale, (name, dtype)
            heff_comp.release()

    def test_compiled_handles_changing_signatures(self):
        """Davidson residuals grow new blocks; each signature gets a program."""
        left, w1, w2, right, x = _heff_operands()
        backend = DirectBackend()
        heff = EffectiveHamiltonian(left, (w1, w2), right, backend)
        y = heff.apply(x)            # traced for x's signature
        z = heff.apply(y)            # y usually has more blocks: new trace
        z2 = heff.apply(y)           # now compiled
        ref = EffectiveHamiltonian(left, (w1, w2), right, DirectBackend(),
                                   compile=False)
        assert (z2 - ref.apply(y)).norm() <= 1e-12 * max(z.norm(), 1.0)
        heff.release()
        assert backend.matvec_counters.releases >= 1

    def test_davidson_through_compiled_heff_matches(self):
        left, w1, w2, right, x = _heff_operands()
        res_comp = davidson(
            EffectiveHamiltonian(left, (w1, w2), right, DirectBackend()),
            x, max_iterations=3, rng=np.random.default_rng(0))
        res_ref = davidson(
            EffectiveHamiltonian(left, (w1, w2), right, DirectBackend(),
                                 compile=False),
            x, max_iterations=3, rng=np.random.default_rng(0))
        assert res_comp.eigenvalue == pytest.approx(res_ref.eigenvalue,
                                                    abs=1e-10)

    def test_naive_backend_falls_back_to_chained(self):
        """No plan cache -> no compilation, plain Algorithm-2 semantics."""
        left, w1, w2, right, x = _heff_operands()
        backend = DirectBackend(use_planner=False)
        heff = EffectiveHamiltonian(left, (w1, w2), right, backend)
        heff.apply(x)
        heff.apply(x)
        assert backend.matvec_counters.compiles == 0
        assert backend.matvec_counters.traced_applies == 2

    def test_sparse_execution_mode_refuses_compilation(self):
        world = SimWorld(nodes=2, procs_per_node=8, machine=BLUE_WATERS)
        backend = SparseSparseBackend(world, execute_sparse=True)
        assert not backend.supports_compiled_matvec()
        backend_plain = SparseSparseBackend(world)
        assert backend_plain.supports_compiled_matvec()


class TestAliasingSafety:
    def test_arena_reuse_never_corrupts_previous_results(self):
        """Compiled outputs own their memory: later matvecs leave them alone."""
        left, w1, w2, right, x = _heff_operands()
        backend = DirectBackend()
        heff = EffectiveHamiltonian(left, (w1, w2), right, backend)
        heff.apply(x)                       # trace
        y1 = heff.apply(x)                  # compiled
        frozen = {k: v.copy() for k, v in y1.blocks.items()}
        rng = np.random.default_rng(9)
        for _ in range(4):
            x2 = BlockSparseTensor(
                x.indices,
                {k: rng.standard_normal(v.shape) for k, v in x.blocks.items()},
                flux=x.flux, check=False)
            y2 = heff.apply(x2)
            for key, blk in y2.blocks.items():
                if key in y1.blocks:
                    assert not np.shares_memory(blk, y1.blocks[key])
        for key, blk in frozen.items():
            np.testing.assert_array_equal(y1.blocks[key], blk)

    def test_davidson_basis_survives_many_compiled_matvecs(self):
        """The h_basis vectors retained by Davidson stay bit-identical."""
        left, w1, w2, right, x = _heff_operands()
        heff = EffectiveHamiltonian(left, (w1, w2), right, DirectBackend())
        heff.apply(x)                       # trace x's signature
        outputs = []
        copies = []
        for scale in (1.0, 2.0, -0.5, 3.0):
            y = heff.apply(x * scale)
            outputs.append(y)
            copies.append({k: v.copy() for k, v in y.blocks.items()})
        for y, frozen in zip(outputs, copies):
            for key, blk in frozen.items():
                np.testing.assert_array_equal(y.blocks[key], blk)

    def test_release_returns_buffers_to_pool(self):
        left, w1, w2, right, x = _heff_operands()
        backend = DirectBackend()
        heff = EffectiveHamiltonian(left, (w1, w2), right, backend)
        heff.apply(x)
        arena = backend.workspace_arena
        acquired_before_release = arena.acquires
        assert acquired_before_release > 0
        heff.release()
        snap = arena.snapshot()
        assert snap["releases"] == acquired_before_release
        assert snap["pooled_buffers"] > 0
        # a new bond with the same shapes recycles the pooled buffers
        heff2 = EffectiveHamiltonian(left, (w1, w2), right, backend)
        heff2.apply(x)
        assert arena.reuses > 0
        heff2.release()


class TestWorkspaceArena:
    def test_acquire_reuses_released_buffers(self):
        arena = WorkspaceArena()
        a = arena.acquire((4, 6), np.float64)
        a[...] = 1.0
        arena.release(a)
        b = arena.acquire((6, 4), np.float64)   # same size, new shape
        assert arena.reuses == 1
        assert np.shares_memory(a, b)
        c = arena.acquire((4, 6), np.float32)   # different dtype: fresh
        assert not np.shares_memory(b, c)
        assert arena.snapshot()["acquires"] == 3

    def test_pool_is_bounded(self):
        arena = WorkspaceArena(max_pool_per_key=2)
        bufs = [arena.acquire((8,), np.float64) for _ in range(5)]
        for buf in bufs:
            arena.release(buf)
        assert arena.snapshot()["pooled_buffers"] == 2

    def test_double_release_raises(self):
        # once programs and the sweep driver share one arena, releasing the
        # same buffer twice would pool it twice and hand the bytes to two
        # live holders — the guard must catch it at the second release
        arena = WorkspaceArena()
        a = arena.acquire((4, 4), np.float64)
        arena.release(a)
        with pytest.raises(ValueError, match="double release"):
            arena.release(a)
        # a release of a view over the same bytes is the same hazard
        b = arena.acquire((4, 4), np.float64)   # reuse: un-pools the buffer
        assert np.shares_memory(a, b)
        arena.release(b)
        with pytest.raises(ValueError, match="double release"):
            arena.release(b.reshape(16))
        # clear() empties the pool; the old buffer can be released again
        # without tripping the guard once it is genuinely outside the pool
        arena.clear()
        assert arena.snapshot()["pooled_buffers"] == 0
        arena.release(b)
        assert arena.snapshot()["pooled_buffers"] == 1


class TestCostAccountingParity:
    def test_plan_cache_stats_identical(self):
        lattice, sites, opsum, cs = heisenberg_chain_model(8)
        mpo = build_mpo(opsum, sites, compress=True)
        psi0 = MPS.product_state(sites, cs)
        sweeps = Sweeps.fixed(16, 3, cutoff=1e-10)
        res_on, _ = dmrg(mpo, psi0, DMRGConfig(sweeps=sweeps),
                         backend=DirectBackend(),
                         rng=np.random.default_rng(1))
        res_off, _ = dmrg(mpo, psi0,
                          DMRGConfig(sweeps=sweeps, compile_matvec=False),
                          backend=DirectBackend(),
                          rng=np.random.default_rng(1))
        assert res_on.energy == pytest.approx(res_off.energy, abs=1e-10)
        for name in ("plan_cache.hits", "plan_cache.misses"):
            assert res_on.metrics[name] == res_off.metrics[name]
            for r_on, r_off in zip(res_on.sweep_records,
                                   res_off.sweep_records):
                assert r_on.metrics[name] == r_off.metrics[name]

    def test_layout_tracker_and_modelled_time_identical(self):
        """The compiled path replays the exact cost-model charge sequence."""
        from repro.perf.matvec_bench import run_matvec_layout_check
        stats = run_matvec_layout_check(nsites=8, maxdim=16, nsweeps=3)
        assert stats["tracker_equal"]
        assert stats["modelled_seconds_delta"] < 1e-12
        assert stats["energy_delta"] < 1e-10
        assert stats["layout_reuses"] > 0

    def test_sweep_records_carry_layout_counts(self):
        lattice, sites, opsum, cs = heisenberg_chain_model(6)
        mpo = build_mpo(opsum, sites, compress=True)
        psi0 = MPS.product_state(sites, cs)
        world = SimWorld(nodes=2, procs_per_node=8, machine=BLUE_WATERS)
        res, _ = dmrg(mpo, psi0,
                      DMRGConfig(sweeps=Sweeps.fixed(12, 2, cutoff=1e-10)),
                      backend=SparseSparseBackend(world),
                      rng=np.random.default_rng(2))
        assert res.metrics["layout.moves"] > 0
        assert res.metrics["layout.reuses"] > 0
        for name in ("layout.moves", "layout.reuses"):
            assert res.metrics[name] == sum(r.metrics[name]
                                            for r in res.sweep_records)
        assert 0.0 < res.layout_reuse_rate < 1.0
        # a cost-model-free backend reports zeros
        res_plain, _ = dmrg(mpo, psi0,
                            DMRGConfig(sweeps=Sweeps.fixed(12, 2,
                                                           cutoff=1e-10)),
                            backend=DirectBackend(),
                            rng=np.random.default_rng(2))
        assert res_plain.metrics["layout.moves"] == 0
        assert res_plain.metrics["layout.reuses"] == 0

    def test_mapping_counts_match_chained_path(self):
        """The list backend's per-pair 2D/3D tallies are preserved."""
        ops = _heff_operands()
        left, w1, w2, right, x = ops
        world_a = SimWorld(nodes=2, procs_per_node=8, machine=BLUE_WATERS)
        backend_a = ListBackend(world_a)
        heff_a = EffectiveHamiltonian(left, (w1, w2), right, backend_a,
                                      compile=False)
        heff_a.apply(x)
        heff_a.apply(x)
        world_b = SimWorld(nodes=2, procs_per_node=8, machine=BLUE_WATERS)
        backend_b = ListBackend(world_b)
        heff_b = EffectiveHamiltonian(left, (w1, w2), right, backend_b,
                                      compile=True)
        heff_b.apply(x)
        heff_b.apply(x)
        assert backend_a.mapping_counts == backend_b.mapping_counts
        assert abs(world_a.modelled_seconds()
                   - world_b.modelled_seconds()) < 1e-12
        heff_b.release()


class TestPlanCacheExtensions:
    def test_peek_does_not_count_lookups(self):
        from repro.symmetry import Index, PlanCache
        rng = np.random.default_rng(0)
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [2, 2], flow=-1)
        a = BlockSparseTensor.random([i1, i2], flux=(0,), rng=rng)
        b = BlockSparseTensor.random([i2.dual(), i1.dual()], flux=(0,),
                                     rng=rng)
        cache = PlanCache(record_global=False)
        assert cache.peek(a, b, ([1], [0])) is None
        plan = cache.lookup(a, b, ([1], [0]))
        assert cache.peek(a, b, ([1], [0])) is plan
        assert (cache.hits, cache.misses) == (0, 1)

    def test_record_hits_updates_statistics(self):
        from repro.symmetry import PlanCache
        cache = PlanCache(record_global=False)
        cache.record_hits(4)
        assert cache.hits == 4
        assert cache.hit_rate == 1.0


class TestDavidsonAlgebraCharge:
    def test_world_charges_axpy_traffic(self):
        world = SimWorld(nodes=2, procs_per_node=8, machine=BLUE_WATERS)
        seconds = world.charge_davidson_algebra(10_000, naxpy=12, ndot=20)
        assert seconds > 0
        snap = world.profiler.as_dict()
        assert snap["davidson"] > 0
        assert snap["communication"] > 0       # inner-product allreduces
        assert world.charge_davidson_algebra(0, naxpy=3, ndot=3) == 0.0
        assert world.charge_davidson_algebra(100) == 0.0

    def test_davidson_solve_charges_the_world(self):
        left, w1, w2, right, x = _heff_operands()
        world = SimWorld(nodes=2, procs_per_node=8, machine=BLUE_WATERS)
        backend = SparseSparseBackend(world)
        heff = EffectiveHamiltonian(left, (w1, w2), right, backend)
        davidson(heff, x, max_iterations=2, rng=np.random.default_rng(0))
        heff.release()
        assert world.profiler.as_dict().get("davidson", 0.0) > 0
        # percentages still sum to 100 with the custom category present
        assert sum(world.profiler.breakdown().values()) == \
            pytest.approx(100.0, abs=1e-6)

    def test_model_twin_includes_davidson_category(self):
        from repro.perf import (davidson_vector_ops, get_system,
                                model_dmrg_step)
        naxpy, ndot = davidson_vector_ops(2)
        assert naxpy > 0 and ndot > 0
        system = get_system("spins", small=True)
        world = SimWorld(nodes=2, procs_per_node=8, machine=BLUE_WATERS)
        step = model_dmrg_step(system, 64, world, "sparse-sparse")
        assert "davidson" in step.breakdown
        assert step.breakdown["davidson"] > 0
        assert sum(step.breakdown.values()) == pytest.approx(step.seconds,
                                                             abs=1e-9)


class TestMatvecCompilerInternals:
    def test_stage_list_matches_chain(self):
        left, w1, w2, right, x = _heff_operands()
        heff = EffectiveHamiltonian(left, (w1, w2), right, DirectBackend(),
                                    site=3)
        stages = heff.stages()
        assert len(stages) == 4
        assert [s.static_side for s in stages] == ["a", "b", "b", "b"]
        assert stages[0].operand_keys[0] == "env:L3"
        assert stages[3].operand_keys[1] == "env:R4"
        assert all(s.out_key.startswith("dav:3:h") for s in stages)

    def test_compiler_counts_programs(self):
        left, w1, w2, right, x = _heff_operands()
        backend = DirectBackend()
        compiler = MatvecCompiler(
            backend,
            EffectiveHamiltonian(left, (w1, w2), right, backend).stages())
        compiler.apply(x)
        assert compiler.programs == 1
        compiler.apply(x)
        compiler.release()
        assert compiler.programs == 0
