"""Tests for the Davidson matvec chain (symmetry/matvec.py).

``EffectiveHamiltonian.apply`` is its stage list run through
``backend.contract``: the same tensors, plan-cache traffic and cost-model
charges as the explicit calls, on every backend and for both chain widths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import DirectBackend, SparseSparseBackend, make_backend
from repro.ctf import BLUE_WATERS, SimWorld
from repro.ctf.layout import heff_operand_keys
from repro.dmrg import (DMRGConfig, EffectiveHamiltonian, EnvironmentCache,
                        Sweeps, davidson, dmrg)
from repro.models import heisenberg_chain_model
from repro.mps import MPS, build_mpo
from repro.perf.microbench import heff_setup


def _heff_operands(nsites=8, maxdim=12, seed=3):
    return heff_setup(nsites, maxdim, seed=seed)


def _single_site_operands(nsites=8, maxdim=12, seed=3):
    """``(left_env, w, right_env, x)`` of the one-site chain at mid-chain."""
    _, sites, opsum, config = heisenberg_chain_model(nsites)
    mpo = build_mpo(opsum, sites)
    psi = MPS.random(sites, total_charge=sites.total_charge(config),
                     bond_dim=maxdim, rng=np.random.default_rng(seed))
    j = nsites // 2
    psi.canonicalize(j)
    envs = EnvironmentCache(psi, mpo)
    return envs.left(j), mpo.tensors[j], envs.right(j), psi.tensors[j]


#: contraction axes of the MPO stages, then of the right-environment stage
CHAIN_AXES = {
    1: ([((1, 2), (0, 2))], ((1, 3), (2, 1))),
    2: ([((1, 2), (0, 2)), ((4, 1), (0, 2))], ((1, 4), (2, 1))),
}


def _explicit_chain(backend, left, ws, right, x, site):
    """``K x`` as hand-written ``backend.contract`` calls (Fig. 1d)."""
    k = len(ws)
    lk, *wks, rk, xk = heff_operand_keys(site, k)
    w_axes, r_axes = CHAIN_AXES[k]
    t = backend.contract(left, x, axes=((2,), (0,)), operand_keys=(lk, xk),
                         out_key=f"{xk}:h0")
    for i, (w, axes) in enumerate(zip(ws, w_axes)):
        t = backend.contract(t, w, axes=axes,
                             operand_keys=(f"{xk}:h{i}", wks[i]),
                             out_key=f"{xk}:h{i + 1}")
    return backend.contract(t, right, axes=r_axes,
                            operand_keys=(f"{xk}:h{k}", rk),
                            out_key=f"{xk}:h{k + 1}")


def _fresh_backend(name):
    world = None if name == "direct" else \
        SimWorld(nodes=2, procs_per_node=8, machine=BLUE_WATERS)
    return make_backend(name, world), world


class TestMatvecChain:
    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("name", ["direct", "list", "sparse-dense",
                                      "sparse-sparse"])
    def test_apply_is_the_explicit_contract_chain(self, name, width):
        """Same bits, plan traffic and charges as hand-written contracts."""
        if width == 2:
            left, w1, w2, right, x = _heff_operands()
            ws = (w1, w2)
        else:
            left, w, right, x = _single_site_operands()
            ws = (w,)
        backend, world = _fresh_backend(name)
        ref_backend, ref_world = _fresh_backend(name)
        heff = EffectiveHamiltonian(left, ws, right, backend, site=3)
        # the second application runs on cached plans and tracked layouts
        for _ in range(2):
            y = heff.apply(x)
            y_ref = _explicit_chain(ref_backend, left, ws, right, x, site=3)
            assert y.blocks.keys() == y_ref.blocks.keys()
            for key, blk in y.blocks.items():
                np.testing.assert_array_equal(blk, y_ref.blocks[key])
        assert backend.matvec_applies == 2
        assert (backend.plan_cache.hits, backend.plan_cache.misses) == \
            (ref_backend.plan_cache.hits, ref_backend.plan_cache.misses) == \
            (width + 2, width + 2)
        if world is not None:
            assert world.modelled_seconds() == ref_world.modelled_seconds() > 0
            assert world.layout_tracker.snapshot() == \
                ref_world.layout_tracker.snapshot()
        if name == "list":
            assert world.pair_decisions(backend._last_plan) == \
                ref_world.pair_decisions(ref_backend._last_plan)


class TestCostAccountingParity:
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
