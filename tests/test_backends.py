"""Tests for the three contraction-algorithm backends (list / sparse-dense /
sparse-sparse): numerical equivalence and cost-model bookkeeping."""

import numpy as np
import pytest

from repro.backends import (DirectBackend, ListBackend, SparseDenseBackend,
                            SparseSparseBackend, make_backend)
from repro.ctf import BLUE_WATERS, STAMPEDE2, SimWorld
from repro.dmrg import run_dmrg
from repro.mps import MPS, build_mpo
from repro.models import heisenberg_chain_model, hubbard_chain_model
from repro.symmetry import BlockSparseTensor, Index


@pytest.fixture
def contractable_pair(rng):
    i1 = Index([(0,), (1,)], [2, 3], flow=1)
    i2 = Index([(0,), (1,), (2,)], [2, 2, 1], flow=1)
    i3 = Index([(0,), (1,), (2,)], [2, 2, 2], flow=-1)
    a = BlockSparseTensor.random([i1, i2, i3], flux=(0,), rng=rng)
    b = BlockSparseTensor.random([i3.dual(), i2.dual()], flux=(0,), rng=rng)
    return a, b


def all_backends():
    world = lambda: SimWorld(nodes=4, procs_per_node=8, machine=BLUE_WATERS)  # noqa: E731
    return [DirectBackend(), ListBackend(world()), SparseDenseBackend(world()),
            SparseSparseBackend(world())]


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", all_backends(),
                             ids=lambda b: getattr(b, "name", "?"))
    def test_contract_matches_direct(self, backend, contractable_pair):
        a, b = contractable_pair
        ref = a.contract(b, axes=([2], [0]))
        out = backend.contract(a, b, axes=([2], [0]))
        assert np.allclose(out.to_dense(), ref.to_dense(), atol=1e-10)

    @pytest.mark.parametrize("backend", all_backends(),
                             ids=lambda b: getattr(b, "name", "?"))
    def test_svd_reconstruction(self, backend, contractable_pair):
        a, _ = contractable_pair
        u, s, vh, info = backend.svd(a, row_axes=[0, 1], absorb="right")
        rec = u.contract(vh, axes=([2], [0]))
        assert np.allclose(rec.to_dense(), a.to_dense(), atol=1e-10)

    def test_factory(self):
        assert make_backend("direct").name == "direct"
        world = SimWorld()
        assert make_backend("list", world).name == "list"
        assert make_backend("sparse-dense", world).name == "sparse-dense"
        assert make_backend("sparse-sparse", world).name == "sparse-sparse"
        with pytest.raises(ValueError):
            make_backend("unknown", world)
        with pytest.raises(ValueError):
            make_backend("list", None)

    @pytest.mark.parametrize("name", ["direct", "list", "sparse-dense",
                                      "sparse-sparse"])
    def test_factory_rejects_stray_keywords(self, name):
        """A keyword the factory does not take raises instead of being
        dropped (``use_planner=False`` used to return a planned backend)."""
        world = None if name == "direct" else SimWorld()
        with pytest.raises(TypeError):
            make_backend(name, world, use_planner=False)
        with pytest.raises(TypeError):
            make_backend(name, world, execute_sparse=True)


class TestCostAccounting:
    def test_list_backend_charges_per_block(self, contractable_pair):
        a, b = contractable_pair
        world = SimWorld(nodes=2, procs_per_node=4, machine=BLUE_WATERS)
        backend = ListBackend(world)
        backend.contract(a, b, axes=([2], [0]))
        # one superstep per block pair (Table II: O(N_b) supersteps)
        assert world.profiler.supersteps >= len(a.blocks)
        assert world.profiler.flops > 0
        assert world.profiler.seconds["gemm"] > 0

    def test_sparse_backend_constant_supersteps(self, contractable_pair):
        a, b = contractable_pair
        world = SimWorld(nodes=2, procs_per_node=4, machine=BLUE_WATERS)
        backend = SparseSparseBackend(world)
        backend.contract(a, b, axes=([2], [0]))
        assert world.profiler.supersteps <= 4  # O(1)

    def test_sparse_dense_charges_full_dense_flops(self, contractable_pair):
        a, b = contractable_pair
        world_sd = SimWorld(nodes=2, procs_per_node=4, machine=BLUE_WATERS)
        world_ss = SimWorld(nodes=2, procs_per_node=4, machine=BLUE_WATERS)
        x = a.contract(b, axes=([2], [0]))  # an order-4 Davidson-like tensor
        y = BlockSparseTensor.random(
            list(x.indices[:2]) + [ix.dual() for ix in x.indices[:2]],
            flux=(0,), rng=np.random.default_rng(0))
        SparseDenseBackend(world_sd).contract(y, x, axes=([2, 3], [0, 1]))
        SparseSparseBackend(world_ss).contract(y, x, axes=([2, 3], [0, 1]))
        # the dense algorithm performs (and is charged for) more flops
        assert world_sd.profiler.flops >= world_ss.profiler.flops

    def test_comm_words_scale_down_with_procs(self, contractable_pair):
        a, b = contractable_pair
        small = SimWorld(nodes=1, procs_per_node=4, machine=BLUE_WATERS)
        large = SimWorld(nodes=16, procs_per_node=16, machine=BLUE_WATERS)
        ListBackend(small).contract(a, b, axes=([2], [0]))
        ListBackend(large).contract(a, b, axes=([2], [0]))
        assert large.profiler.comm_words < small.profiler.comm_words


class TestBackendDMRG:
    """All backends must give the same DMRG energy (they share the algorithm)."""

    @pytest.mark.parametrize("name", ["list", "sparse-dense", "sparse-sparse"])
    def test_heisenberg_energy_equivalence(self, name):
        lat, sites, opsum, config = heisenberg_chain_model(6)
        mpo = build_mpo(opsum, sites)
        psi0 = MPS.product_state(sites, config)
        ref, _ = run_dmrg(mpo, psi0, maxdim=32, nsweeps=5)
        world = SimWorld(nodes=4, procs_per_node=16, machine=STAMPEDE2)
        res, _ = run_dmrg(mpo, psi0, maxdim=32, nsweeps=5,
                          backend=make_backend(name, world))
        assert res.energy == pytest.approx(ref.energy, abs=1e-9)
        assert world.modelled_seconds() > 0
        breakdown = world.profiler.breakdown()
        assert sum(breakdown.values()) == pytest.approx(100.0, abs=1e-6)

    def test_hubbard_energy_equivalence_list(self):
        lat, sites, opsum, config = hubbard_chain_model(4, t=1.0, u=4.0)
        mpo = build_mpo(opsum, sites)
        psi0 = MPS.product_state(sites, config)
        ref, _ = run_dmrg(mpo, psi0, maxdim=48, nsweeps=6)
        world = SimWorld(nodes=2, procs_per_node=16, machine=BLUE_WATERS)
        res, _ = run_dmrg(mpo, psi0, maxdim=48, nsweeps=6,
                          backend=ListBackend(world))
        assert res.energy == pytest.approx(ref.energy, abs=1e-9)
