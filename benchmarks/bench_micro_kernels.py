"""Micro-benchmarks of the real computational kernels (measured, not modelled).

These time the actual NumPy execution of the building blocks every algorithm
shares: block-pair contraction (Algorithm 2), the Davidson matrix-vector
product through the environments, the truncated block SVD, and environment
extension — at laptop-scale bond dimensions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import DirectBackend
from repro.dmrg import EffectiveHamiltonian, EnvironmentCache, davidson
from repro.models import heisenberg_chain_model
from repro.mps import MPS, build_mpo
from repro.perf.microbench import heff_setup
from repro.symmetry import BlockSparseTensor, Index, svd


def _dmrg_setup(model, n, maxdim):
    left, w1, w2, right, x = heff_setup(n, maxdim, model=model)
    return EffectiveHamiltonian(left, (w1, w2), right, DirectBackend()), x


@pytest.fixture(scope="module")
def spin_heff():
    return _dmrg_setup("heisenberg", 32, 64)


@pytest.fixture(scope="module")
def electron_heff():
    return _dmrg_setup("hubbard", 16, 64)


def test_block_contraction_throughput(benchmark):
    """Algorithm 2 block-pair contraction on a many-sector tensor pair."""
    rng = np.random.default_rng(0)
    charges = [(q,) for q in range(-6, 7)]
    left = Index(charges, [16] * len(charges), flow=1)
    right = Index(charges, [16] * len(charges), flow=-1)
    phys = Index([(1,), (-1,)], [1, 1], flow=1)
    a = BlockSparseTensor.random([left, phys, right], flux=(0,), rng=rng)
    b = BlockSparseTensor.random([right.dual(), phys.dual(), left.dual()],
                                 flux=(0,), rng=rng)
    result = benchmark(lambda: a.contract(b, axes=([2, 1], [0, 1])))
    assert result.num_blocks > 0


def test_davidson_matvec_spins(benchmark, spin_heff):
    """One effective-Hamiltonian application (the paper's O(m^3 k d) kernel)."""
    heff, x = spin_heff
    y = benchmark(lambda: heff.apply(x))
    assert y.norm() > 0


def test_davidson_matvec_electrons(benchmark, electron_heff):
    heff, x = electron_heff
    y = benchmark(lambda: heff.apply(x))
    assert y.norm() > 0


def test_davidson_solve(benchmark, spin_heff):
    """A full Davidson solve with the paper's small subspace."""
    heff, x = spin_heff
    res = benchmark(lambda: davidson(heff, x, max_iterations=2))
    assert np.isfinite(res.eigenvalue)


def test_truncated_block_svd(benchmark, spin_heff):
    """The two-site split (Fig. 1e): truncated block-sparse SVD."""
    _, x = spin_heff
    def split():
        return svd(x, row_axes=[0, 1], col_axes=[2, 3], max_dim=32,
                   cutoff=1e-10, absorb="right")
    u, s, vh, info = benchmark(split)
    assert info.kept_dim <= 32


def test_environment_extension(benchmark):
    """Absorbing one site into the left environment."""
    lat, sites, opsum, config = heisenberg_chain_model(24)
    mpo = build_mpo(opsum, sites)
    psi = MPS.random(sites, total_charge=(0,), bond_dim=48,
                     rng=np.random.default_rng(3))
    psi.canonicalize(12)
    envs = EnvironmentCache(psi, mpo)
    left = envs.left(12)
    from repro.dmrg import extend_left
    backend = DirectBackend()
    out = benchmark(lambda: extend_left(left, psi.tensors[12],
                                        mpo.tensors[12], backend))
    assert out.num_blocks > 0


def test_mpo_construction_spins_cylinder(benchmark):
    """AutoMPO build + compression for a small J1-J2 cylinder."""
    from repro.models import j1j2_cylinder_model
    lat, sites, opsum, config = j1j2_cylinder_model(6, 4)
    mpo = benchmark(lambda: build_mpo(opsum, sites, compress=True))
    assert mpo.max_bond_dimension() < 60
