"""Integration tests: DMRG engine (Davidson, environments, sweeps) versus ED."""

import numpy as np
import pytest

from repro.backends import DirectBackend
from repro.dmrg import (DMRGConfig, EffectiveHamiltonian, EnvironmentCache,
                        Sweeps, davidson, dmrg, run_dmrg, two_site_tensor)
from repro.ed import ground_state_energy
from repro.models import (heisenberg_chain_model, hubbard_chain_model,
                          j1j2_cylinder_model, tfim_exact_energy_open_chain,
                          tfim_model, triangular_hubbard_model)
from repro.mps import MPS, build_mpo
from repro.symmetry import BlockSparseTensor, Index
from repro.symmetry.blockops import BlockOps


class TestDavidson:
    def _random_hermitian_problem(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((n, n))
        mat = (mat + mat.T) / 2
        ix = Index.trivial(n, nsym=0, flow=1)
        x0 = BlockSparseTensor.random([ix], rng=rng)

        def apply_h(x):
            vec = x.to_dense()
            return BlockSparseTensor.from_dense(mat @ vec, x.indices,
                                                require_symmetric=False)
        return mat, apply_h, x0

    def test_converges_to_smallest_eigenvalue(self):
        mat, apply_h, x0 = self._random_hermitian_problem()
        res = davidson(apply_h, x0, max_iterations=60, max_subspace=20,
                       tol=1e-9)
        exact = np.linalg.eigvalsh(mat)[0]
        assert res.eigenvalue == pytest.approx(exact, abs=1e-7)
        assert res.converged

    def test_eigenvector_residual(self):
        mat, apply_h, x0 = self._random_hermitian_problem(seed=3)
        res = davidson(apply_h, x0, max_iterations=80, max_subspace=25,
                       tol=1e-10)
        v = res.eigenvector.to_dense()
        assert np.linalg.norm(mat @ v - res.eigenvalue * v) < 1e-6

    def test_few_iterations_still_improve(self):
        mat, apply_h, x0 = self._random_hermitian_problem(seed=5)
        e0 = float(x0.inner(apply_h(x0)) / x0.inner(x0))
        res = davidson(apply_h, x0, max_iterations=2, max_subspace=4)
        assert res.eigenvalue <= e0 + 1e-12

    def test_zero_start_rejected(self):
        _, apply_h, x0 = self._random_hermitian_problem()
        with pytest.raises(ValueError):
            davidson(apply_h, x0 * 0.0)

    def test_non_finite_input_raises_before_eigh(self):
        """A NaN from the operator or the start vector stops the solve at
        the subspace matrix, not as a LAPACK convergence failure."""
        _, apply_h, x0 = self._random_hermitian_problem()
        with pytest.raises(FloatingPointError, match="subspace-matrix"):
            davidson(lambda x: apply_h(x) * np.nan, x0)
        with pytest.raises(FloatingPointError, match="starting-vector"):
            davidson(apply_h, x0 * np.inf)


class TestEnvironments:
    def test_full_contraction_gives_energy(self, spin_chain_problem):
        sites = spin_chain_problem["sites"]
        mpo = spin_chain_problem["mpo"]
        psi = MPS.product_state(sites, spin_chain_problem["config"])
        psi.canonicalize(0)
        envs = EnvironmentCache(psi, mpo)
        heff = EffectiveHamiltonian(envs.left(0), mpo.tensors[0:2],
                                    envs.right(1), DirectBackend())
        x = two_site_tensor(psi, 0)
        energy = float(np.real(x.inner(heff.apply(x))))
        assert energy == pytest.approx(mpo.expectation(psi), abs=1e-10)

    def test_invalidate_all(self, spin_chain_problem):
        sites = spin_chain_problem["sites"]
        mpo = spin_chain_problem["mpo"]
        psi = MPS.product_state(sites, spin_chain_problem["config"])
        psi.canonicalize(0)
        envs = EnvironmentCache(psi, mpo)
        envs.right(0)
        envs.invalidate_all()
        # only the trivial edges stay cached
        assert [e is not None for e in envs._left + envs._right] == \
            [True] + [False] * (2 * len(psi) - 2) + [True]


class TestDMRGGroundStates:
    def test_heisenberg_chain(self, spin_chain_problem):
        sites = spin_chain_problem["sites"]
        mpo = spin_chain_problem["mpo"]
        psi0 = MPS.product_state(sites, spin_chain_problem["config"])
        result, psi = run_dmrg(mpo, psi0, maxdim=64, nsweeps=7)
        assert result.energy == pytest.approx(spin_chain_problem["energy"],
                                              abs=1e-7)
        assert psi.norm() == pytest.approx(1.0)

    def test_energy_monotonically_decreases(self, spin_chain_problem):
        sites = spin_chain_problem["sites"]
        mpo = spin_chain_problem["mpo"]
        psi0 = MPS.product_state(sites, spin_chain_problem["config"])
        result, _ = run_dmrg(mpo, psi0, maxdim=32, nsweeps=6)
        energies = result.energies
        assert all(energies[i + 1] <= energies[i] + 1e-8
                   for i in range(len(energies) - 1))

    def test_j1j2_small_cylinder(self):
        lat, sites, opsum, config = j1j2_cylinder_model(3, 3)
        mpo = build_mpo(opsum, sites)
        psi0 = MPS.product_state(sites, config)
        result, _ = run_dmrg(mpo, psi0, maxdim=96, nsweeps=8)
        exact = ground_state_energy(opsum, sites,
                                    charge=sites.total_charge(config))
        assert result.energy == pytest.approx(exact, abs=1e-6)

    def test_hubbard_chain(self):
        lat, sites, opsum, config = hubbard_chain_model(6, t=1.0, u=4.0)
        mpo = build_mpo(opsum, sites)
        psi0 = MPS.product_state(sites, config)
        result, _ = run_dmrg(mpo, psi0, maxdim=128, nsweeps=9)
        exact = ground_state_energy(opsum, sites,
                                    charge=sites.total_charge(config))
        assert result.energy == pytest.approx(exact, abs=1e-6)

    def test_tfim_dense_path(self):
        lat, sites, opsum, config = tfim_model(10, j=1.0, h=0.9)
        mpo = build_mpo(opsum, sites)
        psi0 = MPS.product_state(sites, config)
        result, _ = run_dmrg(mpo, psi0, maxdim=32, nsweeps=8)
        assert result.energy == pytest.approx(
            tfim_exact_energy_open_chain(10, 1.0, 0.9), abs=1e-7)

    def test_total_charge_is_conserved(self, spin_chain_problem):
        sites = spin_chain_problem["sites"]
        mpo = spin_chain_problem["mpo"]
        psi0 = MPS.product_state(sites, spin_chain_problem["config"])
        _, psi = run_dmrg(mpo, psi0, maxdim=32, nsweeps=4)
        assert psi.total_charge() == sites.total_charge(
            spin_chain_problem["config"])

    def test_site_records_collected(self, spin_chain_problem):
        sites = spin_chain_problem["sites"]
        mpo = spin_chain_problem["mpo"]
        psi0 = MPS.product_state(sites, spin_chain_problem["config"])
        config = DMRGConfig(sweeps=Sweeps.fixed(16, 2))
        result, _ = dmrg(mpo, psi0, config)
        n = len(sites)
        assert len(result.site_records) == 2 * 2 * (n - 1)
        assert all(r.flops > 0 for r in result.site_records)
        assert result.total_flops > 0
        assert result.total_seconds > 0

    def test_restricted_site_range(self, spin_chain_problem):
        """The paper's spin benchmark optimizes only the middle columns."""
        sites = spin_chain_problem["sites"]
        mpo = spin_chain_problem["mpo"]
        psi0 = MPS.product_state(sites, spin_chain_problem["config"])
        config = DMRGConfig(sweeps=Sweeps.fixed(16, 2), site_ranges=[(2, 5)])
        result, _ = dmrg(mpo, psi0, config)
        touched = {r.site for r in result.site_records}
        assert touched == {2, 3, 4}

    def test_energy_tol_early_stop(self, spin_chain_problem):
        sites = spin_chain_problem["sites"]
        mpo = spin_chain_problem["mpo"]
        psi0 = MPS.product_state(sites, spin_chain_problem["config"])
        config = DMRGConfig(sweeps=Sweeps.fixed(48, 12), energy_tol=1e-9)
        result, _ = dmrg(mpo, psi0, config)
        assert result.converged
        assert len(result.sweep_records) < 12

    def test_truncation_error_reported(self, spin_chain_problem):
        sites = spin_chain_problem["sites"]
        mpo = spin_chain_problem["mpo"]
        psi0 = MPS.product_state(sites, spin_chain_problem["config"])
        config = DMRGConfig(sweeps=Sweeps.fixed(4, 3))  # tiny m forces truncation
        result, _ = dmrg(mpo, psi0, config)
        assert max(r.max_truncation_error for r in result.sweep_records) > 0


class TestNonFiniteTripwire:
    def test_nan_operator_raises_with_its_location(self, spin_chain_problem):
        """An MPO whose last tensor holds NaN blocks poisons the first
        effective Hamiltonian; the sweep names where the solve failed."""
        mpo = build_mpo(spin_chain_problem["opsum"],
                        spin_chain_problem["sites"])
        for blk in mpo.tensors[-1].blocks.values():
            blk[...] = np.nan
        psi0 = MPS.product_state(spin_chain_problem["sites"],
                                 spin_chain_problem["config"])
        with pytest.raises(FloatingPointError) as info:
            dmrg(mpo, psi0, DMRGConfig(sweeps=Sweeps.fixed(8, 2)))
        assert "sweep 0, site 0, direction right" in info.value.__notes__

    def test_nan_in_split_raises_with_its_location(self, spin_chain_problem):
        """A NaN reaching the bond SVD stops the split with a
        ``FloatingPointError`` (not LAPACK's bare convergence failure), and
        the sweep names the bond as it does for Davidson."""
        class NaNSvdOps(BlockOps):
            def svd(self, mat):
                return super().svd(mat * np.nan)

        mpo = build_mpo(spin_chain_problem["opsum"],
                        spin_chain_problem["sites"])
        psi0 = MPS.product_state(spin_chain_problem["sites"],
                                 spin_chain_problem["config"])
        with pytest.raises(FloatingPointError, match="non-finite") as info:
            dmrg(mpo, psi0, DMRGConfig(sweeps=Sweeps.fixed(8, 2)),
                 backend=DirectBackend(block_ops=NaNSvdOps()))
        assert "sweep 0, site 0, direction right" in info.value.__notes__


class TestSweepsConfig:
    def test_ramp_schedule(self):
        s = Sweeps.ramp(64, 5, min_dim=8)
        assert s.maxdims == [8, 16, 32, 64, 64]
        assert len(s) == 5

    def test_fixed_schedule(self):
        s = Sweeps.fixed(32, 3, cutoff=1e-8)
        assert s.maxdims == [32, 32, 32]
        assert s.cutoffs == [1e-8] * 3

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Sweeps([8, 16], [1e-8], [3, 3])
