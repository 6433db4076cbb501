"""Tests for single-site DMRG with subspace expansion."""

import numpy as np
import pytest

from repro.backends import ListBackend
from repro.dmrg import (DMRGConfig, Sweeps, run_dmrg, run_single_site_dmrg,
                        single_site_dmrg)
from repro.ed import ground_state_energy
from repro.models import (heisenberg_chain_model, hubbard_chain_model,
                          tfim_exact_energy_open_chain, tfim_model)
from repro.mps import MPS, build_mpo


@pytest.fixture(scope="module")
def heisenberg8():
    _, sites, opsum, config = heisenberg_chain_model(8)
    mpo = build_mpo(opsum, sites)
    psi0 = MPS.product_state(sites, config)
    exact = ground_state_energy(opsum, sites,
                                charge=sites.total_charge(config))
    return sites, opsum, mpo, psi0, exact


class TestSingleSiteDMRG:
    def test_matches_exact_diagonalization(self, heisenberg8):
        _, _, mpo, psi0, exact = heisenberg8
        result, psi = run_single_site_dmrg(mpo, psi0, maxdim=64, nsweeps=10)
        assert result.energy == pytest.approx(exact, abs=1e-6)

    def test_subspace_expansion_grows_bond_dimension(self, heisenberg8):
        _, _, mpo, psi0, _ = heisenberg8
        # without expansion, a product state cannot grow beyond bond dim 1
        sweeps = Sweeps.fixed(32, 3, cutoff=1e-12)
        config = DMRGConfig(sweeps=sweeps)
        res_no, psi_no = single_site_dmrg(mpo, psi0, config,
                                          expansion_alphas=[0.0, 0.0, 0.0])
        res_yes, psi_yes = single_site_dmrg(mpo, psi0, config,
                                            expansion_alphas=[1e-2] * 3)
        assert psi_no.max_bond_dimension() == 1
        assert psi_yes.max_bond_dimension() > 1
        assert res_yes.energy < res_no.energy - 1e-3

    def test_matches_two_site_energy(self, heisenberg8):
        _, _, mpo, psi0, exact = heisenberg8
        res1, _ = run_single_site_dmrg(mpo, psi0, maxdim=48, nsweeps=10)
        res2, _ = run_dmrg(mpo, psi0, maxdim=48, nsweeps=6)
        assert res1.energy == pytest.approx(res2.energy, abs=1e-5)
        assert res1.energy == pytest.approx(exact, abs=1e-5)

    def test_respects_bond_dimension_cap(self, heisenberg8):
        _, _, mpo, psi0, _ = heisenberg8
        result, psi = run_single_site_dmrg(mpo, psi0, maxdim=8, nsweeps=6)
        assert psi.max_bond_dimension() <= 8

    def test_energy_monotonically_improves_across_sweeps(self, heisenberg8):
        _, _, mpo, psi0, _ = heisenberg8
        result, _ = run_single_site_dmrg(mpo, psi0, maxdim=32, nsweeps=8)
        energies = np.array(result.energies)
        # allow tiny non-monotonicity from the expansion perturbation
        assert np.all(np.diff(energies) < 1e-6)

    def test_alpha_schedule_length_validated(self, heisenberg8):
        _, _, mpo, psi0, _ = heisenberg8
        config = DMRGConfig(sweeps=Sweeps.fixed(16, 2))
        with pytest.raises(ValueError):
            single_site_dmrg(mpo, psi0, config, expansion_alphas=[0.01])

    def test_needs_two_sites(self, heisenberg8):
        sites, _, mpo, psi0, _ = heisenberg8
        from repro.mps import SiteSet, SpinHalfSite
        one_sites = SiteSet.uniform(SpinHalfSite(), 1)
        one = MPS.product_state(one_sites, ["Up"])
        from repro.mps.autompo import build_mpo as _bm
        from repro.mps import OpSum
        os1 = OpSum().add(1.0, "Sz", 0)
        mpo1 = _bm(os1, one_sites)
        with pytest.raises(ValueError):
            single_site_dmrg(mpo1, one, DMRGConfig(sweeps=Sweeps.fixed(4, 1)))

    def test_works_with_list_backend(self, heisenberg8):
        _, _, mpo, psi0, exact = heisenberg8
        from repro.ctf import SimWorld
        backend = ListBackend(SimWorld(nodes=2, procs_per_node=4))
        result, _ = run_single_site_dmrg(mpo, psi0, maxdim=32, nsweeps=8,
                                         backend=backend)
        assert result.energy == pytest.approx(exact, abs=1e-5)


class TestSingleSiteOtherModels:
    def test_tfim_chain(self):
        n = 8
        _, sites, opsum, config = tfim_model(n, h=1.0)
        mpo = build_mpo(opsum, sites)
        psi0 = MPS.product_state(sites, config)
        result, _ = run_single_site_dmrg(mpo, psi0, maxdim=32, nsweeps=8)
        assert result.energy == pytest.approx(
            tfim_exact_energy_open_chain(n, h=1.0), abs=1e-6)

    def test_hubbard_chain(self):
        _, sites, opsum, config = hubbard_chain_model(4, u=4.0)
        mpo = build_mpo(opsum, sites)
        psi0 = MPS.product_state(sites, config)
        exact = ground_state_energy(opsum, sites,
                                    charge=sites.total_charge(config))
        result, _ = run_single_site_dmrg(mpo, psi0, maxdim=48, nsweeps=10)
        assert result.energy == pytest.approx(exact, abs=1e-5)
