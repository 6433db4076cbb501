"""Tests for the additional Table-I models and the model registry."""

import numpy as np
import pytest

from repro.dmrg import run_dmrg
from repro.ed import ground_state_energy
from repro.models import (available_models, build_model,
                          extended_hubbard_opsum, get_model,
                          square_hubbard_model, uv_hubbard_chain_model)
from repro.models.lattices import chain
from repro.mps import MPS, build_mpo


class TestExtendedHubbard:
    def test_v_zero_reduces_to_plain_hubbard(self):
        from repro.models import hubbard_opsum
        lat = chain(4)
        plain = hubbard_opsum(lat, t=1.0, u=4.0)
        extended = extended_hubbard_opsum(lat, t=1.0, u=4.0, v=0.0)
        assert len(extended) == len(plain)

    def test_v_term_adds_density_density_bonds(self):
        lat = chain(4)
        extended = extended_hubbard_opsum(lat, t=1.0, u=4.0, v=1.0)
        plain = extended_hubbard_opsum(lat, t=1.0, u=4.0, v=0.0)
        assert len(extended) == len(plain) + len(lat.bonds_of_kind("nn"))

    def test_uv_chain_dmrg_matches_ed(self):
        _, sites, opsum, config = uv_hubbard_chain_model(4, t=1.0, u=4.0, v=1.0)
        mpo = build_mpo(opsum, sites)
        psi0 = MPS.product_state(sites, config)
        exact = ground_state_energy(opsum, sites,
                                    charge=sites.total_charge(config))
        result, _ = run_dmrg(mpo, psi0, maxdim=64, nsweeps=8, cutoff=1e-12)
        assert result.energy == pytest.approx(exact, abs=1e-6)

    def test_repulsive_v_raises_energy(self):
        _, sites, os_v0, config = uv_hubbard_chain_model(4, u=4.0, v=0.0)
        _, _, os_v1, _ = uv_hubbard_chain_model(4, u=4.0, v=2.0)
        charge = sites.total_charge(config)
        e0 = ground_state_energy(os_v0, sites, charge=charge)
        e1 = ground_state_energy(os_v1, sites, charge=charge)
        assert e1 > e0


class TestSquareHubbard:
    def test_small_cylinder_dmrg_matches_ed(self):
        lat, sites, opsum, config = square_hubbard_model(3, 2, t=1.0, u=6.0)
        assert lat.nsites == 6
        mpo = build_mpo(opsum, sites)
        psi0 = MPS.product_state(sites, config)
        exact = ground_state_energy(opsum, sites,
                                    charge=sites.total_charge(config))
        result, _ = run_dmrg(mpo, psi0, maxdim=128, nsweeps=10, cutoff=1e-12)
        assert result.energy == pytest.approx(exact, abs=1e-5)

    def test_cylinder_has_periodic_bonds(self):
        lat, _, _, _ = square_hubbard_model(4, 3)
        # a 4x3 cylinder with periodic y has 4*3 vertical + 3*3 horizontal bonds
        assert len(lat.bonds_of_kind("nn")) == 4 * 3 + 3 * 3


class TestDopedConfiguration:
    def test_doped_sector_reachable_by_dmrg(self):
        """A doped Hubbard chain converges to the ED energy of that sector."""
        from repro.models import hubbard_opsum, hubbard_sites
        lat = chain(4)
        sites = hubbard_sites(4)
        opsum = hubbard_opsum(lat, t=1.0, u=4.0)
        config = ["Emp", "Up", "Emp", "Dn"]          # two holes, Sz = 0
        mpo = build_mpo(opsum, sites)
        psi0 = MPS.product_state(sites, config)
        exact = ground_state_energy(opsum, sites,
                                    charge=sites.total_charge(config))
        result, _ = run_dmrg(mpo, psi0, maxdim=64, nsweeps=8)
        assert result.energy == pytest.approx(exact, abs=1e-6)


class TestRegistry:
    def test_paper_systems_registered(self):
        models = available_models()
        assert "spins" in models
        assert "electrons" in models

    def test_build_with_overrides(self):
        lat, sites, opsum, config = build_model("heisenberg-chain", n=6)
        assert lat.nsites == 6
        assert len(sites) == 6
        assert len(config) == 6

    def test_defaults_match_paper(self):
        entry = get_model("spins")
        assert entry.defaults["lx"] == 20
        assert entry.defaults["ly"] == 10
        assert entry.defaults["j2"] == 0.5
        entry = get_model("electrons")
        assert entry.defaults["u"] == 8.5

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model("kitaev-honeycomb")

    def test_all_registered_models_build(self):
        for name in available_models():
            overrides = {}
            if name == "spins":
                overrides = {"lx": 4, "ly": 2}
            elif name in ("electrons", "triangular-hubbard"):
                overrides = {"lx": 3, "ly": 2}
            elif name in ("square-hubbard", "j1j2-cylinder"):
                overrides = {"lx": 3, "ly": 2}
            elif name in ("heisenberg-chain", "hubbard-chain",
                          "uv-hubbard-chain", "tfim"):
                overrides = {"n": 6}
            lat, sites, opsum, config = build_model(name, **overrides)
            assert lat.nsites == len(sites) == len(config)
            assert len(opsum) > 0

    def test_registry_energies_consistent_with_direct_builders(self):
        _, sites_a, os_a, cfg_a = build_model("hubbard-chain", n=4)
        from repro.models import hubbard_chain_model
        _, sites_b, os_b, cfg_b = hubbard_chain_model(4)
        ea = ground_state_energy(os_a, sites_a, charge=sites_a.total_charge(cfg_a))
        eb = ground_state_energy(os_b, sites_b, charge=sites_b.total_charge(cfg_b))
        assert ea == pytest.approx(eb)
