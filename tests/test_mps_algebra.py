"""Tests for the exact MPO-MPS product behind the energy variance."""

import numpy as np
import pytest

from repro.dmrg.observables import apply_mpo
from repro.ed import build_hamiltonian
from repro.models import heisenberg_chain_model, hubbard_chain_model
from repro.mps import MPS, build_mpo, overlap


@pytest.fixture(scope="module")
def spin_setup():
    """A small Heisenberg chain with MPO and two random MPS."""
    _, sites, opsum, config = heisenberg_chain_model(6)
    mpo = build_mpo(opsum, sites)
    rng = np.random.default_rng(11)
    charge = sites.total_charge(config)
    psi = MPS.random(sites, total_charge=charge, bond_dim=6, rng=rng)
    phi = MPS.random(sites, total_charge=charge, bond_dim=5, rng=rng)
    return sites, opsum, mpo, psi, phi


@pytest.fixture(scope="module")
def electron_setup():
    """A small Hubbard chain (fermions, two conserved charges)."""
    _, sites, opsum, config = hubbard_chain_model(4, u=4.0)
    mpo = build_mpo(opsum, sites)
    rng = np.random.default_rng(5)
    charge = sites.total_charge(config)
    psi = MPS.random(sites, total_charge=charge, bond_dim=6, rng=rng)
    return sites, opsum, mpo, psi


class TestApplyMPO:
    def test_matches_dense_matrix_vector(self, spin_setup):
        _, _, mpo, psi, _ = spin_setup
        hpsi = apply_mpo(mpo, psi)
        ref = mpo.to_dense_matrix() @ psi.to_dense_vector()
        assert np.allclose(hpsi.to_dense_vector(), ref, atol=1e-10)

    def test_matches_dense_for_fermions(self, electron_setup):
        sites, opsum, mpo, psi = electron_setup
        hpsi = apply_mpo(mpo, psi)
        ref = build_hamiltonian(opsum, sites).toarray().real \
            @ psi.to_dense_vector()
        assert np.allclose(hpsi.to_dense_vector(), ref, atol=1e-9)

    def test_uncompressed_bond_dimension_is_k_times_m(self, spin_setup):
        _, _, mpo, psi, _ = spin_setup
        hpsi = apply_mpo(mpo, psi)
        for b, m in enumerate(psi.bond_dimensions()):
            k = mpo.bond_dimensions()[b]
            assert hpsi.bond_dimensions()[b] == k * m

    def test_expectation_value_consistency(self, spin_setup):
        _, _, mpo, psi, _ = spin_setup
        hpsi = apply_mpo(mpo, psi)
        num = overlap(psi, hpsi)
        assert np.real(num) / abs(overlap(psi, psi)) == pytest.approx(
            mpo.expectation(psi), rel=1e-9)

    def test_length_mismatch_rejected(self, spin_setup):
        _, _, mpo, _, _ = spin_setup
        _, sites8, _, config8 = heisenberg_chain_model(8)
        other = MPS.product_state(sites8, config8)
        with pytest.raises(ValueError):
            apply_mpo(mpo, other)
