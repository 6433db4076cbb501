"""Property-based tests for MPO application and measurement invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dmrg import expectation_profile, local_expectation
from repro.dmrg.observables import apply_mpo
from repro.models import heisenberg_chain_model
from repro.mps import MPS, build_mpo, overlap


@pytest.fixture(scope="module")
def chain6():
    _, sites, opsum, config = heisenberg_chain_model(6)
    mpo = build_mpo(opsum, sites)
    return sites, mpo, config


def _random_state(sites, config, seed, bond_dim=6):
    return MPS.random(sites, total_charge=sites.total_charge(config),
                      bond_dim=bond_dim, rng=np.random.default_rng(seed))


class TestAlgebraProperties:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_mpo_application_preserves_hermiticity(self, chain6, seed):
        """<psi|H|psi> computed through apply_mpo is real."""
        sites, mpo, config = chain6
        psi = _random_state(sites, config, seed)
        hpsi = apply_mpo(mpo, psi)
        val = overlap(psi, hpsi)
        assert abs(np.imag(val)) < 1e-10

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_sz_profile_sums_to_sector_charge(self, chain6, seed):
        """The magnetization profile integrates to the conserved 2*Sz / 2."""
        sites, _, config = chain6
        psi = _random_state(sites, config, seed)
        prof = expectation_profile(psi, "Sz")
        total = sites.total_charge(config)[0] / 2.0
        assert float(np.sum(prof)) == pytest.approx(total, abs=1e-9)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 100), j=st.integers(0, 5))
    def test_identity_expectation_is_one(self, chain6, seed, j):
        sites, _, config = chain6
        psi = _random_state(sites, config, seed)
        assert local_expectation(psi, "Id", j) == pytest.approx(1.0, abs=1e-10)
