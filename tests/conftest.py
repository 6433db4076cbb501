"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.symmetry import Index, BlockSparseTensor


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return np.random.default_rng(20200710)


@pytest.fixture
def small_indices():
    """A trio of small U(1) indices suitable for a rank-3 tensor of flux 0."""
    i1 = Index([(0,), (1,)], [2, 3], flow=1, tag="a")
    i2 = Index([(0,), (1,), (2,)], [2, 2, 1], flow=1, tag="b")
    i3 = Index([(0,), (1,), (2,), (3,)], [1, 2, 2, 1], flow=-1, tag="c")
    return i1, i2, i3


@pytest.fixture
def random_tensor(small_indices, rng):
    """A random block tensor over the small indices."""
    return BlockSparseTensor.random(small_indices, flux=(0,), rng=rng)


@pytest.fixture
def spin_chain_problem():
    """A small Heisenberg chain (sites, opsum, MPO, config, ED energy)."""
    from repro.models import heisenberg_chain_model
    from repro.mps import build_mpo
    from repro.ed import ground_state_energy

    lat, sites, opsum, config = heisenberg_chain_model(8)
    mpo = build_mpo(opsum, sites)
    energy = ground_state_energy(opsum, sites, charge=sites.total_charge(config))
    return {"lattice": lat, "sites": sites, "opsum": opsum, "mpo": mpo,
            "config": config, "energy": energy}
