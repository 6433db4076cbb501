"""The transverse-field Ising model (extra validation model).

    H = -J sum_<i,j> Sz_i Sz_j - h sum_i Sx_i

The transverse field breaks ``Sz`` conservation, so this model exercises the
symmetry-free ("dense", single-block) code path and has a simple exact solution
on the 1D chain, making it a useful independent cross-check of the DMRG engine.
"""

from __future__ import annotations

import numpy as np

from ..mps.opsum import OpSum
from ..mps.sites import SiteSet, SpinHalfSite
from .lattices import chain


def tfim_opsum(n: int, j: float = 1.0, h: float = 1.0) -> OpSum:
    """Operator sum of the open-chain TFIM with spin-1/2 operators."""
    lat = chain(n)
    os = OpSum()
    for b in lat.bonds_of_kind("nn"):
        os.add(-j, "Sz", b.i, "Sz", b.j)
    for i in range(n):
        os.add(-h, "Sx", i)
    return os


def tfim_sites(n: int) -> SiteSet:
    """Symmetry-free spin-1/2 sites (Sx breaks Sz conservation)."""
    return SiteSet.uniform(SpinHalfSite(conserve=None), n)


def tfim_model(n: int, j: float = 1.0, h: float = 1.0):
    """Returns ``(lattice, sites, opsum, initial_configuration)``."""
    return chain(n), tfim_sites(n), tfim_opsum(n, j, h), ["Up"] * n


def tfim_exact_energy_open_chain(n: int, j: float = 1.0, h: float = 1.0) -> float:  # repro-lint: ok(test-only): closed-form oracle for the symmetry-free DMRG path
    """Ground-state energy of the open TFIM chain via free fermions.

    With spin-1/2 operators (S = sigma/2) the Hamiltonian maps to a
    quadratic fermion problem; we diagonalize the single-particle
    Bogoliubov-de-Gennes matrix exactly, which provides an independent
    reference energy for chains far larger than exact diagonalization allows.
    """
    # Rewrite in Pauli matrices: H = -(J/4) sum s^a s^a - (h/2) sum s^b with
    # coupling Jp = J/4 and field hp = h/2; after the Jordan-Wigner mapping the
    # quadratic form has A_ii = 2 hp, A_(i,i+1) = -Jp and pairing B_(i,i+1) = -Jp.
    jp, hp = j / 4.0, h / 2.0
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    for i in range(n):
        a[i, i] = 2.0 * hp
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = -jp
        b[i, i + 1] = -jp
        b[i + 1, i] = +jp
    m = np.block([[a, b], [-b, -a]])
    evals = np.linalg.eigvalsh(m)
    # The constant terms (+hp*n from normal ordering, -hp*n from the field)
    # cancel, leaving E0 = -(1/2) * sum of positive Bogoliubov energies.
    positive = evals[evals > 1e-12]
    return float(-0.5 * positive.sum())
