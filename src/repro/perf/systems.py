"""The two benchmark systems of the paper, packaged for the scaling harness.

``spins``     — J1-J2 Heisenberg (J2 = 0.5) on a 20x10 square cylinder, d = 2,
                one conserved charge (2*Sz).
``electrons`` — triangular Hubbard (t = 1, U = 8.5) on a 6x6 XC cylinder,
                d = 4, two conserved charges (N, 2*Sz), MPO built with
                compression (cutoff 1e-13) as in Section VI-B.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from ..models import j1j2_cylinder_model, triangular_hubbard_model
from ..models.lattices import Lattice
from ..mps import MPO, SiteSet, build_mpo
from ..mps.mps import bond_structure
from ..symmetry import Index
from .block_model import GeometricBlockModel


@dataclass
class BenchmarkSystem:
    """Everything the performance model needs to know about a physical system."""

    name: str
    lattice: Lattice
    sites: SiteSet
    total_charge: Tuple[int, ...]
    mpo: MPO
    geometric: GeometricBlockModel

    @property
    def nsites(self) -> int:
        """Number of lattice sites."""
        return len(self.sites)

    @property
    def mpo_bond_dimension(self) -> int:
        """The MPO bond dimension ``k``."""
        return self.mpo.max_bond_dimension()

    @property
    def columns(self) -> int:
        """Number of lattice columns (Fig. 6 granularity)."""
        return self.lattice.nx_sites

    @property
    def sites_per_column(self) -> int:
        """Sites per lattice column."""
        return self.lattice.ny_sites

    def bond_indices(self, m: int, drop_small_sectors: bool = True) -> List[Index]:
        """Quantum-number structure of every MPS bond at bond dimension ``m``."""
        return bond_structure(self.sites, self.total_charge, m,
                              drop_small_sectors=drop_small_sectors)

    def middle_site(self) -> int:
        """The representative center site used for micro-benchmarks."""
        return self.nsites // 2


@lru_cache(maxsize=4)
def spins_system(lx: int = 20, ly: int = 10) -> BenchmarkSystem:
    """The paper's spin benchmark system (J1-J2 Heisenberg, 20x10 cylinder)."""
    lattice, sites, opsum, config = j1j2_cylinder_model(lx, ly, j1=1.0, j2=0.5)
    mpo = build_mpo(opsum, sites, compress=True, cutoff=1e-13)
    total = sites.total_charge(config)
    return BenchmarkSystem("spins", lattice, sites, total, mpo,
                           GeometricBlockModel.spins())


@lru_cache(maxsize=4)
def electrons_system(lx: int = 6, ly: int = 6) -> BenchmarkSystem:
    """The paper's electron benchmark system (triangular Hubbard, 6x6 XC)."""
    lattice, sites, opsum, config = triangular_hubbard_model(lx, ly, t=1.0,
                                                             u=8.5)
    mpo = build_mpo(opsum, sites, compress=True, cutoff=1e-13)
    total = sites.total_charge(config)
    return BenchmarkSystem("electrons", lattice, sites, total, mpo,
                           GeometricBlockModel.electrons())


def get_system(name: str, small: bool = False) -> BenchmarkSystem:
    """Look up a benchmark system by name.

    ``small=True`` returns reduced lattices (8x4 spins / 4x3 electrons) for
    quick runs of the same code paths; the full sizes match the paper.
    """
    if name == "spins":
        return spins_system(8, 4) if small else spins_system()
    if name == "electrons":
        return electrons_system(4, 3) if small else electrons_system()
    raise ValueError(f"unknown benchmark system {name!r}")
