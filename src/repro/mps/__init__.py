"""MPS/MPO machinery: site sets, operator sums, AutoMPO, matrix product states."""

from .sites import ElectronSite, Site, SiteSet, SpinHalfSite
from .opsum import OpSum, Term, NormalizedTerm, normalize_opsum, normalize_term
from .mps import MPS, bond_structure, overlap
from .mpo import MPO
from .autompo import build_mpo

__all__ = [
    "ElectronSite", "Site", "SiteSet", "SpinHalfSite",
    "OpSum", "Term", "NormalizedTerm", "normalize_opsum", "normalize_term",
    "MPS", "bond_structure", "overlap", "MPO", "build_mpo",
]
