"""Lattices and model Hamiltonians (the paper's benchmark systems)."""

from .lattices import Bond, Lattice, chain, square_cylinder, triangular_cylinder_xc
from .heisenberg import (heisenberg_chain_model, heisenberg_opsum,
                         heisenberg_sites, j1j2_cylinder_model,
                         neel_configuration)
from .hubbard import (half_filled_configuration, hubbard_chain_model,
                      hubbard_opsum, hubbard_sites, triangular_hubbard_model)
from .tfim import tfim_exact_energy_open_chain, tfim_model, tfim_opsum, tfim_sites
from .extended_hubbard import (extended_hubbard_opsum, square_hubbard_model,
                               uv_hubbard_chain_model)
from .registry import (ModelEntry, available_models, build_model, get_model,
                       register_model)

__all__ = [
    "Bond", "Lattice", "chain", "square_cylinder", "triangular_cylinder_xc",
    "heisenberg_chain_model", "heisenberg_opsum", "heisenberg_sites",
    "j1j2_cylinder_model", "neel_configuration",
    "half_filled_configuration", "hubbard_chain_model", "hubbard_opsum",
    "hubbard_sites", "triangular_hubbard_model",
    "tfim_exact_energy_open_chain", "tfim_model", "tfim_opsum", "tfim_sites",
    "extended_hubbard_opsum", "square_hubbard_model", "uv_hubbard_chain_model",
    "ModelEntry", "available_models", "build_model", "get_model",
    "register_model",
]
