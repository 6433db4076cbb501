"""The DMRG engines (environments, Davidson, sweeps) and measurement layer."""

from .config import DMRGConfig, DMRGResult, SiteRecord, SweepRecord, Sweeps
from .davidson import DavidsonResult, davidson
from .environments import (EnvironmentCache, extend_left, extend_right,
                           left_edge_environment, right_edge_environment)
from .sweep import EffectiveHamiltonian, dmrg, run_dmrg, two_site_tensor
from .observables import (MeasurementReport, bond_spectrum,
                          connected_correlation, correlation,
                          correlation_matrix, energy_and_variance,
                          energy_variance, entanglement_profile, expect_opsum,
                          expect_term, expectation_profile, local_expectation,
                          measure, renyi_entropy)
from .single_site import run_single_site_dmrg, single_site_dmrg
from .excited import (OverlapEnvironmentCache, PenalizedHamiltonian,
                      excited_dmrg, find_lowest_states)
from .checkpoint import (Checkpoint, load_checkpoint, load_mps,
                         resume_sweep_schedule, save_checkpoint, save_mps)

__all__ = [
    "DMRGConfig", "DMRGResult", "SiteRecord", "SweepRecord", "Sweeps",
    "DavidsonResult", "davidson", "EnvironmentCache", "extend_left",
    "extend_right", "left_edge_environment", "right_edge_environment",
    "EffectiveHamiltonian", "dmrg", "run_dmrg", "two_site_tensor",
    "MeasurementReport", "bond_spectrum", "connected_correlation",
    "correlation", "correlation_matrix", "energy_and_variance",
    "energy_variance", "entanglement_profile", "expect_opsum", "expect_term",
    "expectation_profile", "local_expectation", "measure", "renyi_entropy",
    "run_single_site_dmrg", "single_site_dmrg", "OverlapEnvironmentCache", "PenalizedHamiltonian",
    "excited_dmrg", "find_lowest_states", "Checkpoint", "load_checkpoint",
    "load_mps", "resume_sweep_schedule", "save_checkpoint", "save_mps",
]
