"""Simulated Cyclops-like distributed machine and cost model.

Charges the distributed execution of the planned block-sparse contractions
to a virtual machine (:class:`SimWorld`): a BSP communication model matching
Table II of the paper, SUMMA mappings and collectives over interconnect
topologies, sweep-persistent tensor layouts, memory accounting,
per-category profiling matching Fig. 7, and machine presets for Blue Waters
and Stampede2.
"""

from .machine import BLUE_WATERS, LAPTOP, MACHINES, STAMPEDE2, MachineSpec
from .profiler import CATEGORIES, Profiler
from .bsp import (CommCost, blockwise_contraction_comm, dense_contraction_comm,
                  load_imbalance_fraction, parallel_gemm_efficiency,
                  redistribution_comm, scalapack_svd_comm,
                  sparse_contraction_comm)
from .world import SimWorld
from .topology import (FatTree, SingleNode, Topology, Torus3D,
                       topology_for_machine)
from .collectives import CollectiveCost, CollectiveModel
from .mapping import (GemmShape, MappingDecision, RedistributionPlan,
                      candidate_mappings, choose_mapping,
                      plan_candidate_mappings, redistribution_plan,
                      summa_25d, summa_2d, summa_3d)
from .plan_cost import (GRAIN_EFFICIENCY_CROSSOVER, choose_plan_mapping,
                        pair_mapping_decisions, redistribution_words)
from .layout import (LayoutTracker, TensorLayout, davidson_key,
                     heff_operand_keys, left_env_key, mpo_key, right_env_key,
                     site_key)
from .memory import (OutOfMemoryError, dmrg_step_footprint_bytes,
                     minimum_nodes)

__all__ = [
    "BLUE_WATERS", "LAPTOP", "MACHINES", "STAMPEDE2", "MachineSpec",
    "CATEGORIES", "Profiler",
    "CommCost", "blockwise_contraction_comm", "dense_contraction_comm",
    "load_imbalance_fraction", "parallel_gemm_efficiency",
    "redistribution_comm", "scalapack_svd_comm", "sparse_contraction_comm",
    "SimWorld",
    "FatTree", "SingleNode", "Topology", "Torus3D", "topology_for_machine",
    "CollectiveCost", "CollectiveModel",
    "GemmShape", "MappingDecision", "RedistributionPlan",
    "candidate_mappings", "choose_mapping", "plan_candidate_mappings",
    "redistribution_plan", "summa_25d", "summa_2d", "summa_3d",
    "GRAIN_EFFICIENCY_CROSSOVER", "choose_plan_mapping",
    "pair_mapping_decisions", "redistribution_words",
    "LayoutTracker", "TensorLayout", "davidson_key", "heff_operand_keys",
    "left_env_key", "mpo_key", "right_env_key", "site_key",
    "OutOfMemoryError", "dmrg_step_footprint_bytes", "minimum_nodes",
]
