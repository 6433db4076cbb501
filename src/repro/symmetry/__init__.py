"""U(1)^k symmetric (block-sparse) tensor algebra.

This subpackage provides the quantum-number bookkeeping of Section II-D of the
paper and the list-of-blocks tensor representation of Section IV-A, including
Algorithm 2 (block-pair contraction) and block-wise truncated SVD/QR.
"""

from .charges import Charge, add_charges, negate_charge, zero_charge
from .index import Index, fuse_indices
from .block_tensor import BlockSparseTensor
from .blockops import BlockOps, NumpyOps, resolve_block_ops
from .linalg import SingularSpectrum, TruncationInfo, qr, svd
from .planner import (ContractionPlan, PlanCache, build_plan,
                      tensor_signature)
from .engine import contract_planned, execute_plan
from .matvec import MatvecCompiler, MatvecStage
from .reshape import FusedMode, fuse_modes

__all__ = [
    "Charge", "add_charges", "negate_charge", "zero_charge", "Index",
    "fuse_indices", "BlockSparseTensor", "SingularSpectrum", "TruncationInfo",
    "qr", "svd", "ContractionPlan", "PlanCache", "build_plan", "tensor_signature",
    "contract_planned", "execute_plan", "MatvecCompiler", "MatvecStage",
    "FusedMode", "fuse_modes",
    "BlockOps", "NumpyOps", "resolve_block_ops",
]
