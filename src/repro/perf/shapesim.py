"""Shape-level simulation of block-sparse contractions.

To reproduce the paper's scaling figures at bond dimensions up to
``m = 32768`` we cannot allocate the actual tensors (that is precisely the
point of the paper — they do not fit on a node).  A :class:`ShapeTensor`
carries only the quantum-number block *structure* (sector indices and block
shapes, no data).  Contracting two of them builds the same
:class:`~repro.symmetry.planner.ContractionPlan` real execution builds — the
block pairs Algorithm 2 visits with their flops and sizes, and the output
sparsity — and the cost model charges that plan with the backends' own
recipe for the algorithm in use.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..ctf.world import SimWorld
from ..symmetry import BlockSparseTensor, Index
from ..symmetry.block_tensor import allowed_keys
from ..symmetry.charges import Charge, zero_charge
from ..symmetry.linalg import svd_group_shapes
from ..symmetry.planner import ContractionPlan, PlanCache
from .flops import svd_flops

#: shared memo for shape-level contraction plans: the scaling experiments
#: revisit the same (site-shape, axes) signatures thousands of times
_SHAPE_PLAN_CACHE = PlanCache(max_plans=512)


class ShapeTensor:
    """A block-sparse tensor with shapes only (no data)."""

    def __init__(self, indices: Sequence[Index], flux: Charge | None = None,
                 blocks: Dict[tuple, Tuple[int, ...]] | None = None):
        self.indices = tuple(indices)
        nsym = self.indices[0].nsym
        self.flux = tuple(flux) if flux is not None else zero_charge(nsym)
        if blocks is None:
            blocks = {key: tuple(ix.sector_dim(s)
                                 for ix, s in zip(self.indices, key))
                      for key in allowed_keys(self.indices, self.flux)}
        self.blocks = blocks

    # -- structure ----------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of modes."""
        return len(self.indices)

    @property
    def nsym(self) -> int:
        """Number of conserved charges."""
        return self.indices[0].nsym

    @property
    def nnz(self) -> int:
        """Stored elements (sum of block volumes)."""
        return int(sum(int(np.prod(s)) for s in self.blocks.values()))

    @property
    def dense_size(self) -> int:
        """Elements of the dense equivalent."""
        size = 1
        for ix in self.indices:
            size *= ix.dim
        return size

    @classmethod
    def from_block_tensor(cls, t: BlockSparseTensor) -> "ShapeTensor":
        """Shape skeleton of a concrete block tensor."""
        return cls(t.indices, t.flux,
                   {k: tuple(b.shape) for k, b in t.blocks.items()})


def plan_shape_contraction(a: ShapeTensor, b: ShapeTensor,
                           axes) -> ContractionPlan:
    """Compile (and memoize) the contraction plan of two shape tensors.

    :func:`repro.symmetry.planner.build_plan` only reads operand *structure*
    (indices, flux, stored block keys), all of which a data-free
    :class:`ShapeTensor` carries, so shape-level simulation prices the very
    same plans real execution would.
    """
    return _SHAPE_PLAN_CACHE.lookup(a, b, axes)


def _plan_output(plan: ContractionPlan, nsym: int) -> ShapeTensor:
    """The output ShapeTensor a plan describes (its precomputed sparsity):
    the plan's output keys, each with its row of ``out_dims`` as a shape."""
    if plan.scalar_output:
        return ShapeTensor([Index.trivial(1, nsym)], zero_charge(nsym))
    return ShapeTensor(plan.out_indices, plan.out_flux,
                       dict(zip(plan.out_keys,
                                map(tuple, plan.out_dims.tolist()))))


def charge_contraction(world: SimWorld, algorithm: str, a: ShapeTensor,
                       b: ShapeTensor, axes, *,
                       operand_keys: Tuple[str | None, str | None] | None = None,
                       out_key: str | None = None) -> Tuple[ShapeTensor, float]:
    """Contract shape tensors and charge the cost model per algorithm.

    The contraction's plan (:func:`plan_shape_contraction`) is priced by
    :meth:`SimWorld.charge_contraction`, the recipe the backends charge in
    real execution; the optional ``operand_keys``/``out_key`` layout-tracker
    names (see :mod:`repro.ctf.layout`) make operand remappings
    sweep-persistent exactly as there.

    Returns the output shape tensor and the contraction's useful flops: the
    block-level count of the plan for every algorithm, also when the
    ``sparse-dense`` kernel is priced on the dense background.
    """
    plan = plan_shape_contraction(a, b, axes)
    world.charge_contraction(algorithm, plan, a, b,
                             operand_keys=operand_keys, out_key=out_key)
    return _plan_output(plan, a.nsym), plan.total_flops


def charge_svd(world: SimWorld, algorithm: str, t: ShapeTensor,
               row_axes: Sequence[int]) -> float:
    """Charge the block-wise SVD of a shape tensor; returns its flop count."""
    total = 0.0
    for rows, cols in svd_group_shapes(t, row_axes):
        if rows and cols:
            world.charge_svd(rows, cols)
            total += svd_flops(rows, cols)
    if algorithm in ("sparse-dense", "sparse-sparse"):
        # blocks must be extracted into a temporary list format first
        world.charge_redistribution(t.nnz)
    return total
