"""The ``sparse-dense`` algorithm backend (Section IV-A).

All quantum-number blocks are embedded in a single distributed tensor.  MPS,
MPO and environment tensors are kept *sparse* to conserve memory, while the
intermediate tensors of the Davidson routine are stored *dense*, trading
memory (an MPS tensor costs the full ``d m^2``, as without quantum numbers)
for the throughput of dense distributed contractions executed in a single
call.
"""

from __future__ import annotations

from typing import Sequence

from ..symmetry import BlockSparseTensor
from .base import WorldBackend, single_tensor_svd_shape


class SparseDenseBackend(WorldBackend):
    """Single-tensor contraction: dense Davidson intermediates, sparse operands.

    A contraction with an intermediate of order
    :data:`~repro.ctf.world.DENSE_INTERMEDIATE_ORDER` or more is priced as
    one dense contraction; all-sparse ones are priced from the planned
    layout (:meth:`repro.ctf.world.SimWorld.charge_contraction`).
    """

    name = "sparse-dense"

    def svd(self, t: BlockSparseTensor, row_axes: Sequence[int],
            col_axes: Sequence[int] | None = None, **kwargs):
        """SVD is always performed block-wise via the list format (paper)."""
        result = super().svd(t, row_axes, col_axes, **kwargs)
        # extraction of blocks from the single tensor into a temporary list
        # format costs one redistribution, capped at the block-aligned words
        # of the plan that produced ``t`` (the densification can never move
        # more than the planned layout stores)
        self.world.charge_redistribution(t.nnz,
                                         plan=self._conversion_plan(t),
                                         operand="out")
        self.world.charge_svd(*single_tensor_svd_shape(t, row_axes))
        return result
