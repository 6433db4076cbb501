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

from ..ctf.world import SimWorld
from ..perf.flops import dense_contraction_flops
from ..symmetry import BlockSparseTensor
from ..symmetry.engine import execute_cached
from .base import ContractionBackend, single_tensor_svd_shape


class SparseDenseBackend(ContractionBackend):
    """Single-tensor contraction: dense Davidson intermediates, sparse operands."""

    name = "sparse-dense"

    #: tensor order above which an intermediate is considered a Davidson
    #: intermediate (order-4 two-site tensors and order-5 partial products)
    dense_intermediate_order: int = 4

    def __init__(self, world: SimWorld, block_ops=None):
        super().__init__(block_ops=block_ops)
        self.world = world

    def _is_davidson_intermediate(self, t: BlockSparseTensor) -> bool:
        return t.ndim >= self.dense_intermediate_order

    def contract(self, a: BlockSparseTensor, b: BlockSparseTensor,
                 axes: tuple[Sequence[int], Sequence[int]], *,
                 operand_keys: tuple | None = None,
                 out_key: str | None = None) -> BlockSparseTensor:
        """Contract; dense pricing for Davidson intermediates, else planned."""
        # exact numerics through the planned block layer
        plan = self.plan_cache.lookup(a, b, axes)
        result = execute_cached(plan, a, b, self.plan_cache,
                                ops=self.block_ops)
        self._last_plan = plan

        if isinstance(result, BlockSparseTensor):
            out_dense_size = result.dense_size
            out_is_dense = self._is_davidson_intermediate(result)
        else:  # scalar output
            out_dense_size = 1
            out_is_dense = False
        a_is_dense = self._is_davidson_intermediate(a)
        b_is_dense = self._is_davidson_intermediate(b)

        if out_is_dense or a_is_dense or b_is_dense:
            # operands kept sparse unless they are Davidson intermediates
            size_a = a.dense_size if a_is_dense else a.nnz
            size_b = b.dense_size if b_is_dense else b.nnz
            size_c = out_dense_size if out_is_dense else (
                result.nnz if isinstance(result, BlockSparseTensor) else 1)
            self.world.charge_dense_contraction(
                dense_contraction_flops(a, b, plan.axes_a),
                size_a, size_b, size_c)
        else:
            # all-sparse operands: price the planned layout (block-aligned
            # volumes) rather than the aggregate nnz; the output's birth
            # layout is recorded so later contractions can reuse it in place
            self.world.charge_planned_contraction(plan,
                                                  algorithm="sparse-dense",
                                                  out_key=out_key)
        return result

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
