"""The ``sparse-sparse`` algorithm backend (Section IV-A).

Every tensor — including the intermediates of the Davidson routine — is stored
as a single distributed sparse tensor.  Knowledge of the quantum-number labels
is used to precompute the output sparsity, which Cyclops exploits to control
memory during the contraction; the cost model therefore charges sparse-kernel
time on the actual number of nonzeros and the Table II ``O(M_D / p^(1/2))``
communication volume in ``O(1)`` supersteps.

For small problems the backend can also *execute* the contraction through the
genuinely sparse path (:class:`~repro.ctf.sparse_tensor.SparseDistTensor`,
i.e. a matricized sparse-matrix multiply), which is used by the test suite to
verify that the sparse execution path and the block-pair path agree.
"""

from __future__ import annotations

from typing import Sequence

from ..ctf.sparse_tensor import SparseDistTensor
from ..ctf.world import SimWorld
from ..symmetry import BlockSparseTensor
from ..symmetry.engine import execute_cached, plan_for
from .base import ContractionBackend


class SparseSparseBackend(ContractionBackend):
    """Single sparse-tensor contraction with precomputed output sparsity."""

    name = "sparse-sparse"

    def __init__(self, world: SimWorld, *, execute_sparse: bool = False,
                 sparse_execution_limit: int = 200_000, block_ops=None):
        super().__init__(block_ops=block_ops)
        self.world = world
        #: when set, contractions below the size limit run through the real
        #: scipy.sparse matricized-multiply path instead of the block loop
        self.execute_sparse = execute_sparse
        self.sparse_execution_limit = sparse_execution_limit

    # -- helpers -------------------------------------------------------------
    def _contract_via_sparse(self, a: BlockSparseTensor, b: BlockSparseTensor,
                             axes) -> BlockSparseTensor:
        """Execute through the real sparse path and convert back to blocks."""
        sa = SparseDistTensor.from_dense(a.to_dense(), self.world)
        sb = SparseDistTensor.from_dense(b.to_dense(), self.world)
        sc = sa.contract(sb, axes)
        axes_a = tuple(int(x) % a.ndim for x in axes[0])
        axes_b = tuple(int(x) % b.ndim for x in axes[1])
        keep_a = [i for i in range(a.ndim) if i not in axes_a]
        keep_b = [i for i in range(b.ndim) if i not in axes_b]
        out_indices = tuple(a.indices[i] for i in keep_a) + \
            tuple(b.indices[i] for i in keep_b)
        from ..symmetry.charges import add_charges
        return BlockSparseTensor.from_dense(
            sc.to_dense(), out_indices, flux=add_charges(a.flux, b.flux),
            tol=0.0, require_symmetric=False)

    # -- backend API ----------------------------------------------------------
    def contract(self, a: BlockSparseTensor, b: BlockSparseTensor,
                 axes: tuple[Sequence[int], Sequence[int]], *,
                 operand_keys: tuple | None = None,
                 out_key: str | None = None) -> BlockSparseTensor:
        """Contract as one sparse tensor op, priced from the compiled plan."""
        use_sparse_exec = (self.execute_sparse and
                           a.dense_size <= self.sparse_execution_limit and
                           b.dense_size <= self.sparse_execution_limit)
        if use_sparse_exec:
            # the sparse execution path bypasses the planner: whatever plan
            # ran last no longer describes the tensor returned here, so it
            # must not cap a later SVD's format-conversion volume
            self._last_plan = None
            return self._contract_via_sparse(a, b, axes)
        # the plan's output-block list is exactly the "precomputed output
        # sparsity" the sparse-sparse algorithm hands to Cyclops, and its
        # block-pair structure is what the plan-aware cost model prices
        # (block-aligned communication volumes instead of aggregate nnz)
        plan = plan_for(a, b, axes, self.plan_cache)
        result = execute_cached(plan, a, b, self.plan_cache,
                                ops=self.block_ops)
        self._last_plan = plan
        # operand_nnz makes the world charge the operands' remapping onto the
        # contraction grid first (plan-aware volumes, capped at stored nnz);
        # named operands pay it only when their tracked layout actually
        # changes, and the output's birth layout is recorded for free
        self.world.charge_planned_contraction(plan,
                                              operand_nnz=(a.nnz, b.nnz),
                                              operand_keys=operand_keys,
                                              out_key=out_key)
        return result

    def svd(self, t: BlockSparseTensor, row_axes: Sequence[int],
            col_axes: Sequence[int] | None = None, **kwargs):
        """SVD via temporary list format (blocks extracted, then recombined)."""
        result = super().svd(t, row_axes, col_axes, **kwargs)
        # extracting blocks into the temporary list format and rebuilding the
        # sparse tensor afterwards is a two-phase format conversion: two
        # all-to-alls of the stored nonzeros sharing one repacking pass,
        # capped at the block-aligned words of the plan that produced ``t``
        self.world.charge_format_conversion(t.nnz, phases=2,
                                            plan=self._conversion_plan(t),
                                            operand="out")
        row_axes = [int(x) % t.ndim for x in row_axes]
        rows = 1
        for ax in row_axes:
            rows *= t.indices[ax].dim
        cols = max(t.dense_size // max(rows, 1), 1)
        self.world.charge_svd(min(rows, cols * 4), min(cols, rows * 4))
        return result


def make_backend(name: str, world: SimWorld | None = None, *,
                 block_ops=None, **kwargs):
    """Factory: ``"direct"``, ``"list"``, ``"sparse-dense"`` or ``"sparse-sparse"``.

    ``block_ops`` is the numerical-kernel instance (``None`` → numpy, or a
    :class:`~repro.symmetry.blockops.BlockOps` instance); the modelled costs
    are identical for every choice.
    """
    from .base import DirectBackend
    from .list_backend import ListBackend
    from .sparse_dense import SparseDenseBackend

    if name == "direct":
        return DirectBackend(block_ops=block_ops, **kwargs)
    if world is None:
        raise ValueError(f"backend {name!r} requires a SimWorld")
    if name == "list":
        return ListBackend(world, block_ops=block_ops)
    if name == "sparse-dense":
        return SparseDenseBackend(world, block_ops=block_ops)
    if name == "sparse-sparse":
        return SparseSparseBackend(world, block_ops=block_ops, **kwargs)
    raise ValueError(f"unknown backend {name!r}")
