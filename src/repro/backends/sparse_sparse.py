"""The ``sparse-sparse`` algorithm backend (Section IV-A).

Every tensor — including the intermediates of the Davidson routine — is stored
as a single distributed sparse tensor.  Knowledge of the quantum-number labels
is used to precompute the output sparsity, which Cyclops exploits to control
memory during the contraction; the cost model therefore charges sparse-kernel
time on the actual number of nonzeros and the Table II ``O(M_D / p^(1/2))``
communication volume in ``O(1)`` supersteps.
"""

from __future__ import annotations

from typing import Sequence

from ..ctf.world import SimWorld
from ..symmetry import BlockSparseTensor
from ..symmetry.engine import execute_cached
from .base import ContractionBackend, single_tensor_svd_shape


class SparseSparseBackend(ContractionBackend):
    """Single sparse-tensor contraction with precomputed output sparsity."""

    name = "sparse-sparse"

    def __init__(self, world: SimWorld, *, block_ops=None):
        super().__init__(block_ops=block_ops)
        self.world = world

    def contract(self, a: BlockSparseTensor, b: BlockSparseTensor,
                 axes: tuple[Sequence[int], Sequence[int]], *,
                 operand_keys: tuple | None = None,
                 out_key: str | None = None) -> BlockSparseTensor:
        """Contract as one sparse tensor op, priced from the compiled plan."""
        # the plan's output-block list is exactly the "precomputed output
        # sparsity" the sparse-sparse algorithm hands to Cyclops, and its
        # block-pair structure is what the plan-aware cost model prices
        # (block-aligned communication volumes instead of aggregate nnz)
        plan = self.plan_cache.lookup(a, b, axes)
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
        self.world.charge_svd(*single_tensor_svd_shape(t, row_axes))
        return result


def make_backend(name: str, world: SimWorld | None = None, *,
                 block_ops=None):
    """Factory: ``"direct"``, ``"list"``, ``"sparse-dense"`` or ``"sparse-sparse"``.

    ``block_ops`` is the numerical-kernel instance (``None`` → numpy, or a
    :class:`~repro.symmetry.blockops.BlockOps` instance); the modelled costs
    are identical for every choice.  Every backend it builds runs through
    the planner; construct ``DirectBackend(use_planner=False)`` directly for
    the naive Algorithm-2 reference.
    """
    from .base import DirectBackend
    from .list_backend import ListBackend
    from .sparse_dense import SparseDenseBackend

    if name == "direct":
        return DirectBackend(block_ops=block_ops)
    if world is None:
        raise ValueError(f"backend {name!r} requires a SimWorld")
    if name == "list":
        return ListBackend(world, block_ops=block_ops)
    if name == "sparse-dense":
        return SparseDenseBackend(world, block_ops=block_ops)
    if name == "sparse-sparse":
        return SparseSparseBackend(world, block_ops=block_ops)
    raise ValueError(f"unknown backend {name!r}")
