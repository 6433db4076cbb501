"""Contraction backend interface.

The DMRG engine never contracts tensors directly; it goes through a
:class:`ContractionBackend`.  This is where the paper's three algorithms
diverge (Section IV-A):

* ``list``          — loop over quantum-number block pairs (Algorithm 2), each
  block contraction executed as a distributed dense contraction;
* ``sparse-dense``  — blocks embedded in one distributed tensor, Davidson
  intermediates dense;
* ``sparse-sparse`` — every intermediate stored as one distributed sparse
  tensor with precomputed output sparsity.

The numerical result is identical for all backends (they all implement the
same tensor algebra); what differs is how the work maps onto the simulated
machine: flops, communication volume, synchronization counts and memory are
charged differently, following Table II.  :class:`DirectBackend` is the
plain single-process reference used for correctness tests and as the
"ITensor-like" baseline building block.

Every backend owns a :class:`~repro.symmetry.planner.PlanCache`: the symbolic
block pairing of a contraction is planned once per operand signature and the
arithmetic runs through the fused/batched GEMM executor
(:mod:`repro.symmetry.engine`), so repeated Davidson matvecs and later sweeps
skip the per-pair bookkeeping entirely.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

from ..symmetry import BlockSparseTensor
from ..symmetry import linalg as blocklinalg
from ..symmetry.blockops import BlockOps, resolve_block_ops
from ..symmetry.engine import contract_planned
from ..symmetry.planner import PlanCache


def single_tensor_svd_shape(t: BlockSparseTensor,
                            row_axes: Sequence[int]) -> Tuple[int, int]:
    """The one matrix the single-tensor algorithms price their SVD at.

    ``t``'s dense row x column matricization, each side capped at four times
    the other.  The ``sparse-dense`` and ``sparse-sparse`` backends charge
    one distributed SVD of this shape; the shape-level simulation instead
    prices one per row-charge group (see ``docs/architecture.md`` §3).
    """
    rows = math.prod(t.indices[int(x) % t.ndim].dim for x in row_axes)
    cols = max(t.dense_size // max(rows, 1), 1)
    return min(rows, cols * 4), min(cols, rows * 4)


class ContractionBackend(ABC):
    """Strategy object performing tensor contractions and factorizations."""

    #: short identifier ("direct", "list", "sparse-dense", "sparse-sparse")
    name: str = "abstract"

    def __init__(self, block_ops=None) -> None:
        #: the numerical kernels every contraction and factorization of this
        #: backend runs through (``None`` → numpy, or a ``BlockOps`` instance);
        #: plans, flops and modelled charges are independent of this choice
        self.block_ops: BlockOps = resolve_block_ops(block_ops)
        #: memoized contraction plans, shared by every contraction this
        #: backend performs; only the naive ``DirectBackend`` has none
        self.plan_cache: Optional[PlanCache] = PlanCache()
        # the most recent contraction plan this backend executed; the
        # single-tensor algorithms use it to bound the format-conversion
        # volume of a subsequent SVD at the planned (block-aligned) layout
        self._last_plan = None
        #: Davidson matvec chains applied through this backend
        #: (:meth:`repro.symmetry.matvec.MatvecCompiler.apply`)
        self.matvec_applies = 0

    @abstractmethod
    def contract(self, a: BlockSparseTensor, b: BlockSparseTensor,
                 axes: tuple[Sequence[int], Sequence[int]], *,
                 operand_keys: tuple | None = None,
                 out_key: str | None = None) -> BlockSparseTensor:
        """Contract two block tensors along ``axes``.

        ``operand_keys``/``out_key`` are optional layout-tracker names of the
        operands and output (see :mod:`repro.ctf.layout`); backends with a
        distributed cost model use them to charge redistribution only on real
        mapping changes.  Backends without one ignore them.
        """

    def _conversion_plan(self, t: BlockSparseTensor):
        """The cached plan whose output is ``t``, if the structure matches.

        The SVD format-conversion charge of the single-tensor algorithms is
        capped at the block-aligned words of the plan that produced the
        tensor.  The last executed plan is used only when its output
        signature (indices and flux) matches ``t`` — the Davidson eigenvector
        is a linear combination of effective-Hamiltonian outputs and shares
        their structure, while an unrelated tensor falls back to its
        aggregate nnz.
        """
        plan = self._last_plan
        if plan is not None and not plan.scalar_output and \
                tuple(plan.out_indices) == tuple(t.indices) and \
                tuple(plan.out_flux) == tuple(t.flux):
            return plan
        return None

    def charge_compiled_stage(self, stage) -> None:
        """Placeholder pinned by ``benchmarks/e2e`` (see the pin comment in
        :mod:`repro.symmetry.matvec`); never called: :meth:`contract` is the
        single place a backend charges."""
        raise NotImplementedError("compiled matvec programs were removed")

    def invalidate_layouts(self, *keys: str) -> None:
        """Forget tracked layouts of operands rewritten outside the model.

        Called by the sweep driver after an SVD replaces the site tensors:
        their next appearance in a contraction must charge a remapping again.
        No-op for backends without a simulated world.
        """
        world = getattr(self, "world", None)
        if world is not None:
            world.layout_tracker.invalidate(*keys)

    def svd(self, t: BlockSparseTensor, row_axes: Sequence[int],
            col_axes: Sequence[int] | None = None, **kwargs):
        """Truncated block SVD (the paper always performs SVD block-wise,
        via the list format, regardless of contraction algorithm)."""
        kwargs.setdefault("ops", self.block_ops)
        return blocklinalg.svd(t, row_axes, col_axes, **kwargs)

    def synchronize(self) -> None:
        """Hook called at the end of each DMRG local optimization."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} name={self.name!r}>"


class DirectBackend(ContractionBackend):
    """Plain single-process contraction (no distribution, no cost model).

    Runs through the plan cache and fused-GEMM executor by default;
    ``use_planner=False`` selects the naive per-pair Algorithm-2 loop, which
    is the reference the planned path is tested and benchmarked against.
    """

    name = "direct"

    def __init__(self, use_planner: bool = True, block_ops=None):
        super().__init__(block_ops=block_ops)
        if not use_planner:
            self.plan_cache = None

    def contract(self, a: BlockSparseTensor, b: BlockSparseTensor,
                 axes: tuple[Sequence[int], Sequence[int]], *,
                 operand_keys: tuple | None = None,
                 out_key: str | None = None) -> BlockSparseTensor:
        """Contract locally through the planner (no cost model attached)."""
        if self.plan_cache is None:
            return a.contract(b, axes, ops=self.block_ops)
        return contract_planned(a, b, axes, cache=self.plan_cache,
                                ops=self.block_ops)
