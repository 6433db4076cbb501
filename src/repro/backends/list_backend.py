"""The ``list`` algorithm backend (Section IV-A, Algorithm 2).

Each quantum-number block is conceptually its own distributed dense tensor; a
contraction loops over all pairs of blocks with matching labels along the
contracted modes and contracts each pair with a distributed dense contraction
(one BSP superstep per pair — the ``O(N_b)`` supersteps of Table II).

The block pairing itself is compiled once per operand signature by the
contraction planner and reused across Davidson matvecs; the cost model still
charges one distributed contraction per block pair, but the local arithmetic
executes through the fused/batched GEMM engine.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from ..ctf.world import SimWorld
from ..symmetry import BlockSparseTensor
from ..symmetry.engine import execute_cached
from ..symmetry.linalg import svd_group_shapes
from .base import ContractionBackend


class ListBackend(ContractionBackend):
    """Block-pair contraction with per-block distributed-dense cost accounting.

    Each block pair gets its own mapping decision from
    :meth:`repro.ctf.world.SimWorld.pair_decisions` (the
    :func:`~repro.ctf.plan_cost.pair_mapping_decisions` crossover, memoized
    per plan): large pairs run on the communication-avoiding 3D mapping
    Table II assumes, while pairs below the grain-efficiency crossover stay
    on a plain 2D SUMMA grid (the replication setup of a 3D mapping cannot
    amortize on a small block).  The 2D/3D split is tallied in
    :attr:`mapping_counts`.
    """

    name = "list"

    def __init__(self, world: SimWorld, block_ops=None):
        super().__init__(block_ops=block_ops)
        self.world = world
        #: how many pair contractions ran under each mapping algorithm
        self.mapping_counts: Counter = Counter()

    def contract(self, a: BlockSparseTensor, b: BlockSparseTensor,
                 axes: tuple[Sequence[int], Sequence[int]], *,
                 operand_keys: tuple | None = None,
                 out_key: str | None = None) -> BlockSparseTensor:
        """Contract block pairs individually, charging one superstep each.

        The layout-tracker keys are accepted for interface uniformity but
        unused: the list algorithm re-maps every block pair onto its own
        processor grid, so there is no whole-tensor layout to persist between
        contractions (its remapping cost is part of the per-pair charge).
        """
        plan = self.plan_cache.lookup(a, b, axes)
        self._last_plan = plan
        # one superstep per block pair (Table II: O(N_b) supersteps), sized
        # by the pair's precomputed flops and operand/output block sizes,
        # each priced under its own 2D-vs-3D mapping decision
        self.mapping_counts.update(d.algorithm
                                   for d in self.world.pair_decisions(plan))
        self.world.charge_planned_contraction(plan, algorithm="list")
        return execute_cached(plan, a, b, self.plan_cache,
                              ops=self.block_ops)

    def svd(self, t: BlockSparseTensor, row_axes: Sequence[int],
            col_axes: Sequence[int] | None = None, **kwargs):
        """Block-wise truncated SVD with distributed ``pdgesvd`` cost accounting."""
        result = super().svd(t, row_axes, col_axes, **kwargs)
        # charge one distributed SVD per row-charge group, sized like the
        # group's assembled matrix
        for rows, cols in svd_group_shapes(t, row_axes, col_axes):
            if rows and cols:
                self.world.charge_svd(rows, cols)
        return result
