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

from typing import Sequence

from ..symmetry import BlockSparseTensor
from ..symmetry.linalg import svd_group_shapes
from .base import WorldBackend


class ListBackend(WorldBackend):
    """Block-pair contraction with per-block distributed-dense cost accounting.

    Each block pair gets its own mapping decision from
    :meth:`repro.ctf.world.SimWorld.pair_decisions` (the
    :func:`~repro.ctf.plan_cost.pair_mapping_decisions` crossover, memoized
    per plan): large pairs run on the communication-avoiding 3D mapping
    Table II assumes, while pairs below the grain-efficiency crossover stay
    on a plain 2D SUMMA grid (the replication setup of a 3D mapping cannot
    amortize on a small block).  The layout-tracker keys are unused: every
    block pair is re-mapped onto its own processor grid, so there is no
    whole-tensor layout to persist between contractions.
    """

    name = "list"

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
