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
from typing import Dict, Sequence

import numpy as np

from ..ctf.world import SimWorld
from ..symmetry import BlockSparseTensor
from ..symmetry.engine import execute_cached, plan_for
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
        plan = plan_for(a, b, axes, self.plan_cache)
        self._last_plan = plan
        # one superstep per block pair (Table II: O(N_b) supersteps), sized
        # by the pair's precomputed flops and operand/output block sizes,
        # each priced under its own 2D-vs-3D mapping decision
        decisions = self.world.pair_decisions(plan)
        for pair, decision in zip(plan.pairs, decisions):
            self.mapping_counts[decision.algorithm] += 1
            self.world.charge_block_contraction(
                pair.flops, pair.a_size, pair.b_size, pair.out_size,
                num_blocks=plan.npairs,
                largest_block_share=plan.largest_pair_share,
                mapping=decision)
        return execute_cached(plan, a, b, self.plan_cache,
                              ops=self.block_ops)

    def svd(self, t: BlockSparseTensor, row_axes: Sequence[int],
            col_axes: Sequence[int] | None = None, **kwargs):
        """Block-wise truncated SVD with distributed ``pdgesvd`` cost accounting."""
        result = super().svd(t, row_axes, col_axes, **kwargs)
        # charge one distributed SVD per row-charge group, sized like the
        # group's assembled matrix
        row_axes = [int(x) % t.ndim for x in row_axes]
        if col_axes is None:
            col_axes = [x for x in range(t.ndim) if x not in row_axes]
        groups: Dict[tuple, list] = {}
        for key, blk in t.blocks.items():
            qrow = tuple(0 for _ in range(t.nsym))
            for ax in row_axes:
                ix = t.indices[ax]
                qrow = tuple(acc + ix.flow * c for acc, c in
                             zip(qrow, ix.sector_charge(key[ax])))
            groups.setdefault(qrow, []).append((key, blk))
        for _, blks in groups.items():
            rows = sum({tuple(k[ax] for ax in row_axes):
                        int(np.prod([t.indices[ax].sector_dim(k[ax])
                                     for ax in row_axes]))
                        for k, _ in blks}.values())
            cols = sum({tuple(k[ax] for ax in col_axes):
                        int(np.prod([t.indices[ax].sector_dim(k[ax])
                                     for ax in col_axes]))
                        for k, _ in blks}.values())
            if rows and cols:
                self.world.charge_svd(rows, cols)
        return result
