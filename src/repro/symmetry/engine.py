"""Fused/batched GEMM execution of precompiled contraction plans.

The numerical half of the planner/executor split (see
:mod:`repro.symmetry.planner`): given a :class:`ContractionPlan`, every
operand block is matricized exactly once, pairs accumulating into the same
output block are fused into a single GEMM (operand views concatenated along
the contracted dimension), and the remaining single-pair outputs that share a
``(m, k, n)`` shape run as one batched ``np.matmul``.  This replaces the
per-pair ``tensordot`` loop of Algorithm 2 with a handful of large matrix
multiplies — the paper's route to near-dense GEMM throughput for block-sparse
DMRG contractions (Section IV, Fig. 3).

All arithmetic is issued through a :class:`~repro.symmetry.blockops.BlockOps`
instance; plans and flop accounting are independent of which implementation
runs the GEMMs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs import trace
from ..perf import flops as _flops
from .block_tensor import BlockSparseTensor
from .blockops import BlockOps, resolve_block_ops
from .planner import ContractionPlan, MatSlot, PlanCache, build_plan


def _matricize(t: BlockSparseTensor, slots: Sequence[MatSlot],
               ops: BlockOps) -> List[np.ndarray]:
    """Reshape every planned operand block into its 2-D view, once."""
    blocks = t.blocks
    mats: List[np.ndarray] = []
    for slot in slots:
        blk = blocks[slot.key]
        if slot.perm is not None:
            blk = np.transpose(blk, slot.perm)
        mats.append(ops.prepare(blk.reshape(slot.rows, slot.cols)))
    return mats


def execute_plan(plan: ContractionPlan, a: BlockSparseTensor,
                 b: BlockSparseTensor, count_flops: bool = True,
                 ops: Optional[BlockOps] = None):
    """Run a precompiled contraction plan on a matching tensor pair.

    Returns a :class:`BlockSparseTensor`, or a scalar of the proper result
    dtype when the contraction has no free modes.
    """
    ops = resolve_block_ops(ops)
    out_dtype = ops.result_type(a.dtype, b.dtype)
    amats = _matricize(a, plan.a_slots, ops)
    bmats = _matricize(b, plan.b_slots, ops)
    results: List[Optional[np.ndarray]] = [None] * len(plan.out_specs)

    for grp in plan.fused_groups:
        if len(grp.a_slots) == 1:
            lhs, rhs = amats[grp.a_slots[0]], bmats[grp.b_slots[0]]
        else:
            lhs = ops.concat([amats[i] for i in grp.a_slots], axis=1)
            rhs = ops.concat([bmats[i] for i in grp.b_slots], axis=0)
        results[grp.out_slot] = ops.matmul(lhs, rhs)

    for batch in plan.batch_groups:
        entries = batch.entries
        if len(entries) == 1:
            so, sa, sb = entries[0]
            results[so] = ops.matmul(amats[sa], bmats[sb])
        else:
            lhs = ops.stack([amats[sa] for _, sa, _ in entries])
            rhs = ops.stack([bmats[sb] for _, _, sb in entries])
            prod = ops.matmul(lhs, rhs)
            for i, (so, _, _) in enumerate(entries):
                results[so] = prod[i]

    if count_flops and plan.total_flops:
        _flops.add_flops(plan.total_flops, "gemm")

    if plan.scalar_output:
        total = out_dtype.type(0)
        for res in results:
            total = total + res[0, 0]
        return total
    blocks = {spec.key: res.reshape(spec.shape)
              for spec, res in zip(plan.out_specs, results)}
    return BlockSparseTensor(plan.out_indices, blocks, flux=plan.out_flux,
                             dtype=out_dtype, check=False)


def execute_cached(plan: ContractionPlan, a: BlockSparseTensor,
                   b: BlockSparseTensor, cache: PlanCache | None,
                   count_flops: bool = True,
                   ops: Optional[BlockOps] = None):
    """Execute a plan while attributing execution time to ``cache``."""
    if cache is None:
        return execute_plan(plan, a, b, count_flops=count_flops, ops=ops)
    span = trace.timed_span("contract", "planner").start()
    out = execute_plan(plan, a, b, count_flops=count_flops, ops=ops)
    cache.execute_seconds += span.stop()
    return out


def plan_for(a: BlockSparseTensor, b: BlockSparseTensor,
             axes: Tuple[Sequence[int], Sequence[int]],
             cache: PlanCache | None) -> ContractionPlan:
    """Fetch a plan through ``cache``, or build a one-shot plan without one.

    Backends that need the plan itself (for cost accounting) use this so a
    ``plan_cache`` set to ``None`` still works, just without memoization.
    """
    if cache is None:
        return build_plan(a, b, axes)
    return cache.lookup(a, b, axes)


def contract_planned(a: BlockSparseTensor, b: BlockSparseTensor,
                     axes: Tuple[Sequence[int], Sequence[int]],
                     cache: PlanCache | None = None,
                     count_flops: bool = True,
                     ops: Optional[BlockOps] = None):
    """Contract two block tensors through the plan cache.

    With ``cache=None`` this falls back to the naive per-pair Algorithm-2
    loop (:meth:`BlockSparseTensor.contract`), which is also the reference
    the property tests compare the planned path against.
    """
    if cache is None:
        return a.contract(b, axes, count_flops=count_flops, ops=ops)
    plan = cache.lookup(a, b, axes)
    return execute_cached(plan, a, b, cache, count_flops=count_flops, ops=ops)
