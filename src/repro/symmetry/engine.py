"""Fused/batched GEMM execution of precompiled contraction plans.

The numerical half of the planner/executor split (see
:mod:`repro.symmetry.planner`): given a :class:`ContractionPlan`, every
operand block is matricized exactly once, pairs accumulating into the same
output block are fused into a single GEMM (operand views concatenated along
the contracted dimension), and the remaining single-pair outputs that share a
``(m, k, n)`` shape run as one batched ``np.matmul``.  Both group kinds are
CSR arrays on the plan: each column is turned into a list once per call, the
matricized operands are gathered in group order once, and every GEMM takes a
slice of that list.  This replaces the per-pair ``tensordot`` loop of
Algorithm 2 with a handful of large matrix multiplies — the paper's route to
near-dense GEMM throughput for block-sparse DMRG contractions (Section IV,
Fig. 3).

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
from .planner import BlockKey, ContractionPlan, PlanCache


def _matricize(t: BlockSparseTensor, keys: Sequence[BlockKey],
               rows: Sequence[int], cols: Sequence[int],
               perm: Optional[Tuple[int, ...]], ops: BlockOps
               ) -> List[np.ndarray]:
    """Reshape every planned operand block into its 2-D view, once."""
    blocks = t.blocks
    mats: List[np.ndarray] = []
    for key, r, c in zip(keys, rows, cols):
        blk = blocks[key]
        if perm is not None:
            blk = np.transpose(blk, perm)
        mats.append(ops.prepare(blk.reshape(r, c)))
    return mats


def execute_plan(plan: ContractionPlan, a: BlockSparseTensor,
                 b: BlockSparseTensor, count_flops: bool = True,
                 ops: Optional[BlockOps] = None):
    """Run a precompiled contraction plan on a matching tensor pair.

    Returns a :class:`BlockSparseTensor`, or a scalar of the proper result
    dtype when the contraction has no free modes.  The output's indices are
    taken from ``a`` and ``b`` themselves, so a plan cached for operands of
    equal structure still labels the result with this call's index tags.
    """
    ops = resolve_block_ops(ops)
    out_dtype = ops.result_type(a.dtype, b.dtype)
    amats = _matricize(a, plan.a_keys, plan.a_rows.tolist(),
                       plan.a_cols.tolist(), plan.perm_a, ops)
    bmats = _matricize(b, plan.b_keys, plan.b_rows.tolist(),
                       plan.b_cols.tolist(), plan.perm_b, ops)
    results: List[Optional[np.ndarray]] = [None] * len(plan.out_keys)

    ptr = plan.fused_ptr.tolist()
    lhs = [amats[i] for i in plan.fused_a.tolist()]
    rhs = [bmats[i] for i in plan.fused_b.tolist()]
    for so, i, j in zip(plan.fused_out.tolist(), ptr, ptr[1:]):
        results[so] = ops.matmul(ops.concat(lhs[i:j], axis=1),
                                 ops.concat(rhs[i:j], axis=0))

    ptr = plan.batch_ptr.tolist()
    out_slots = plan.batch_out.tolist()
    lhs = [amats[i] for i in plan.batch_a.tolist()]
    rhs = [bmats[i] for i in plan.batch_b.tolist()]
    for i, j in zip(ptr, ptr[1:]):
        if j - i == 1:
            results[out_slots[i]] = ops.matmul(lhs[i], rhs[i])
        else:
            prod = ops.matmul(ops.stack(lhs[i:j]), ops.stack(rhs[i:j]))
            for res, so in zip(prod, out_slots[i:j]):
                results[so] = res

    if count_flops and plan.total_flops:
        _flops.add_flops(plan.total_flops, "gemm")

    if plan.scalar_output:
        total = out_dtype.type(0)
        for res in results:
            total = total + res[0, 0]
        return total
    blocks = {key: res.reshape(shape)
              for key, shape, res in zip(plan.out_keys, plan.out_dims.tolist(),
                                         results)}
    out_indices = tuple(a.indices[i] for i in plan.keep_a) + \
        tuple(b.indices[i] for i in plan.keep_b)
    return BlockSparseTensor(out_indices, blocks, flux=plan.out_flux,
                             dtype=out_dtype, check=False)


def execute_cached(plan: ContractionPlan, a: BlockSparseTensor,
                   b: BlockSparseTensor, cache: PlanCache,
                   count_flops: bool = True,
                   ops: Optional[BlockOps] = None):
    """Execute a plan while attributing execution time to ``cache``."""
    span = trace.timed_span("contract", "planner").start()
    out = execute_plan(plan, a, b, count_flops=count_flops, ops=ops)
    cache.execute_seconds += span.stop()
    return out


def contract_planned(a: BlockSparseTensor, b: BlockSparseTensor,
                     axes: Tuple[Sequence[int], Sequence[int]],
                     cache: PlanCache, count_flops: bool = True,
                     ops: Optional[BlockOps] = None):
    """Contract two block tensors through the plan cache.

    The naive per-pair Algorithm-2 loop (:meth:`BlockSparseTensor.contract`)
    is the reference the property tests compare this against.
    """
    plan = cache.lookup(a, b, axes)
    return execute_cached(plan, a, b, cache, count_flops=count_flops, ops=ops)
