"""Fused/batched GEMM execution of precompiled contraction plans.

The numerical half of the planner/executor split (see
:mod:`repro.symmetry.planner`): given a :class:`ContractionPlan`, pairs
accumulating into the same output block are fused into a single GEMM over
operand panels (the blocks joined along the contracted dimension), and the
remaining single-pair outputs that share a ``(m, k, n)`` shape run as one
batched ``np.matmul``.  This replaces the per-pair ``tensordot`` loop of
Algorithm 2 with a handful of large matrix multiplies — the paper's route to
near-dense GEMM throughput for block-sparse DMRG contractions (Section IV,
Fig. 3).

Every operand block is copied at most once per panel or batch stack it
feeds: :meth:`BlockOps.concat` and :meth:`BlockOps.stack` write each
permuted block straight into its slice, with no matricized intermediate.
A panel is built on its first use; an A panel is released after its last
GEMM (the plan runs an A panel's GEMMs back to back) and the B panels after
the fused groups.  A single-pair operand that numpy can view as a matrix
stays a view.  Panels and stacks keep the layout the matricize-then-join
executor before them got from numpy, so every GEMM, and every bit of its
output, is unchanged.

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


def _operands(t: BlockSparseTensor, keys: Sequence[BlockKey],
              perm: Optional[Tuple[int, ...]], rows: Sequence[int],
              cols: Sequence[int]) -> Tuple[List[np.ndarray], bool]:
    """The planned blocks of ``t`` in slot order, and whether any of them
    is a column-major matrix.

    Slot ``i``'s block is transposed by ``perm`` and taken as its row-major
    ``(rows[i], cols[i])`` matrix where numpy can view it as one; otherwise
    it stays the transposed block, and panels and stacks are written from
    that with no matricized copy.
    """
    blocks = t.blocks
    items: List[np.ndarray] = []
    column_major = False
    for key, r, c in zip(keys, rows, cols):
        blk = blocks[key]
        if perm is not None:
            blk = blk.transpose(perm)
        if blk.flags.c_contiguous:
            items.append(blk.reshape(r, c))
            continue
        try:
            blk = blk.reshape(r, c, copy=False)
        except ValueError:  # only a copy has this matrix's layout
            items.append(blk)
            continue
        items.append(blk)
        if not column_major and r > 1 and c > 1:
            row_stride, col_stride = blk.strides
            column_major = abs(col_stride) > abs(row_stride)
    return items, column_major


def _column_major(items: Sequence[np.ndarray], slots: Sequence[int],
                  rows: Sequence[int], cols: Sequence[int]) -> bool:
    """Whether numpy lays out the join of these slots' matrices
    column-major.

    The executor before panels matricized every block (a view where numpy
    can make one, else a row-major copy) and joined the matrices with
    ``np.concatenate``/``np.stack``, which give a column-major result only
    when every member with two non-unit dims is a column-major view.
    Panels and stacks copy that choice, so each GEMM sees the layout, and
    gives the bits, it always did.
    """
    column_major = False
    for item, i in zip(items, slots):
        r, c = rows[i], cols[i]
        if r == 1 or c == 1:
            continue
        if item.shape != (r, c):  # no view: it was a row-major copy
            return False
        row_stride, col_stride = item.strides
        if abs(col_stride) <= abs(row_stride):
            return False
        column_major = True
    return column_major


def _panel(ops: BlockOps, operands: Sequence[np.ndarray],
           rows: Sequence[int], cols: Sequence[int], slots: Sequence[int],
           axis: int, dtype, any_column_major: bool) -> np.ndarray:
    """The slots' blocks joined along ``axis`` (1 for A, 0 for B)."""
    items = [operands[i] for i in slots]
    if axis:
        shape = (rows[slots[0]], sum([cols[i] for i in slots]))
    else:
        shape = (sum([rows[i] for i in slots]), cols[slots[0]])
    out = (np.empty(shape[::-1], dtype).T
           if any_column_major and _column_major(items, slots, rows, cols)
           else np.empty(shape, dtype))
    return ops.concat(items, axis, out=out)


def _batch(ops: BlockOps, operands: Sequence[np.ndarray],
           rows: Sequence[int], cols: Sequence[int], slots: Sequence[int],
           dtype, any_column_major: bool) -> np.ndarray:
    """The slots' equal-shape blocks stacked into one ``matmul`` batch."""
    items = [operands[i] for i in slots]
    n, r, c = len(slots), rows[slots[0]], cols[slots[0]]
    out = (np.empty((n, c, r), dtype).transpose(0, 2, 1)
           if any_column_major and _column_major(items, slots, rows, cols)
           else np.empty((n, r, c), dtype))
    return ops.stack(items, out=out)


def _matrix(ops: BlockOps, item: np.ndarray, r: int, c: int, dtype
            ) -> np.ndarray:
    """A single-pair GEMM operand: the block's matrix view where there is
    one, else the block written once into a row-major matrix."""
    if item.shape == (r, c):
        return item
    return ops.concat([item], 1, out=np.empty((r, c), dtype))


def execute_plan(plan: ContractionPlan, a: BlockSparseTensor,
                 b: BlockSparseTensor, count_flops: bool = True,
                 ops: Optional[BlockOps] = None):
    """Run a precompiled contraction plan on a matching tensor pair.

    Returns a :class:`BlockSparseTensor`, or a scalar of the proper result
    dtype when the contraction has no free modes.  The output's indices are
    taken from ``a`` and ``b`` themselves, so a plan cached for operands of
    equal structure still labels the result with this call's index tags.
    Panels and stacks of an operand are allocated in that operand's dtype.
    """
    ops = resolve_block_ops(ops)
    out_dtype = np.result_type(a.dtype, b.dtype)
    a_rows, a_cols = plan.a_rows.tolist(), plan.a_cols.tolist()
    b_rows, b_cols = plan.b_rows.tolist(), plan.b_cols.tolist()
    a_blocks, a_cm = _operands(a, plan.a_keys, plan.perm_a, a_rows, a_cols)
    b_blocks, b_cm = _operands(b, plan.b_keys, plan.perm_b, b_rows, b_cols)
    results: List[Optional[np.ndarray]] = [None] * len(plan.out_keys)

    a_ptr, a_slots = plan.a_panel_ptr.tolist(), plan.a_panel_slots.tolist()
    b_ptr, b_slots = plan.b_panel_ptr.tolist(), plan.b_panel_slots.tolist()
    b_panels: List[Optional[np.ndarray]] = [None] * (len(b_ptr) - 1)
    a_id, a_panel = -1, None
    for so, pa, pb in zip(plan.fused_out.tolist(),
                          plan.fused_a_panel.tolist(),
                          plan.fused_b_panel.tolist()):
        if pa != a_id:
            # drop the last A panel, whose GEMMs are done, before the next
            a_id, a_panel = pa, None
            a_panel = _panel(ops, a_blocks, a_rows, a_cols,
                             a_slots[a_ptr[pa]:a_ptr[pa + 1]], 1, a.dtype,
                             a_cm)
        b_panel = b_panels[pb]
        if b_panel is None:
            b_panel = b_panels[pb] = _panel(
                ops, b_blocks, b_rows, b_cols,
                b_slots[b_ptr[pb]:b_ptr[pb + 1]], 0, b.dtype, b_cm)
        results[so] = ops.matmul(a_panel, b_panel)
    a_panel = b_panel = b_panels = None

    ptr = plan.batch_ptr.tolist()
    out_slots = plan.batch_out.tolist()
    batch_a, batch_b = plan.batch_a.tolist(), plan.batch_b.tolist()
    for i, j in zip(ptr, ptr[1:]):
        if j - i == 1:
            sa, sb = batch_a[i], batch_b[i]
            results[out_slots[i]] = ops.matmul(
                _matrix(ops, a_blocks[sa], a_rows[sa], a_cols[sa], a.dtype),
                _matrix(ops, b_blocks[sb], b_rows[sb], b_cols[sb], b.dtype))
        else:
            prod = ops.matmul(
                _batch(ops, a_blocks, a_rows, a_cols, batch_a[i:j], a.dtype,
                       a_cm),
                _batch(ops, b_blocks, b_rows, b_cols, batch_b[i:j], b.dtype,
                       b_cm))
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
