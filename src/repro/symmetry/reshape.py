"""Fusing of block-sparse tensor modes.

Several DMRG operations need to merge a group of tensor modes into a single
mode: applying an MPO to an MPS multiplies bond
dimensions (``m -> k*m``), and the paper's SVD path "wraps" tensor indices to
form an effective order-2 matrix with a row index and a column index
(Section IV-A).  With quantum numbers, merging modes means combining charge
sectors: every combination of input sectors lands at a well-defined offset
inside the fused sector carrying the combined charge.

:func:`fuse_modes` performs the merge and records its bookkeeping
(:class:`FusedMode`: where each combination of input sectors landed).  The fused
index produced here is interchangeable with the one :func:`~repro.symmetry.index.fuse_indices`
computes (same sector order, same offsets), which is what guarantees that two
independently fused bonds on neighbouring tensors remain contractible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .block_tensor import BlockKey, BlockSparseTensor
from .index import Index, fuse_indices


@dataclass
class FusedMode:
    """Bookkeeping of one fused mode: where each original sector combination
    lands inside the fused index.

    Attributes
    ----------
    index:
        The fused :class:`Index` (one sector per distinct combined charge).
    original_indices:
        The indices that were merged, in the order they were merged.
    fusemap:
        ``fusemap[(s_1, ..., s_n)] = (fused_sector, offset)`` for every
        combination of original sector ids.
    axis:
        Position of the fused mode in the output tensor.
    """

    index: Index
    original_indices: Tuple[Index, ...]
    fusemap: Dict[Tuple[int, ...], Tuple[int, int]]
    axis: int

    def combo_dim(self, combo: Tuple[int, ...]) -> int:
        """Dense size of one combination of original sectors."""
        d = 1
        for ix, s in zip(self.original_indices, combo):
            d *= ix.sector_dim(s)
        return d


def fuse_modes(t: BlockSparseTensor, groups: Sequence[Sequence[int]],
               flows: Sequence[int] | None = None,
               tags: Sequence[str] | None = None
               ) -> Tuple[BlockSparseTensor, List[FusedMode]]:
    """Fuse groups of modes of ``t`` into single modes.

    Parameters
    ----------
    t:
        The tensor to reshape.
    groups:
        A partition of ``range(t.ndim)``; the output tensor has one mode per
        group, in the order the groups are given.  Groups of length one pass
        the original index through unchanged.
    flows:
        Flow (+1/-1) of each fused mode.  Defaults to the flow of the first
        index in each group.
    tags:
        Tag of each fused mode (defaults to ``"fused"`` for merged groups).

    Returns
    -------
    (fused_tensor, fused_modes):
        The reshaped tensor and a list of :class:`FusedMode` records, one per
        group of length > 1 (pass-through modes produce no record).
    """
    flat = [ax for grp in groups for ax in grp]
    if sorted(flat) != list(range(t.ndim)):
        raise ValueError(f"groups {groups} do not partition modes of an "
                         f"order-{t.ndim} tensor")
    perm = tuple(flat)
    tp = t.transpose(perm) if perm != tuple(range(t.ndim)) else t

    # positions of each group in the permuted tensor
    spans: List[Tuple[int, int]] = []
    pos = 0
    for grp in groups:
        spans.append((pos, pos + len(grp)))
        pos += len(grp)

    out_indices: List[Index] = []
    records: List[FusedMode] = []
    for gi, (grp, (lo, hi)) in enumerate(zip(groups, spans)):
        sub = tp.indices[lo:hi]
        if len(grp) == 1:
            out_indices.append(sub[0])
            continue
        flow = flows[gi] if flows is not None else sub[0].flow
        tag = tags[gi] if tags is not None else "fused"
        fused, fusemap = fuse_indices(sub, flow=flow, tag=tag)
        out_indices.append(fused)
        records.append(FusedMode(fused, tuple(sub), fusemap, gi))

    out = BlockSparseTensor.zeros(out_indices, flux=t.flux, dtype=tp.dtype)
    blocks: Dict[BlockKey, np.ndarray] = {}
    for key, blk in tp.blocks.items():
        out_key: List[int] = []
        out_slices: List[slice] = []
        out_shape: List[int] = []
        rec_iter = iter(records)
        rec = next(rec_iter, None)
        for gi, (grp, (lo, hi)) in enumerate(zip(groups, spans)):
            sub_key = tuple(key[lo:hi])
            if len(grp) == 1:
                out_key.append(sub_key[0])
                dim = tp.indices[lo].sector_dim(sub_key[0])
                out_slices.append(slice(0, dim))
                out_shape.append(dim)
                continue
            assert rec is not None and rec.axis == gi
            sector, offset = rec.fusemap[sub_key]
            d = rec.combo_dim(sub_key)
            out_key.append(sector)
            out_slices.append(slice(offset, offset + d))
            out_shape.append(d)
            rec = next(rec_iter, None)
        key_out = tuple(out_key)
        if key_out not in blocks:
            shape = tuple(ix.sector_dim(s) for ix, s in zip(out_indices, key_out))
            blocks[key_out] = np.zeros(shape, dtype=tp.dtype)
        blocks[key_out][tuple(out_slices)] = blk.reshape(out_shape)
    out.blocks = blocks
    return out, records
