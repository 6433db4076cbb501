"""Block-wise matrix factorizations (SVD, QR) of symmetric tensors.

The two-site DMRG update splits the optimized order-4 tensor back into two
order-3 MPS tensors via a truncated SVD (Fig. 1e of the paper).  With quantum
numbers, the matricized tensor is block diagonal over the *row charge*: every
block whose row modes fuse to the same total charge belongs to the same
diagonal block.  We therefore group blocks by row charge, assemble one dense
matrix per charge group ("grouped via similar quantum numbers along a row or
column index" in the paper's words), factorize each group independently, and
truncate globally across groups by singular value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..perf import flops as _flops
from .charges import Charge, zero_charge
from .block_tensor import BlockKey, BlockSparseTensor
from .blockops import resolve_block_ops
from .index import Index


@dataclass
class SingularSpectrum:
    """Kept singular values organized by charge sector of the new bond."""

    charges: List[Charge]
    values: List[np.ndarray]

    def all_values(self) -> np.ndarray:
        """All kept singular values, unsorted across sectors."""
        if not self.values:
            return np.zeros(0)
        return np.concatenate(self.values)

    def entanglement_entropy(self) -> float:
        """Von Neumann entropy of the squared, normalized spectrum."""
        s = self.all_values()
        if s.size == 0:
            return 0.0
        p = s ** 2
        tot = p.sum()
        if tot <= 0:
            return 0.0
        p = p / tot
        p = p[p > 1e-300]
        return float(-(p * np.log(p)).sum())


@dataclass
class TruncationInfo:
    """Summary of an SVD truncation."""

    kept_dim: int
    discarded_weight: float        # relative sum of discarded squared values
    total_weight: float            # sum of all squared singular values
    spectrum: SingularSpectrum

    @property
    def truncation_error(self) -> float:
        """Relative discarded weight (the paper's truncation error)."""
        return self.discarded_weight


def _row_charge(t: BlockSparseTensor, key: BlockKey, row_axes: Sequence[int]) -> Charge:
    q = zero_charge(t.nsym)
    for ax in row_axes:
        ix = t.indices[ax]
        q = tuple(a + ix.flow * b for a, b in zip(q, ix.sector_charge(key[ax])))
    return q


def svd_group_shapes(t, row_axes: Sequence[int],
                     col_axes: Sequence[int] | None = None
                     ) -> List[Tuple[int, int]]:
    """``(rows, cols)`` of each row-charge group's assembled matrix.

    Groups come in order of first appearance among ``t.blocks``.  Only the
    structure of ``t`` is read, so this prices the block-wise SVD of a
    :class:`BlockSparseTensor` and of a data-free
    :class:`~repro.perf.shapesim.ShapeTensor` alike.
    """
    row_axes = [int(x) % t.ndim for x in row_axes]
    if col_axes is None:
        col_axes = [x for x in range(t.ndim) if x not in row_axes]
    groups: Dict[Charge, Tuple[dict, dict]] = {}
    for key in t.blocks:
        rows, cols = groups.setdefault(_row_charge(t, key, row_axes), ({}, {}))
        for dims, axes in ((rows, row_axes), (cols, col_axes)):
            dims[tuple(key[ax] for ax in axes)] = int(np.prod(
                [t.indices[ax].sector_dim(key[ax]) for ax in axes]))
    return [(sum(rows.values()), sum(cols.values()))
            for rows, cols in groups.values()]


def _assemble_groups(t: BlockSparseTensor, row_axes: Sequence[int],
                     col_axes: Sequence[int]):
    """Group blocks by row charge and assemble one dense matrix per group.

    Returns a list of group records ``(qrow, mat, row_keys, row_offsets,
    col_keys, col_offsets, row_dims, col_dims)``.
    """
    groups: Dict[Charge, List[BlockKey]] = {}
    for key in t.blocks:
        groups.setdefault(_row_charge(t, key, row_axes), []).append(key)

    records = []
    for qrow in sorted(groups):
        keys = groups[qrow]
        row_keys = sorted({tuple(k[ax] for ax in row_axes) for k in keys})
        col_keys = sorted({tuple(k[ax] for ax in col_axes) for k in keys})
        row_dims = {rk: int(np.prod([t.indices[ax].sector_dim(s)
                                     for ax, s in zip(row_axes, rk)]))
                    for rk in row_keys}
        col_dims = {ck: int(np.prod([t.indices[ax].sector_dim(s)
                                     for ax, s in zip(col_axes, ck)]))
                    for ck in col_keys}
        row_offsets, off = {}, 0
        for rk in row_keys:
            row_offsets[rk] = off
            off += row_dims[rk]
        nrows = off
        col_offsets, off = {}, 0
        for ck in col_keys:
            col_offsets[ck] = off
            off += col_dims[ck]
        ncols = off
        mat = np.zeros((nrows, ncols), dtype=t.dtype)
        for key in keys:
            rk = tuple(key[ax] for ax in row_axes)
            ck = tuple(key[ax] for ax in col_axes)
            blk = t.blocks[key]
            perm = tuple(row_axes) + tuple(col_axes)
            m = np.transpose(blk, perm).reshape(row_dims[rk], col_dims[ck])
            r0, c0 = row_offsets[rk], col_offsets[ck]
            mat[r0:r0 + row_dims[rk], c0:c0 + col_dims[ck]] = m
        records.append((qrow, mat, row_keys, row_offsets, row_dims,
                        col_keys, col_offsets, col_dims))
    return records


def svd(t: BlockSparseTensor, row_axes: Sequence[int],
        col_axes: Sequence[int] | None = None, *,
        max_dim: int | None = None, cutoff: float = 0.0,
        svd_min: float = 0.0, absorb: str | None = None,
        new_tag: str = "link",
        ops=None) -> Tuple[BlockSparseTensor, SingularSpectrum,
                           BlockSparseTensor, TruncationInfo]:
    """Truncated block-sparse SVD ``t = U · diag(S) · Vh``.

    Parameters
    ----------
    row_axes / col_axes:
        Axes of ``t`` assigned to the row (left/U) and column (right/Vh)
        groups.  ``col_axes`` defaults to the complement of ``row_axes``.
    max_dim:
        Maximum number of singular values to keep (the bond dimension cap
        ``m`` of DMRG); ``None`` keeps everything above the cutoffs.
    cutoff:
        Maximum allowed relative discarded weight (ITensor-style cutoff).
    svd_min:
        Absolute floor below which singular values are always discarded
        (the paper removes all singular values below ``1e-12``).
    absorb:
        ``"left"`` multiplies the singular values into U, ``"right"`` into Vh,
        ``None`` leaves them in the returned spectrum only.

    Returns ``(U, S, Vh, info)``.  U carries zero flux, Vh carries the flux of
    ``t``; the new bond index has outgoing flow on U and incoming flow on Vh.
    """
    row_axes = [int(a) % t.ndim for a in row_axes]
    if col_axes is None:
        col_axes = [a for a in range(t.ndim) if a not in row_axes]
    else:
        col_axes = [int(a) % t.ndim for a in col_axes]
    if sorted(row_axes + col_axes) != list(range(t.ndim)):
        raise ValueError("row_axes and col_axes must partition the tensor modes")
    if absorb not in (None, "left", "right"):
        raise ValueError(f"invalid absorb={absorb!r}")

    ops = resolve_block_ops(ops)
    out_dtype = t.dtype
    records = _assemble_groups(t, row_axes, col_axes)

    # independent per-charge-group factorizations, handed over as one list;
    # flop accounting stays in group order.
    facts = ops.svd_many([rec[1] for rec in records])
    factored = []
    all_sq = []
    for (qrow, mat, row_keys, row_offsets, row_dims,
         col_keys, col_offsets, col_dims), (u, s, vh) in zip(records, facts):
        _flops.add_flops(_flops.svd_flops(*mat.shape), "svd")
        factored.append((qrow, u, s, vh, row_keys, row_offsets, row_dims,
                         col_keys, col_offsets, col_dims))
        all_sq.append(s ** 2)

    if all_sq:
        flat = np.concatenate(all_sq)
    else:
        flat = np.zeros(0)
    total_weight = float(flat.sum())
    if not np.isfinite(total_weight):
        raise FloatingPointError(f"non-finite singular-value weight "
                                 f"{total_weight!r}: the squared values "
                                 "overflow or the factorization gave NaN")

    # Global truncation: sort all singular values, keep the largest until the
    # bond-dimension cap is hit, then drop any trailing weight below cutoff.
    order = np.argsort(flat)[::-1]
    keep_threshold = 0.0
    nkeep_global = flat.size
    if flat.size:
        sorted_sq = flat[order]
        keep = np.ones(flat.size, dtype=bool)
        if svd_min > 0.0:
            keep &= sorted_sq >= svd_min ** 2
        if cutoff > 0.0 and total_weight > 0.0:
            tail = np.cumsum(sorted_sq[::-1])[::-1]  # weight from i to end
            keep &= ~(tail <= cutoff * total_weight)
        if max_dim is not None:
            keep[max_dim:] = False
        nkeep_global = int(keep.sum())
        if nkeep_global == 0:
            nkeep_global = 1  # always keep at least one value
        keep_threshold = float(np.sqrt(sorted_sq[nkeep_global - 1]))

    # distribute the kept count over groups: keep values >= keep_threshold,
    # resolving ties by global rank.
    ranks = np.empty(flat.size, dtype=np.int64)
    ranks[order] = np.arange(flat.size)
    offset = 0
    kept_per_group: List[int] = []
    for _, _, s, _, *_rest in factored:
        grp_ranks = ranks[offset:offset + s.size]
        kept = int(np.sum(grp_ranks < nkeep_global))
        kept_per_group.append(kept)
        offset += s.size

    kept_sq = 0.0
    charges, values = [], []
    u_blocks: Dict[BlockKey, np.ndarray] = {}
    v_blocks: Dict[BlockKey, np.ndarray] = {}
    sector_id = 0
    for (qrow, u, s, vh, row_keys, row_offsets, row_dims,
         col_keys, col_offsets, col_dims), nk in zip(factored, kept_per_group):
        if nk == 0:
            continue
        su, ss, svh = u[:, :nk], s[:nk], vh[:nk, :]
        kept_sq += float((ss ** 2).sum())
        if absorb == "left":
            su = su * ss[np.newaxis, :]
        elif absorb == "right":
            svh = ss[:, np.newaxis] * svh
        charges.append(qrow)
        values.append(ss.copy())
        for rk in row_keys:
            r0 = row_offsets[rk]
            blk = su[r0:r0 + row_dims[rk], :]
            shape = tuple(t.indices[ax].sector_dim(sid)
                          for ax, sid in zip(row_axes, rk)) + (nk,)
            u_blocks[tuple(rk) + (sector_id,)] = \
                np.ascontiguousarray(blk.reshape(shape))
        for ck in col_keys:
            c0 = col_offsets[ck]
            blk = svh[:, c0:c0 + col_dims[ck]]
            shape = (nk,) + tuple(t.indices[ax].sector_dim(sid)
                                  for ax, sid in zip(col_axes, ck))
            v_blocks[(sector_id,) + tuple(ck)] = \
                np.ascontiguousarray(blk.reshape(shape))
        sector_id += 1

    if not charges:
        # degenerate case: tensor had no blocks; produce a trivial bond.
        # The emitted bond has dimension 1, so report kept_dim=1.
        charges = [zero_charge(t.nsym)]
        values = [np.zeros(1)]
        new_left = Index(charges, [1], flow=-1, tag=new_tag)
        new_right = Index(charges, [1], flow=1, tag=new_tag)
        u_idx = tuple(t.indices[a] for a in row_axes) + (new_left,)
        v_idx = (new_right,) + tuple(t.indices[a] for a in col_axes)
        U = BlockSparseTensor.zeros(u_idx, flux=zero_charge(t.nsym),
                                    dtype=out_dtype)
        Vh = BlockSparseTensor.zeros(v_idx, flux=t.flux, dtype=out_dtype)
        spec = SingularSpectrum(charges, values)
        info = TruncationInfo(1, 0.0, 0.0, spec)
        return U, spec, Vh, info

    dims = [len(v) for v in values]
    new_left = Index(charges, dims, flow=-1, tag=new_tag)
    new_right = Index(charges, dims, flow=1, tag=new_tag)
    u_idx = tuple(t.indices[a] for a in row_axes) + (new_left,)
    v_idx = (new_right,) + tuple(t.indices[a] for a in col_axes)
    U = BlockSparseTensor(u_idx, u_blocks, flux=zero_charge(t.nsym),
                          dtype=out_dtype, check=False)
    Vh = BlockSparseTensor(v_idx, v_blocks, flux=t.flux, dtype=out_dtype,
                           check=False)
    discarded = max(total_weight - kept_sq, 0.0)
    rel = discarded / total_weight if total_weight > 0 else 0.0
    spec = SingularSpectrum(charges, values)
    info = TruncationInfo(sum(dims), rel, total_weight, spec)
    return U, spec, Vh, info


def qr(t: BlockSparseTensor, row_axes: Sequence[int],
       col_axes: Sequence[int] | None = None, *,
       new_tag: str = "link",
       ops=None) -> Tuple[BlockSparseTensor, BlockSparseTensor]:
    """Block-sparse thin QR: ``t = Q · R`` with Q isometric over the row modes.

    Used for shifting the orthogonality center of an MPS without truncation
    (Section II-C: "orthogonalized by performing a QR factorization of each
    site").
    """
    row_axes = [int(a) % t.ndim for a in row_axes]
    if col_axes is None:
        col_axes = [a for a in range(t.ndim) if a not in row_axes]
    else:
        col_axes = [int(a) % t.ndim for a in col_axes]
    if sorted(row_axes + col_axes) != list(range(t.ndim)):
        raise ValueError("row_axes and col_axes must partition the tensor modes")

    ops = resolve_block_ops(ops)
    out_dtype = t.dtype
    records = _assemble_groups(t, row_axes, col_axes)
    facts = ops.qr_many([rec[1] for rec in records])
    charges, dims = [], []
    q_blocks: Dict[BlockKey, np.ndarray] = {}
    r_blocks: Dict[BlockKey, np.ndarray] = {}
    sector_id = 0
    for (qrow, mat, row_keys, row_offsets, row_dims,
         col_keys, col_offsets, col_dims), (q, r) in zip(records, facts):
        _flops.add_flops(_flops.qr_flops(*mat.shape), "svd")
        k = q.shape[1]
        charges.append(qrow)
        dims.append(k)
        for rk in row_keys:
            r0 = row_offsets[rk]
            blk = q[r0:r0 + row_dims[rk], :]
            shape = tuple(t.indices[ax].sector_dim(sid)
                          for ax, sid in zip(row_axes, rk)) + (k,)
            q_blocks[tuple(rk) + (sector_id,)] = \
                np.ascontiguousarray(blk.reshape(shape))
        for ck in col_keys:
            c0 = col_offsets[ck]
            blk = r[:, c0:c0 + col_dims[ck]]
            shape = (k,) + tuple(t.indices[ax].sector_dim(sid)
                                 for ax, sid in zip(col_axes, ck))
            r_blocks[(sector_id,) + tuple(ck)] = \
                np.ascontiguousarray(blk.reshape(shape))
        sector_id += 1

    if not charges:
        charges = [zero_charge(t.nsym)]
        dims = [1]
    new_left = Index(charges, dims, flow=-1, tag=new_tag)
    new_right = Index(charges, dims, flow=1, tag=new_tag)
    q_idx = tuple(t.indices[a] for a in row_axes) + (new_left,)
    r_idx = (new_right,) + tuple(t.indices[a] for a in col_axes)
    Q = BlockSparseTensor(q_idx, q_blocks, flux=zero_charge(t.nsym),
                          dtype=out_dtype, check=False)
    R = BlockSparseTensor(r_idx, r_blocks, flux=t.flux, dtype=out_dtype,
                          check=False)
    return Q, R
