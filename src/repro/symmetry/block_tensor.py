"""Block-sparse tensors with abelian quantum-number symmetry.

This module implements the "tensor object composed of a list of quantum number
blocks" of the paper (Section IV-A, Fig. 3a) — the in-memory representation
shared by all three contraction algorithms.  A tensor is a dictionary mapping a
tuple of sector ids (one per mode) to a dense NumPy block; a block may only be
present when its charges satisfy the conservation law

    sum_i  flow_i * charge_i(sector_i)  ==  flux .

Contraction of two such tensors follows Algorithm 2 of the paper: every pair of
blocks whose charges match along the contracted modes is contracted with a
dense ``tensordot`` and accumulated into the output block addressed by the
remaining labels.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from ..perf import flops as _flops
from .charges import Charge, add_charges, zero_charge
from .index import Index

BlockKey = Tuple[int, ...]


def _key_charge(indices: Sequence[Index], key: BlockKey) -> Charge:
    """Total charge ``sum_i flow_i * charge_i(sector_i)`` of a block key."""
    total = zero_charge(indices[0].nsym)
    for ix, s in zip(indices, key):
        total = tuple(a + ix.flow * b
                      for a, b in zip(total, ix.sector_charge(s)))
    return total


def allowed_keys(indices: Sequence[Index], flux: Charge) -> Iterable[BlockKey]:
    """Every sector combination of ``indices`` whose charge equals ``flux``.

    Shared by :class:`BlockSparseTensor` and the data-free
    :class:`~repro.perf.shapesim.ShapeTensor`, so both enumerate the same
    blocks in the same order.
    """
    for key in itertools.product(*[range(ix.nsectors) for ix in indices]):
        if _key_charge(indices, key) == flux:
            yield key


def _negated(blk: np.ndarray, dtype) -> np.ndarray:
    """``-blk`` in ``dtype``, negated in the block's own dtype (as
    ``blk * -1.0`` was): a real block cast to complex keeps a +0.0
    imaginary part."""
    return np.negative(blk, out=np.empty_like(blk, dtype=dtype))


class BlockSparseTensor:
    """A tensor stored as a collection of symmetry-allowed dense blocks.

    Parameters
    ----------
    indices:
        One :class:`Index` per tensor mode.
    blocks:
        Mapping from sector-id tuples to dense blocks.  Shapes must match the
        sector dimensions of the corresponding indices.
    flux:
        Total charge of the tensor.  Defaults to the zero charge.
    """

    __slots__ = ("indices", "blocks", "flux", "dtype")

    def __init__(self, indices: Sequence[Index],
                 blocks: Dict[BlockKey, np.ndarray] | None = None,
                 flux: Charge | None = None,
                 dtype=np.float64, check: bool = True):
        self.indices: Tuple[Index, ...] = tuple(indices)
        if not self.indices:
            raise ValueError("BlockSparseTensor needs at least one index")
        nsym = self.indices[0].nsym
        for ix in self.indices:
            if ix.nsym != nsym:
                raise ValueError("all indices must share the same symmetry rank")
        self.flux: Charge = tuple(flux) if flux is not None else zero_charge(nsym)
        if len(self.flux) != nsym:
            raise ValueError(f"flux rank {len(self.flux)} != symmetry rank {nsym}")
        self.blocks: Dict[BlockKey, np.ndarray] = dict(blocks or {})
        self.dtype = np.dtype(dtype)
        if check:
            self._check_blocks()

    # ------------------------------------------------------------------ #
    # validation and structure
    # ------------------------------------------------------------------ #
    def key_allowed(self, key: BlockKey) -> bool:
        """True when the block key satisfies charge conservation."""
        return _key_charge(self.indices, key) == self.flux

    def block_shape(self, key: BlockKey) -> Tuple[int, ...]:
        """Dense shape of the block addressed by ``key``."""
        return tuple(ix.sector_dim(s) for ix, s in zip(self.indices, key))

    def _check_blocks(self) -> None:
        for key, blk in self.blocks.items():
            if len(key) != self.ndim:
                raise ValueError(f"block key {key} has wrong length")
            expected = self.block_shape(key)
            if tuple(blk.shape) != expected:
                raise ValueError(
                    f"block {key} has shape {blk.shape}, expected {expected}")
            if not self.key_allowed(key):
                raise ValueError(
                    f"block {key} violates charge conservation "
                    f"(charge {_key_charge(self.indices, key)} != flux "
                    f"{self.flux})")

    def allowed_keys(self) -> Iterable[BlockKey]:
        """Iterate over every sector combination allowed by conservation."""
        return allowed_keys(self.indices, self.flux)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def ndim(self) -> int:
        """Number of tensor modes."""
        return len(self.indices)

    @property
    def nsym(self) -> int:
        """Number of conserved U(1) charges."""
        return self.indices[0].nsym

    @property
    def shape(self) -> Tuple[int, ...]:
        """Dense shape (total dimension of every mode)."""
        return tuple(ix.dim for ix in self.indices)

    @property
    def num_blocks(self) -> int:
        """Number of stored blocks."""
        return len(self.blocks)

    @property
    def nnz(self) -> int:
        """Number of stored elements (sum of block sizes)."""
        return int(sum(b.size for b in self.blocks.values()))

    @property
    def dense_size(self) -> int:
        """Number of elements of the equivalent dense tensor."""
        size = 1
        for ix in self.indices:
            size *= ix.dim
        return size

    @property
    def fill_fraction(self) -> float:
        """Stored fraction of the dense tensor ("Sparsity" axis of Fig. 2b)."""
        ds = self.dense_size
        return self.nnz / ds if ds else 0.0

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def zeros(cls, indices: Sequence[Index], flux: Charge | None = None,
              dtype=np.float64, fill_allowed: bool = False) -> "BlockSparseTensor":
        """An all-zero tensor; optionally materialize every allowed block."""
        t = cls(indices, {}, flux=flux, dtype=dtype, check=False)
        if fill_allowed:
            for key in t.allowed_keys():
                t.blocks[key] = np.zeros(t.block_shape(key), dtype=dtype)
        return t

    @classmethod
    def random(cls, indices: Sequence[Index], flux: Charge | None = None,
               rng: np.random.Generator | None = None,
               dtype=np.float64) -> "BlockSparseTensor":
        """A tensor with every allowed block filled with standard normals."""
        rng = rng if rng is not None else np.random.default_rng(0)
        t = cls(indices, {}, flux=flux, dtype=dtype, check=False)
        for key in t.allowed_keys():
            shape = t.block_shape(key)
            data = rng.standard_normal(shape)
            if np.dtype(dtype).kind == "c":
                data = data + 1j * rng.standard_normal(shape)
            t.blocks[key] = data.astype(dtype)
        return t

    @classmethod
    def from_dense(cls, array: np.ndarray, indices: Sequence[Index],
                   flux: Charge | None = None, tol: float = 0.0,
                   require_symmetric: bool = True) -> "BlockSparseTensor":
        """Slice a dense array into its symmetry-allowed blocks.

        When ``require_symmetric`` is set, any weight living outside allowed
        blocks larger than ``max(tol, 1e-12 * |array|)`` raises ``ValueError``.
        """
        t = cls(indices, {}, flux=flux, dtype=array.dtype, check=False)
        if array.shape != t.shape:
            raise ValueError(f"array shape {array.shape} != index shape {t.shape}")
        remainder = array.copy() if require_symmetric else None
        for key in t.allowed_keys():
            slices = tuple(ix.sector_slice(s) for ix, s in zip(t.indices, key))
            blk = np.ascontiguousarray(array[slices])
            if float(np.linalg.norm(blk)) > tol:
                t.blocks[key] = blk
            if remainder is not None:
                remainder[slices] = 0
        if remainder is not None:
            leak = float(np.linalg.norm(remainder))
            total = float(np.linalg.norm(array))
            if leak > max(tol, 1e-12 * max(total, 1.0)):
                raise ValueError(
                    f"dense array has weight {leak:.3e} outside allowed blocks")
        return t

    def to_dense(self) -> np.ndarray:
        """Expand to the equivalent dense array (zeros outside blocks)."""
        out = np.zeros(self.shape, dtype=self.dtype)
        for key, blk in self.blocks.items():
            slices = tuple(ix.sector_slice(s) for ix, s in zip(self.indices, key))
            out[slices] = blk
        return out

    def copy(self) -> "BlockSparseTensor":
        """Deep copy."""
        return BlockSparseTensor(self.indices,
                                 {k: v.copy() for k, v in self.blocks.items()},
                                 flux=self.flux, dtype=self.dtype, check=False)

    # ------------------------------------------------------------------ #
    # elementwise algebra
    # ------------------------------------------------------------------ #
    def _compatible(self, other: "BlockSparseTensor") -> None:
        if self.ndim != other.ndim:
            raise ValueError("tensor orders differ")
        for a, b in zip(self.indices, other.indices):
            if not (a.same_space(b) and a.flow == b.flow):
                raise ValueError("tensor indices differ")
        if self.flux != other.flux:
            raise ValueError(f"tensor fluxes differ: {self.flux} vs {other.flux}")

    def _combine(self, other: "BlockSparseTensor", op,
                 lone) -> "BlockSparseTensor":
        """``op`` of two tensors block by block, one allocation per block.

        Blocks of ``self`` come out row-major, as copies of them always
        did; a block stored only in ``other`` becomes ``lone(block,
        dtype)``.
        """
        self._compatible(other)
        dtype = np.result_type(self.dtype, other.dtype)
        theirs = other.blocks
        blocks = {key: (op(blk, theirs[key], dtype=dtype, order="C")
                        if key in theirs else blk.astype(dtype, order="C"))
                  for key, blk in self.blocks.items()}
        for key, blk in theirs.items():
            if key not in blocks:
                blocks[key] = lone(blk, dtype)
        return BlockSparseTensor(self.indices, blocks, flux=self.flux,
                                 dtype=dtype, check=False)

    def __add__(self, other: "BlockSparseTensor") -> "BlockSparseTensor":
        return self._combine(other, np.add, np.ndarray.astype)

    def __sub__(self, other: "BlockSparseTensor") -> "BlockSparseTensor":
        return self._combine(other, np.subtract, _negated)

    def __mul__(self, scalar) -> "BlockSparseTensor":
        blocks = {k: v * scalar for k, v in self.blocks.items()}
        if blocks:
            # let NumPy's promotion decide, then keep attribute and blocks in
            # agreement (result_type on the stored dtype alone can disagree
            # with value-based scalar promotion, e.g. complex64 * 2.0)
            dtype = np.result_type(*(b.dtype for b in blocks.values()))
            for key, blk in blocks.items():
                if blk.dtype != dtype:
                    blocks[key] = blk.astype(dtype)
        else:
            # same promotion as the non-empty branch, so the result dtype
            # does not depend on whether blocks happen to be stored
            dtype = (np.zeros(0, dtype=self.dtype) * scalar).dtype
        return BlockSparseTensor(self.indices, blocks, flux=self.flux,
                                 dtype=dtype, check=False)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "BlockSparseTensor":
        return self * (1.0 / scalar)

    def __neg__(self) -> "BlockSparseTensor":
        return self * (-1.0)

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.sqrt(sum(float(np.vdot(b, b).real)
                                 for b in self.blocks.values())))

    def inner(self, other: "BlockSparseTensor") -> complex:
        """Inner product ``<self, other>`` (self is conjugated)."""
        self._compatible(other)
        total = 0.0 + 0.0j
        for key, blk in self.blocks.items():
            ob = other.blocks.get(key)
            if ob is not None:
                total += np.vdot(blk, ob)
        if self.dtype.kind != "c" and other.dtype.kind != "c":
            return float(total.real)
        return complex(total)

    # ------------------------------------------------------------------ #
    # structural transforms
    # ------------------------------------------------------------------ #
    def conj(self) -> "BlockSparseTensor":
        """Complex conjugate; flips every flow and negates the flux."""
        indices = tuple(ix.dual() for ix in self.indices)
        blocks = {k: np.conj(v) for k, v in self.blocks.items()}
        flux = tuple(-x for x in self.flux)
        return BlockSparseTensor(indices, blocks, flux=flux, dtype=self.dtype,
                                 check=False)

    def transpose(self, perm: Sequence[int]) -> "BlockSparseTensor":
        """Permute tensor modes."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.ndim)):
            raise ValueError(f"invalid permutation {perm}")
        indices = tuple(self.indices[p] for p in perm)
        blocks = {tuple(key[p] for p in perm): np.ascontiguousarray(np.transpose(blk, perm))
                  for key, blk in self.blocks.items()}
        return BlockSparseTensor(indices, blocks, flux=self.flux,
                                 dtype=self.dtype, check=False)

    # ------------------------------------------------------------------ #
    # contraction (Algorithm 2 of the paper)
    # ------------------------------------------------------------------ #
    def contract(self, other: "BlockSparseTensor",
                 axes: tuple[Sequence[int], Sequence[int]],
                 count_flops: bool = True,
                 ops=None) -> "BlockSparseTensor":
        """Contract ``self`` with ``other`` along the given axes.

        ``axes = (axes_self, axes_other)`` in ``tensordot`` convention.  The
        contracted index pairs must live in the same charge space and carry
        opposite flows.  Implements Algorithm 2: blocks are paired by the
        quantum-number labels of the contracted modes and accumulated into the
        output block addressed by the remaining labels.
        """
        axes_a = tuple(int(a) % self.ndim for a in axes[0])
        axes_b = tuple(int(b) % other.ndim for b in axes[1])
        if len(axes_a) != len(axes_b):
            raise ValueError("axes lists must have equal length")
        for ia, ib in zip(axes_a, axes_b):
            if not self.indices[ia].can_contract_with(other.indices[ib]):
                raise ValueError(
                    f"index {ia} of A cannot contract with index {ib} of B: "
                    f"{self.indices[ia]!r} vs {other.indices[ib]!r}")
        keep_a = [i for i in range(self.ndim) if i not in axes_a]
        keep_b = [i for i in range(other.ndim) if i not in axes_b]
        out_indices = tuple(self.indices[i] for i in keep_a) + \
            tuple(other.indices[i] for i in keep_b)
        out_flux = add_charges(self.flux, other.flux)
        from .blockops import resolve_block_ops
        ops = resolve_block_ops(ops)
        out_dtype = np.result_type(self.dtype, other.dtype)

        # group B blocks by the sector ids on the contracted modes
        b_by_contr: Dict[BlockKey, list[tuple[BlockKey, np.ndarray]]] = {}
        for keyB, blkB in other.blocks.items():
            kc = tuple(keyB[ax] for ax in axes_b)
            b_by_contr.setdefault(kc, []).append((keyB, blkB))

        out_blocks: Dict[BlockKey, np.ndarray] = {}
        nflops = 0.0
        for keyA, blkA in self.blocks.items():
            kc = tuple(keyA[ax] for ax in axes_a)
            partners = b_by_contr.get(kc)
            if not partners:
                continue
            keyA_keep = tuple(keyA[i] for i in keep_a)
            for keyB, blkB in partners:
                keyC = keyA_keep + tuple(keyB[i] for i in keep_b)
                res = ops.tensordot(blkA, blkB, axes=(axes_a, axes_b))
                if count_flops:
                    nflops += _flops.contraction_flops(
                        blkA.shape, blkB.shape, axes_a, axes_b)
                if keyC in out_blocks:
                    out_blocks[keyC] += res
                else:
                    out_blocks[keyC] = res
        if count_flops and nflops:
            _flops.add_flops(nflops, "gemm")
        if not out_indices:
            # full contraction to a scalar: represent as 0-d is not supported;
            # return a scalar of the result dtype directly (even when no
            # block pairs matched).
            total = out_dtype.type(0)
            for blk in out_blocks.values():
                total = total + blk
            return total  # type: ignore[return-value]
        return BlockSparseTensor(out_indices, out_blocks, flux=out_flux,
                                 dtype=out_dtype, check=False)

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BlockSparseTensor(shape={self.shape}, blocks={self.num_blocks}, "
                f"nnz={self.nnz}, flux={self.flux})")
