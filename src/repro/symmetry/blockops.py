"""Pluggable numerical kernels for dense blocks (the "block-ops" seam).

Every dense-array operation the engine performs on the blocks of a
:class:`~repro.symmetry.block_tensor.BlockSparseTensor` — GEMM, batched
GEMM, the copies that write (permuted) blocks into GEMM panels and batch
stacks, SVD/QR/eigh factorizations — is routed through one
:class:`BlockOps` instance.  The simulated cost model (contraction plans,
flop counters, layout-tracker charges, modelled seconds) never looks at the
arithmetic, so swapping the ops implementation changes wall-clock behaviour
and numerics only; plans and modelled costs are bit-identical across
implementations.

:class:`BlockOps` (alias :data:`NumpyOps`, ``name == "numpy"``) is the one
implementation: thin method-call indirection over exactly the numpy calls
the engine has always made, so results are byte-identical.  Multi-core
execution is numpy's threaded BLAS, the single-node analogue of the paper's
parallelism *inside* each contraction.  Everything runs in the operands' own
dtype (double precision throughout, as in the paper).

A device implementation (cupy/torch) plugs in at this same seam: subclass
:class:`BlockOps`, implement the handful of methods below against device
arrays and pass the *instance* as ``block_ops=`` to any backend.  There is
no name registry or process-wide selector: :func:`resolve_block_ops` maps
``None`` to the one module-level numpy instance and passes instances
through.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BlockOps",
    "NumpyOps",
    "resolve_block_ops",
]


class BlockOps:
    """Numpy reference implementation of the block-ops interface.

    Subclasses override the kernels (a device implementation); the
    per-call kernels below stay the single source of truth for *which*
    numpy routine implements each operation.
    """

    name = "numpy"

    # kept only because ``benchmarks/e2e/layers.py`` resolves it (its
    # ``symmetry.blockops.pack`` entry); nothing calls it, and it goes when
    # ROADMAP item 1 re-declares the benchmark's layers
    def prepare(self, mat: np.ndarray) -> np.ndarray:
        """Identity (no caller)."""
        return mat

    # -- GEMM kernels ------------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            return a @ b
        return np.matmul(a, b, out=out)

    def concat(self, mats: Sequence[np.ndarray], axis: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """Join blocks along ``axis`` of a 2-D panel.

        Without ``out`` the items are matrices, joined by
        ``np.concatenate``.  With ``out`` each item fills its slice of
        ``out`` across the other axis, and the write casts to ``out``'s
        dtype.  An item may be an N-D block (a transposed view) whose
        row-major reshape is its slice: it is written straight into the
        slice, so a permuted block is copied once.
        """
        try:
            return np.concatenate(mats, axis=axis, out=out)
        except ValueError:  # N-D blocks: no matrix fits its slice
            if out is None:
                raise
        across, lo = out.shape[1 - axis], 0
        for blk in mats:
            hi = lo + blk.size // across
            dest = out[:, lo:hi] if axis else out[lo:hi]
            # splitting each axis of a slice into the block's dims is
            # always a view, so the write lands in ``out``
            np.copyto(dest.reshape(blk.shape), blk)
            lo = hi
        return out

    def stack(self, mats: Sequence[np.ndarray],
              out: Optional[np.ndarray] = None) -> np.ndarray:
        """Stack equal-shape blocks into one batch for ``matmul``.

        Without ``out`` the items are matrices, stacked by ``np.stack``;
        with ``out`` item ``i`` (a matrix, or an N-D block whose row-major
        reshape is ``out[i]``) is written straight into ``out[i]``.

        Keep ``np.stack``'s layout: ``np.array(mats)`` is ~4x faster but
        lays a batch of Fortran-ordered views out differently (strides
        ``(320, 64, 8)`` instead of ``(320, 8, 40)`` for 5x8 items), which
        changes the batched GEMM's summation order and the last bits of
        DMRG energies.  The engine allocates ``out`` in that layout.
        """
        if out is None:
            return np.stack(mats)
        n, r, c = out.shape
        if out.flags.c_contiguous and all(m.shape == (r, c) for m in mats):
            # equal-shape matrices fill a row-major batch row by row
            np.concatenate(mats, out=out.reshape(n * r, c))
            return out
        for dest, blk in zip(out, mats):
            np.copyto(dest.reshape(blk.shape), blk)
        return out

    def tensordot(self, a: np.ndarray, b: np.ndarray,
                  axes: Tuple[Sequence[int], Sequence[int]]) -> np.ndarray:
        return np.tensordot(a, b, axes=axes)

    # -- factorizations ----------------------------------------------------

    def svd(self, mat: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD with the shared robustness fallback.

        LAPACK's divide-and-conquer driver occasionally fails to converge
        on ill-conditioned blocks; fall back to the slower but sturdier
        eigen-decomposition of the Gram matrix in that case.  This is the
        single home for that knob — both the block-sparse truncation path
        and the ``ctf`` distributed wrappers route through here.  A block
        holding inf or NaN raises ``FloatingPointError`` before LAPACK sees
        it: LAPACK returns NaN for some such blocks, raises for others and
        never returns for a 3x3 block with one inf entry.
        """
        if not np.isfinite(mat).all():
            raise FloatingPointError(
                f"non-finite {mat.shape[0]}x{mat.shape[1]} block given to svd")
        try:
            return np.linalg.svd(mat, full_matrices=False)
        except np.linalg.LinAlgError:
            return _gram_svd(mat)

    def qr(self, mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return np.linalg.qr(mat, mode="reduced")

    def eigh(self, mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(mat)

    # kept only because ``benchmarks/e2e/layers.py`` resolves it (its
    # ``symmetry.blockops.factorize`` entry); it folds into :meth:`svd`
    # when ROADMAP item 1 re-declares the benchmark's layers
    def svd_many(self, mats: Sequence[np.ndarray]
                 ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Factorize independent blocks (one per charge group)."""
        return [self.svd(m) for m in mats]

    # kept only because ``benchmarks/e2e/layers.py`` resolves it (its
    # ``symmetry.blockops.factorize`` entry); it folds into :meth:`qr`
    # when ROADMAP item 1 re-declares the benchmark's layers
    def qr_many(self, mats: Sequence[np.ndarray]
                ) -> List[Tuple[np.ndarray, np.ndarray]]:
        return [self.qr(m) for m in mats]


#: Alias making the default implementation's role explicit at call sites.
NumpyOps = BlockOps


def _gram_svd(mat: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD via eigh of the Gram matrix (fallback for LAPACK failures)."""
    m, n = mat.shape
    if m >= n:
        w, v = np.linalg.eigh(mat.conj().T @ mat)
        w = np.clip(w[::-1], 0.0, None)
        v = v[:, ::-1]
        s = np.sqrt(w)
        safe = np.where(s > 0, s, 1.0)
        u = (mat @ v) / safe
        return u, s, v.conj().T
    u, s, vh = _gram_svd(mat.conj().T)
    return vh.conj().T, s, u.conj().T


#: the one default instance (stateless, so sharing it is free)
_NUMPY_OPS = BlockOps()


def resolve_block_ops(spec: Optional[BlockOps]) -> BlockOps:
    """``None`` → the module-level numpy instance; an instance → itself."""
    if spec is None:
        return _NUMPY_OPS
    if isinstance(spec, BlockOps):
        return spec
    raise TypeError(f"cannot resolve block ops from {spec!r}: pass a "
                    "BlockOps instance (or None for numpy)")
