"""Pluggable numerical kernels for dense blocks (the "block-ops" seam).

Every dense-array operation the engine performs on the blocks of a
:class:`~repro.symmetry.block_tensor.BlockSparseTensor` — GEMM, batched
GEMM, the copies that write (permuted) blocks into GEMM panels and batch
stacks, SVD/QR/eigh factorizations, dtype promotion — is routed through one
:class:`BlockOps` instance.  The
simulated cost model (contraction plans, flop counters, layout-tracker
charges, modelled seconds) never looks at the arithmetic, so swapping the
ops implementation changes wall-clock behaviour and numerics only; plans
and modelled costs are bit-identical across implementations.

Two implementations exist:

:class:`BlockOps` (alias :data:`NumpyOps`, ``name == "numpy"``)
    The default.  Thin method-call indirection over exactly the numpy
    calls the engine has always made — byte-identical results.  Multi-core
    execution is numpy's threaded BLAS, the single-node analogue of the
    paper's parallelism *inside* each contraction.

:class:`MixedPrecisionOps`
    A wrapper around another instance that computes in a reduced dtype
    (float32/complex64).  Used by the DMRG drivers for a float32
    Davidson warm-up phase followed by float64 polish sweeps
    (``DMRGConfig.warmup_dtype`` / ``warmup_sweeps``); kernels delegate
    to the wrapped base, so the warm-up composes with whatever instance
    the backend holds.

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
    "MixedPrecisionOps",
    "resolve_block_ops",
]


class BlockOps:
    """Numpy reference implementation of the block-ops interface.

    Subclasses override the kernels (a device implementation) or the
    numeric environment (``result_type``, ``prepare``); the per-call
    kernels below stay the single source of truth for *which* numpy
    routine implements each operation.
    """

    name = "numpy"

    # -- dtype environment -------------------------------------------------

    def result_type(self, *dtypes) -> np.dtype:
        """Promotion rule for contraction outputs."""
        return np.result_type(*dtypes)

    def prepare(self, mat: np.ndarray) -> np.ndarray:
        """Hook applied to each operand a kernel reads without a copy (a
        block viewed as a matrix, a factorization input).

        Identity here; :class:`MixedPrecisionOps` downcasts.  Panels and
        stacks need no hook: they are allocated in ``result_type`` and
        the write into them casts.
        """
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
        return np.tensordot(self.prepare(a), self.prepare(b), axes=axes)

    # -- vector algebra ----------------------------------------------------

    def norm(self, mat: np.ndarray) -> float:
        return float(np.linalg.norm(mat))

    def axpy(self, alpha, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Return ``alpha * x + y`` (no aliasing requirements)."""
        return alpha * x + y

    # -- factorizations ----------------------------------------------------

    def svd(self, mat: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD with the shared robustness fallback.

        LAPACK's divide-and-conquer driver occasionally fails to converge
        on ill-conditioned blocks; fall back to the slower but sturdier
        eigen-decomposition of the Gram matrix in that case.  This is the
        single home for that knob — both the block-sparse truncation path
        and the ``ctf`` distributed wrappers route through here.
        """
        mat = self.prepare(mat)
        try:
            return np.linalg.svd(mat, full_matrices=False)
        except np.linalg.LinAlgError:
            return _gram_svd(mat)

    def qr(self, mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return np.linalg.qr(self.prepare(mat), mode="reduced")

    def eigh(self, mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.prepare(mat))

    def svd_many(self, mats: Sequence[np.ndarray]
                 ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Factorize independent blocks (one per charge group)."""
        return [self.svd(m) for m in mats]

    def qr_many(self, mats: Sequence[np.ndarray]
                ) -> List[Tuple[np.ndarray, np.ndarray]]:
        return [self.qr(m) for m in mats]

    # -- introspection -----------------------------------------------------

    def describe(self) -> dict:
        """Metadata naming the implementation (wrappers add their dtype)."""
        return {"name": self.name}


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


_COMPUTE_DTYPES = {
    np.dtype(np.float32): {
        np.dtype(np.float64): np.dtype(np.float32),
        np.dtype(np.complex128): np.dtype(np.complex64),
        np.dtype(np.complex64): np.dtype(np.complex64),
    },
    np.dtype(np.float64): {},
}


class MixedPrecisionOps(BlockOps):
    """Compute-in-reduced-precision wrapper around a base ops instance.

    ``result_type`` demotes float64/complex128 results to the compute
    dtype and ``prepare`` downcasts operands, so every GEMM and
    factorization issued during a warm-up phase runs in float32 (or
    complex64) while plans, charges, and modelled costs stay untouched.
    The kernels themselves are delegated to ``base``.
    """

    def __init__(self, base: Optional[BlockOps] = None,
                 compute_dtype=np.float32):
        self.base = resolve_block_ops(base)
        self.compute_dtype = np.dtype(compute_dtype)
        if self.compute_dtype not in (np.dtype(np.float32),
                                      np.dtype(np.float64)):
            raise ValueError(
                f"unsupported compute dtype {self.compute_dtype!r}")
        self._demote = _COMPUTE_DTYPES[self.compute_dtype]
        self.name = f"{self.base.name}+mixed[{self.compute_dtype.name}]"

    def result_type(self, *dtypes) -> np.dtype:
        full = self.base.result_type(*dtypes)
        return self._demote.get(full, full)

    def prepare(self, mat: np.ndarray) -> np.ndarray:
        target = self._demote.get(mat.dtype)
        if target is not None:
            mat = mat.astype(target, copy=False)
        # chain the base's placement hook (a device base moves the downcast
        # operand where its kernels want it)
        return self.base.prepare(mat)

    # every kernel executes through the base implementation
    def matmul(self, a: np.ndarray, b: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        return self.base.matmul(a, b, out=out)

    def concat(self, mats: Sequence[np.ndarray], axis: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        return self.base.concat(mats, axis, out=out)

    def stack(self, mats: Sequence[np.ndarray],
              out: Optional[np.ndarray] = None) -> np.ndarray:
        return self.base.stack(mats, out=out)

    def svd_many(self, mats: Sequence[np.ndarray]):
        return self.base.svd_many([self.prepare(m) for m in mats])

    def qr_many(self, mats: Sequence[np.ndarray]):
        return self.base.qr_many([self.prepare(m) for m in mats])

    def svd(self, mat: np.ndarray):
        return self.base.svd(self.prepare(mat))

    def qr(self, mat: np.ndarray):
        return self.base.qr(self.prepare(mat))

    def eigh(self, mat: np.ndarray):
        return self.base.eigh(self.prepare(mat))

    def describe(self) -> dict:
        d = self.base.describe()
        d["name"] = self.name
        d["compute_dtype"] = self.compute_dtype.name
        return d


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
