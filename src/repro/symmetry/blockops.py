"""Pluggable numerical kernels for dense blocks (the "block-ops" seam).

Every dense-array operation the engine performs on the blocks of a
:class:`~repro.symmetry.block_tensor.BlockSparseTensor` — GEMM, batched
GEMM, concat/stack of matricized views, SVD/QR/eigh factorizations, dtype
promotion — is routed through one :class:`BlockOps` instance.  The
simulated cost model (contraction plans, flop counters, layout-tracker
charges, modelled seconds) never looks at the arithmetic, so swapping the
ops implementation changes wall-clock behaviour and numerics only; plans
and modelled costs are bit-identical across implementations.

Four implementations register themselves here:

``numpy``
    The default.  Thin method-call indirection over exactly the numpy
    calls the engine has always made — byte-identical results.

``threaded``
    Runs independent fused/batch GEMM groups and per-charge-group
    SVD/QR factorizations concurrently on a thread pool.  numpy's BLAS
    and LAPACK calls release the GIL, so this is a real multi-core
    wall-clock win; every task owns a disjoint output slot and the
    accumulation order inside each task is fixed, so results are
    bit-identical to ``numpy``.

``process``
    :class:`~repro.symmetry.procops.ProcessOps` — the planned GEMM
    groups and factorizations execute on worker *processes* over
    ``multiprocessing.shared_memory`` panels, mirroring the SUMMA
    schedules the simulated mapper picks (disjoint output slices, fixed
    accumulation order, bit-identical to ``numpy``).

``mixed`` / :class:`MixedPrecisionOps`
    A wrapper around any of the above that computes in a reduced dtype
    (float32/complex64).  Used by the DMRG drivers for a float32
    Davidson warm-up phase followed by float64 polish sweeps
    (``DMRGConfig.warmup_dtype`` / ``warmup_sweeps``); kernels delegate
    to the wrapped base, so the warm-up composes with the threaded and
    process executors.

Later GPU ops (cupy/torch) plug in at this same seam: implement the
handful of methods below against device arrays, register a factory with
:func:`register_block_ops` (which also enrols the implementation in the
cross-implementation conformance suite), and pass the instance as
``block_ops=`` to any backend.

The environment variable ``REPRO_BLOCK_OPS`` selects the default
implementation process-wide (used by ``make test-threaded`` to run the
test suite against the threaded executor without touching call sites).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BlockOps",
    "NumpyOps",
    "ThreadedOps",
    "MixedPrecisionOps",
    "make_block_ops",
    "create_block_ops",
    "register_block_ops",
    "registered_block_ops",
    "resolve_block_ops",
    "default_block_ops",
    "shutdown_all",
    "BLOCK_OPS_ENV",
]

BLOCK_OPS_ENV = "REPRO_BLOCK_OPS"


class BlockOps:
    """Numpy reference implementation of the block-ops interface.

    Subclasses override the execution strategy (``run``, ``svd_many``,
    ``qr_many``) or the numeric environment (``result_type``,
    ``prepare``); the per-call kernels below stay the single source of
    truth for *which* numpy routine implements each operation.
    """

    name = "numpy"
    #: True when ``run`` may execute tasks concurrently.  Callers use this
    #: to decide whether splitting work into tasks is worth the overhead.
    parallel = False

    # -- dtype environment -------------------------------------------------

    def result_type(self, *dtypes) -> np.dtype:
        """Promotion rule for contraction outputs."""
        return np.result_type(*dtypes)

    def prepare(self, mat: np.ndarray) -> np.ndarray:
        """Hook applied to every matricized operand before GEMM.

        Identity here; :class:`MixedPrecisionOps` downcasts and the process
        executor pins the operand into a shared-memory scratch segment.
        """
        return mat

    def serial_reference(self) -> "BlockOps":
        """A serial twin computing in this implementation's dtype environment.

        The conformance suite compares every implementation against its
        serial reference bit-for-bit: plain kernels answer with the numpy
        baseline; wrappers that change the numeric environment (mixed
        precision) wrap the reference the same way.
        """
        return BlockOps()

    # -- GEMM kernels ------------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            return a @ b
        return np.matmul(a, b, out=out)

    def concat(self, mats: Sequence[np.ndarray], axis: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            return np.concatenate(mats, axis=axis)
        return np.concatenate(mats, axis=axis, out=out)

    def stack(self, mats: Sequence[np.ndarray],
              out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            return np.stack(mats)
        return np.stack(mats, out=out)

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

    # -- execution strategy ------------------------------------------------

    def run(self, tasks: Sequence[Callable[[], None]]) -> None:
        """Execute independent zero-arg tasks; each writes disjoint outputs."""
        for task in tasks:
            task()

    # -- introspection -----------------------------------------------------

    def describe(self) -> dict:
        """Metadata recorded in bench artifacts and run reports."""
        return {"name": self.name, "parallel": self.parallel}


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


class ThreadedOps(BlockOps):
    """Thread-pool executor over independent GEMM groups and factorizations.

    Each task computes a whole fused/batch group (or one charge-group
    factorization) and writes a disjoint output slot, so the result is
    bit-identical to serial execution; only the wall-clock order differs.
    The pool is created lazily and sized to the cores actually available
    to this process.
    """

    name = "threaded"
    parallel = True

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is None:
            try:
                max_workers = len(os.sched_getaffinity(0))
            except (AttributeError, OSError):
                max_workers = os.cpu_count() or 1
        self.max_workers = max(1, int(max_workers))
        self._pool: Optional[ThreadPoolExecutor] = None

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="blockops")
        return self._pool

    def run(self, tasks: Sequence[Callable[[], None]]) -> None:
        if len(tasks) <= 1 or self.max_workers == 1:
            for task in tasks:
                task()
            return
        futures = [self._executor().submit(task) for task in tasks]
        for fut in futures:
            fut.result()

    def svd_many(self, mats: Sequence[np.ndarray]
                 ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        if len(mats) <= 1 or self.max_workers == 1:
            return [self.svd(m) for m in mats]
        return list(self._executor().map(self.svd, mats))

    def qr_many(self, mats: Sequence[np.ndarray]
                ) -> List[Tuple[np.ndarray, np.ndarray]]:
        if len(mats) <= 1 or self.max_workers == 1:
            return [self.qr(m) for m in mats]
        return list(self._executor().map(self.qr, mats))

    def describe(self) -> dict:
        d = super().describe()
        d["max_workers"] = self.max_workers
        return d


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
    Execution strategy (thread pool or serial) is delegated to ``base``,
    so mixed precision composes with the threaded executor.
    """

    parallel = False

    def __init__(self, base: Optional[BlockOps] = None,
                 compute_dtype=np.float32):
        self.base = base if base is not None else BlockOps()
        self.compute_dtype = np.dtype(compute_dtype)
        if self.compute_dtype not in (np.dtype(np.float32),
                                      np.dtype(np.float64)):
            raise ValueError(
                f"unsupported compute dtype {self.compute_dtype!r}")
        self._demote = _COMPUTE_DTYPES[self.compute_dtype]
        self.name = f"{self.base.name}+mixed[{self.compute_dtype.name}]"
        self.parallel = self.base.parallel

    def result_type(self, *dtypes) -> np.dtype:
        full = self.base.result_type(*dtypes)
        return self._demote.get(full, full)

    def prepare(self, mat: np.ndarray) -> np.ndarray:
        target = self._demote.get(mat.dtype)
        if target is not None:
            mat = mat.astype(target, copy=False)
        # chain the base placement hook (the process executor pins the
        # downcast operand into shared memory), so mixed precision composes
        # with every execution strategy
        return self.base.prepare(mat)

    def serial_reference(self) -> BlockOps:
        return MixedPrecisionOps(self.base.serial_reference(),
                                 self.compute_dtype)

    # every kernel executes through the base implementation, so a threaded
    # or process base parallelizes the reduced-precision arithmetic too
    def matmul(self, a: np.ndarray, b: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        return self.base.matmul(a, b, out=out)

    def concat(self, mats: Sequence[np.ndarray], axis: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        return self.base.concat(mats, axis, out=out)

    def stack(self, mats: Sequence[np.ndarray],
              out: Optional[np.ndarray] = None) -> np.ndarray:
        return self.base.stack(mats, out=out)

    def run(self, tasks: Sequence[Callable[[], None]]) -> None:
        self.base.run(tasks)

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


_SINGLETONS: dict = {}

#: name -> zero-arg factory; the conformance suite runs against every entry,
#: so a new implementation gets the full cross-implementation test battery
#: just by registering itself here
_FACTORIES: dict = {}


def register_block_ops(name: str, factory) -> None:
    """Register a named implementation (``factory`` is a zero-arg callable).

    Registration is how an implementation joins ``make_block_ops`` name
    resolution *and* the conformance suite
    (``tests/test_blockops_conformance.py`` parametrizes over
    :func:`registered_block_ops`).
    """
    _FACTORIES[name.strip().lower()] = factory


def registered_block_ops() -> tuple:
    """Names of every registered implementation, in registration order."""
    _ensure_builtin_registrations()
    return tuple(_FACTORIES)


def _process_factory() -> BlockOps:
    # imported lazily: the process executor pulls in multiprocessing and the
    # shared-memory arena, which nothing else on this path needs
    from .procops import ProcessOps
    return ProcessOps()


def _ensure_builtin_registrations() -> None:
    if "numpy" not in _FACTORIES:
        register_block_ops("numpy", BlockOps)
        register_block_ops("threaded", ThreadedOps)
        register_block_ops("process", _process_factory)
        register_block_ops("mixed", lambda: MixedPrecisionOps(BlockOps()))


def create_block_ops(name: str) -> BlockOps:
    """Instantiate a *fresh* (non-singleton) registered implementation."""
    _ensure_builtin_registrations()
    key = name.strip().lower()
    factory = _FACTORIES.get(key)
    if factory is None:
        raise ValueError(f"unknown block ops {name!r} "
                         f"(registered: {', '.join(sorted(_FACTORIES))})")
    return factory()


def make_block_ops(name: str) -> BlockOps:
    """Resolve a named ops implementation to its process-wide singleton.

    Singletons make the threaded executor share one thread pool — and the
    process executor one worker pool and shared-memory arena — across every
    backend in the process.
    """
    key = name.strip().lower()
    if key in _SINGLETONS:
        return _SINGLETONS[key]
    ops = create_block_ops(key)
    _SINGLETONS[key] = ops
    return ops


def shutdown_all() -> None:
    """Shut down every singleton that owns external resources.

    The test suite's session-scoped shared-memory guard calls this before
    asserting that no segments survived; implementations without a
    ``shutdown`` method are untouched.
    """
    for ops in list(_SINGLETONS.values()):
        shutdown = getattr(ops, "shutdown", None)
        if callable(shutdown):
            shutdown()


def default_block_ops() -> BlockOps:
    """The process default: ``$REPRO_BLOCK_OPS`` if set, else numpy."""
    return make_block_ops(os.environ.get(BLOCK_OPS_ENV, "numpy"))


def resolve_block_ops(spec) -> BlockOps:
    """Coerce ``None`` / name / instance into a :class:`BlockOps`."""
    if spec is None:
        return default_block_ops()
    if isinstance(spec, BlockOps):
        return spec
    if isinstance(spec, str):
        return make_block_ops(spec)
    raise TypeError(f"cannot resolve block ops from {spec!r}")
