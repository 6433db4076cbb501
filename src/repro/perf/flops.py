"""Global floating-point operation accounting.

The paper measures flops with Cyclops' built-in counters and uses that single
measurement as the basis for every performance-rate (GFlops/s) number reported
for ITensor, the list algorithm and the sparse algorithms alike.  We mirror
that: every contraction and factorization in this package reports the flops it
performs to a process-global :class:`FlopCounter`, and the benchmark harness
reads performance rates out of it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class FlopCounter:
    """Accumulates floating point operations by category.

    Categories mirror the breakdown used in Fig. 7 of the paper: ``gemm`` for
    local matrix-matrix multiplication work, ``svd`` for factorization work and
    ``other`` for everything else (axpy-like updates, Gram matrices, ...).
    Counters are per process and unlocked: nothing in the package counts
    flops from more than one thread.
    """

    gemm: float = 0.0
    svd: float = 0.0
    other: float = 0.0

    def add(self, n: float, category: str = "gemm") -> None:
        """Record ``n`` floating point operations under ``category``."""
        if n < 0:
            raise ValueError(f"flop count must be non-negative, got {n}")
        if category == "gemm":
            self.gemm += n
        elif category == "svd":
            self.svd += n
        else:
            self.other += n

    @property
    def total(self) -> float:
        """Total flops recorded across all categories."""
        return self.gemm + self.svd + self.other

    def snapshot(self) -> dict[str, float]:
        """Return a plain-dict copy of the current counts."""
        return {"gemm": self.gemm, "svd": self.svd, "other": self.other,
                "total": self.gemm + self.svd + self.other}


_GLOBAL = FlopCounter()


def global_counter() -> FlopCounter:
    """Return the process-global flop counter."""
    return _GLOBAL


def add_flops(n: float, category: str = "gemm") -> None:
    """Record flops on the process-global counter."""
    _GLOBAL.add(n, category)


def total_flops() -> float:
    """Total flops recorded on the process-global counter."""
    return _GLOBAL.total


@contextmanager
def count_flops():
    """Context manager yielding a counter of flops performed inside the block.

    The global counter keeps accumulating; the yielded counter reports the
    delta observed between entry and exit of the ``with`` block.

    Example
    -------
    >>> with count_flops() as c:
    ...     pass  # run contractions
    >>> c.total  # doctest: +SKIP
    """
    start = _GLOBAL.snapshot()
    delta = FlopCounter()
    try:
        yield delta
    finally:
        end = _GLOBAL.snapshot()
        delta.gemm = end["gemm"] - start["gemm"]
        delta.svd = end["svd"] - start["svd"]
        delta.other = end["other"] - start["other"]


def contraction_flops(shape_a, shape_b, axes_a, axes_b) -> float:
    """Classical flop count of contracting two dense tensors.

    The cost of a pairwise contraction executed as a matrix multiplication is
    ``2 * prod(free dims of A) * prod(contracted dims) * prod(free dims of B)``
    (one multiply and one add per inner-product element).
    """
    ca = 1
    for ax, d in enumerate(shape_a):
        if ax not in axes_a:
            ca *= d
    k = 1
    for ax in axes_a:
        k *= shape_a[ax]
    cb = 1
    for ax, d in enumerate(shape_b):
        if ax not in axes_b:
            cb *= d
    return 2.0 * ca * k * cb


def dense_contraction_flops(a, b, axes_a) -> float:
    """Flops of contracting the dense embeddings of two block tensors.

    With the blocks embedded at their offsets a dense kernel also multiplies
    the zero background, so it performs the full (unblocked) count.  ``a``
    and ``b`` need only ``indices`` and ``dense_size``, and ``axes_a`` must be
    non-negative; the sparse-dense backend and the shape-level simulation
    both price their dense contractions with it.
    """
    k = math.prod(a.indices[ax].dim for ax in axes_a)
    return 2.0 * (a.dense_size // max(k, 1)) * k * (b.dense_size // max(k, 1))


def svd_flops(m: int, n: int) -> float:
    """Approximate flop count of a dense SVD of an ``m x n`` matrix.

    We use the standard Golub-Van Loan estimate for a thin SVD,
    ``~ 14 * m * n * min(m, n)`` which is the constant ScaLAPACK's ``pdgesvd``
    documentation quotes for computing both singular vector sets.
    """
    return 14.0 * m * n * min(m, n)


def qr_flops(m: int, n: int) -> float:
    """Approximate flop count of a dense QR of an ``m x n`` matrix."""
    k = min(m, n)
    return 2.0 * m * n * k - 2.0 * k * k * (m + n) / 2.0 + 2.0 * k ** 3 / 3.0
