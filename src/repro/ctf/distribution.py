"""Processor-grid factorization for dense tensor mappings.

Cyclops assigns every dense tensor a processor grid and distributes each mode
cyclically over one grid dimension.  :func:`factor_processor_grid` chooses
that grid; the SUMMA mapper (:mod:`repro.ctf.mapping`) uses it to lay out a
contraction's operands.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def factor_processor_grid(nprocs: int, shape: Sequence[int]) -> Tuple[int, ...]:
    """Factor ``nprocs`` into a grid matched to the tensor shape.

    Greedily assigns prime factors of ``nprocs`` to the currently
    least-subdivided (largest remaining extent) tensor mode, which is the
    heuristic CTF's mapper uses to keep local blocks as cubic as possible.
    """
    if nprocs < 1:
        raise ValueError("need at least one processor")
    ndim = len(shape)
    if ndim == 0:
        return ()
    grid = [1] * ndim
    remaining = list(shape)
    n = nprocs
    factor = 2
    factors: List[int] = []
    while n > 1 and factor * factor <= n:
        while n % factor == 0:
            factors.append(factor)
            n //= factor
        factor += 1
    if n > 1:
        factors.append(n)
    for f in sorted(factors, reverse=True):
        # place the factor on the mode with the largest per-processor extent
        mode = int(np.argmax([remaining[i] / grid[i] for i in range(ndim)]))
        grid[mode] *= f
    return tuple(grid)
