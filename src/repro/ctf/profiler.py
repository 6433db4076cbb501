"""Category profiler mirroring the paper's Fig. 7 time breakdown.

The categories are exactly those of the paper's breakdown plot:

* ``gemm``           — local matrix-matrix multiplication (GEMM / MKL calls)
* ``communication``  — MPI communication excluding SVD-internal communication
* ``transposition``  — "CTF transposition": tensor mapping, transpose
  operations and other small serial overheads
* ``svd``            — distributed SVD (ScaLAPACK ``pdgesvd``) including its
  internal communication
* ``imbalance``      — load imbalance (time spent in barriers)
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict

CATEGORIES = ("gemm", "communication", "transposition", "svd", "imbalance")

#: keys of :meth:`Profiler.as_dict` that are not time categories; a category
#: must never shadow them
_RESERVED = ("total", "comm_words", "supersteps", "flops")


@dataclass
class Profiler:
    """Accumulates modelled seconds per category.

    The canonical categories are the paper's Fig. 7 set (:data:`CATEGORIES`);
    custom labels admitted with ``allow_custom=True`` (or merged in from
    another profiler) are carried alongside them, and every reporting
    method — :meth:`total_seconds`, :meth:`breakdown`, :meth:`as_dict` —
    accounts for *all* recorded categories, so percentages always sum to 100.
    """

    seconds: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    counts: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    comm_words: float = 0.0
    supersteps: float = 0.0
    flops: float = 0.0

    def add(self, category: str, seconds: float, *, count: int = 1,
            allow_custom: bool = False) -> None:
        """Charge ``seconds`` of time to ``category``.

        Modelled charges must use the canonical Fig. 7 :data:`CATEGORIES`
        (anything else raises, catching typos); ``allow_custom=True`` admits
        a custom label, which :class:`~repro.ctf.world.SimWorld` uses for the
        Davidson vector algebra (``"davidson"``).
        """
        if category in _RESERVED or not category:
            raise ValueError(f"category {category!r} is reserved")
        if not allow_custom and category not in CATEGORIES:
            raise ValueError(f"unknown category {category!r}; "
                             f"expected one of {CATEGORIES}")
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.seconds[category] += seconds
        self.counts[category] += count

    def categories(self) -> tuple:
        """All categories with recorded time: Fig. 7 set plus custom labels."""
        extra = sorted(k for k in self.seconds if k not in CATEGORIES)
        return CATEGORIES + tuple(extra)

    def add_communication(self, words: float, supersteps: float,
                          seconds: float) -> None:
        """Charge a communication phase (volume, synchronizations, time)."""
        self.comm_words += words
        self.supersteps += supersteps
        self.add("communication", seconds)

    def add_flops(self, flops: float) -> None:
        """Record executed flops (for performance-rate computation)."""
        self.flops += flops

    def total_seconds(self) -> float:
        """Total modelled time."""
        return float(sum(self.seconds.values()))

    def breakdown(self) -> Dict[str, float]:
        """Percentage of time per category (the paper's Fig. 7 quantity).

        Covers every recorded category — custom labels included — so the
        shares always sum to 100 (they used to silently drop non-canonical
        categories that :meth:`total_seconds` counted).
        """
        cats = self.categories()
        total = self.total_seconds()
        if total <= 0:
            return {c: 0.0 for c in cats}
        return {c: 100.0 * self.seconds.get(c, 0.0) / total for c in cats}

    def gflops_rate(self) -> float:
        """Aggregate performance rate in GFlop/s over the modelled time."""
        total = self.total_seconds()
        return self.flops / total / 1e9 if total > 0 else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.seconds.clear()
        self.counts.clear()
        self.comm_words = 0.0
        self.supersteps = 0.0
        self.flops = 0.0

    def merge(self, other: "Profiler") -> None:
        """Accumulate another profiler's totals into this one."""
        for cat, sec in other.seconds.items():
            self.seconds[cat] += sec
        for cat, cnt in other.counts.items():
            self.counts[cat] += cnt
        self.comm_words += other.comm_words
        self.supersteps += other.supersteps
        self.flops += other.flops

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot (seconds per recorded category plus totals)."""
        out = {c: self.seconds.get(c, 0.0) for c in self.categories()}
        out["total"] = self.total_seconds()
        out["comm_words"] = self.comm_words
        out["supersteps"] = self.supersteps
        out["flops"] = self.flops
        return out
