"""Baseline: the real-space block-parallel algorithm (Stoudenmire-White,
Table I)."""

from .realspace import (RealSpaceIterationRecord, RealSpaceParallelDMRG,
                        RealSpaceResult, partition_sites)

__all__ = [
    "RealSpaceIterationRecord", "RealSpaceParallelDMRG", "RealSpaceResult",
    "partition_sites",
]
