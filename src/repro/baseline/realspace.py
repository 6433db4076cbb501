"""Real-space block-parallel DMRG (Stoudenmire-White style), as a baseline.

The paper's Table I and Section III discuss the real-space parallel algorithm
of Stoudenmire & White (ref. [4]): the chain is cut into contiguous blocks,
one per node, and every node sweeps *its own block only* while the rest of the
chain is held fixed.  This buys trivially parallel optimizations, but — as the
paper points out — "each optimization is done in a way that is not consistent
with the tensors on other nodes, resulting in potential loss of accuracy and
monotonicity in optimization", and the bonds *between* blocks are never
optimized unless the boundaries move.

This module provides a single-process emulation of that algorithm so its
accuracy/monotonicity trade-off can be measured against the paper's approach
(the unmodified serial sweep order with every tensor distributed), see
``benchmarks/bench_ablation_realspace.py``.  Two simplifications keep the
emulation gauge-exact on the shared block-sparse machinery:

* block updates are applied one after another within an iteration
  (Gauss-Seidel order) instead of truly concurrently, so each block sees the
  blocks to its left already updated — the measured accuracy loss is therefore
  a *lower bound* on the loss of the fully concurrent algorithm;
* the inter-block bonds are frozen during a block sweep and are only improved
  when the block boundaries are shifted between iterations
  (``shift_boundaries=True``), which is also how the original algorithm
  recovers full-chain accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..backends.base import ContractionBackend, DirectBackend
from ..dmrg.config import DMRGConfig, Sweeps
from ..dmrg.sweep import dmrg
from ..mps.mpo import MPO
from ..mps.mps import MPS


@dataclass
class RealSpaceIterationRecord:
    """Measurements of one outer iteration (one round of block sweeps)."""

    iteration: int
    energy: float                 # <psi|H|psi> of the merged state
    worker_energies: List[float]  # local eigenvalues reported per block
    max_bond_dimension: int
    boundaries: List[int]


@dataclass
class RealSpaceResult:
    """Outcome of a real-space block-parallel DMRG run."""

    energy: float
    records: List[RealSpaceIterationRecord] = field(default_factory=list)

    @property
    def energies(self) -> List[float]:
        """Merged-state energy after every outer iteration."""
        return [r.energy for r in self.records]

    def is_monotonic(self, tol: float = 1e-10) -> bool:
        """Whether the merged energy decreased monotonically."""
        e = self.energies
        return all(e[i + 1] <= e[i] + tol for i in range(len(e) - 1))


def partition_sites(nsites: int, nworkers: int, offset: int = 0
                    ) -> List[tuple[int, int]]:
    """Split ``nsites`` sites into ``nworkers`` contiguous blocks.

    Each block is an inclusive site range ``(lo, hi)`` with at least two
    sites.  ``offset`` shifts the interior boundaries to the right (used to
    rotate blocks between iterations); edge blocks absorb the remainder.
    """
    if nworkers < 1:
        raise ValueError("need at least one worker")
    if nsites < 2 * nworkers:
        raise ValueError(
            f"{nworkers} workers need at least {2 * nworkers} sites, "
            f"got {nsites}")
    base = nsites // nworkers
    offset = offset % max(base - 1, 1) if nworkers > 1 else 0
    cuts = [0]
    for w in range(1, nworkers):
        cuts.append(min(w * base + offset, nsites - 2 * (nworkers - w)))
    cuts.append(nsites)
    ranges = []
    for w in range(nworkers):
        lo, hi = cuts[w], cuts[w + 1] - 1
        if hi - lo < 1:
            hi = lo + 1
        ranges.append((lo, min(hi, nsites - 1)))
    return ranges


class RealSpaceParallelDMRG:
    """Emulated real-space block-parallel DMRG driver."""

    def __init__(self, operator: MPO, psi0: MPS, nworkers: int, *,
                 backend: Optional[ContractionBackend] = None):
        if nworkers < 1:
            raise ValueError("need at least one worker")
        if len(operator) != len(psi0):
            raise ValueError("operator and state lengths differ")
        self.operator = operator
        self.psi0 = psi0
        self.nworkers = nworkers
        self.backend = backend if backend is not None else DirectBackend()

    def run(self, *, maxdim: int = 64, iterations: int = 8,
            cutoff: float = 1e-10, davidson_iterations: int = 3,
            shift_boundaries: bool = True,
            warmup_sweeps: int = 2) -> tuple[RealSpaceResult, MPS]:
        """Run the outer iteration loop and return the final state.

        ``warmup_sweeps`` cheap full-chain sweeps seed the block structure
        (the original algorithm also begins from an inexpensive global pass);
        afterwards every iteration restricts the two-site updates to the
        blocks of the current partition.
        """
        n = len(self.psi0)
        warm_schedule = Sweeps.ramp(min(maxdim, 16), max(warmup_sweeps, 1),
                                    cutoff=cutoff,
                                    davidson_iterations=davidson_iterations)
        _, psi = dmrg(self.operator, self.psi0,
                      DMRGConfig(sweeps=warm_schedule,
                                 record_site_details=False),
                      backend=self.backend)

        result = RealSpaceResult(energy=self.operator.expectation(psi))
        base = max(n // self.nworkers, 2)
        for it in range(iterations):
            offset = (it * (base // 2)) if shift_boundaries else 0
            ranges = partition_sites(n, self.nworkers, offset=offset)

            worker_energies: List[float] = []
            for (lo, hi) in ranges:
                config = DMRGConfig(
                    sweeps=Sweeps.fixed(maxdim, 1, cutoff=cutoff,
                                        davidson_iterations=davidson_iterations),
                    site_ranges=[(lo, hi)],
                    record_site_details=False)
                local_result, psi = dmrg(self.operator, psi, config,
                                         backend=self.backend)
                worker_energies.append(local_result.energy)

            energy = self.operator.expectation(psi)
            result.records.append(RealSpaceIterationRecord(
                it, energy, worker_energies, psi.max_bond_dimension(),
                [lo for lo, _ in ranges]))
            result.energy = energy

        return result, psi
