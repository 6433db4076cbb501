"""Contraction mapping: choosing how a distributed contraction is executed.

Cyclops maps every tensor contraction onto a processor grid and selects a
matrix-multiplication algorithm for it — 2D SUMMA when memory is tight,
communication-avoiding 2.5D/3D variants when extra memory is available for
replication.  Table II of the paper encodes exactly this choice: the
block-wise contractions of the ``list`` algorithm are assumed to run with the
minimal-communication (3D, ``O(M_D / p^{2/3})`` words) mapping, while the
single whole-tensor sparse contractions use a 2D sparse SUMMA
(``O(M_D / p^{1/2})`` words).

This module makes the decision explicit and testable: given the GEMM
dimensions of a (matricized) contraction, the available memory per rank, and a
:class:`~repro.ctf.collectives.CollectiveModel`, it estimates the
communication volume, synchronization count and time of each candidate
algorithm and picks the cheapest one that fits in memory — the same
memory-dependent behaviour the paper attributes to Cyclops ("the algorithms
used by Cyclops ... have a cost that depends on available memory").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .collectives import CollectiveModel


# --------------------------------------------------------------------------- #
# problem description
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GemmShape:
    """Dimensions of a matricized contraction ``C[m, n] += A[m, k] B[k, n]``.

    ``flops`` is in floating-point operations; the ``words_*`` properties are
    operand sizes in words (8-byte elements).  ``m``, ``n``, ``k`` may be
    per-pair numpy arrays; the cost formulas then evaluate element-wise.
    """

    m: int
    n: int
    k: int

    @property
    def words_a(self) -> float:
        """Elements (words) of the ``m x k`` operand A."""
        return 1.0 * self.m * self.k

    @property
    def words_b(self) -> float:
        """Elements (words) of the ``k x n`` operand B."""
        return 1.0 * self.k * self.n

    @property
    def words_c(self) -> float:
        """Elements (words) of the ``m x n`` output C."""
        return 1.0 * self.m * self.n

    @property
    def total_words(self) -> float:
        """Combined operand + output words of the GEMM."""
        return self.words_a + self.words_b + self.words_c


# --------------------------------------------------------------------------- #
# candidate algorithms
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MappingDecision:
    """One way of executing a distributed contraction.

    Attributes
    ----------
    algorithm:
        ``"summa-2d"``, ``"summa-25d"`` or ``"summa-3d"``.
    grid:
        The processor grid the algorithm runs on.
    replication:
        The "c" of 2.5D algorithms (1 for 2D).
    words_per_rank:
        Communication volume along the critical path, in words
        (8-byte elements) per rank.
    supersteps:
        Number of global synchronizations.
    memory_words_per_rank:
        Working-set size per rank, in words.
    seconds:
        Modelled communication time in seconds.
    """

    algorithm: str
    grid: Tuple[int, ...]
    replication: int
    words_per_rank: float
    supersteps: float
    memory_words_per_rank: float
    seconds: float

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MappingDecision({self.algorithm}, grid={self.grid}, "
                f"c={self.replication}, words/rank={self.words_per_rank:.3g})")


def _grid_2d(nprocs: int) -> Tuple[int, int]:
    """A near-square 2D factorization of the rank count."""
    best = (nprocs, 1)
    for a in range(1, int(math.isqrt(nprocs)) + 1):
        if nprocs % a == 0:
            best = (nprocs // a, a)
    return best


def summa_2d(shape: GemmShape, nprocs: int,
             model: CollectiveModel) -> MappingDecision:
    """2D SUMMA on a ``pr x pc`` grid (no replication)."""
    pr, pc = _grid_2d(nprocs)
    # every rank receives its panel of A broadcast along rows and of B along
    # columns once per outer-product step; total words per rank:
    words = shape.words_a / pr + shape.words_b / pc
    steps = max(min(pr, pc), 1)
    comm = model.broadcast(shape.words_a / (pr * pc), pc) + \
        model.broadcast(shape.words_b / (pr * pc), pr)
    seconds = steps * comm.seconds
    # owned blocks of A, B, C plus one step's broadcast panels
    memory = 2.0 * (shape.words_a + shape.words_b) / nprocs \
        + shape.words_c / nprocs
    return MappingDecision("summa-2d", (pr, pc), 1, words, float(steps),
                           memory, seconds)


def summa_25d(shape: GemmShape, nprocs: int, replication: int,
              model: CollectiveModel) -> MappingDecision:
    """Communication-avoiding 2.5D SUMMA with ``replication`` copies of C."""
    c = max(int(replication), 1)
    c = min(c, max(int(round(nprocs ** (1.0 / 3.0))), 1))
    base = max(nprocs // c, 1)
    pr, pc = _grid_2d(base)
    words = (shape.words_a + shape.words_b) / math.sqrt(max(nprocs * c, 1)) \
        + shape.words_c / base
    steps = max(min(pr, pc) // c, 1) + 1      # +1 for the final reduction over c
    comm = model.broadcast((shape.words_a + shape.words_b) / max(nprocs, 1),
                           max(pr, pc))
    reduce_c = model.allreduce(shape.words_c / base, c)
    seconds = steps * comm.seconds + reduce_c.seconds
    # c replicated copies of the A/B working set plus the locally owned slab of C
    memory = 2.0 * c * (shape.words_a + shape.words_b) / nprocs \
        + shape.words_c / base
    algo = "summa-3d" if c >= max(int(round(nprocs ** (1.0 / 3.0))), 1) and c > 1 \
        else ("summa-25d" if c > 1 else "summa-2d")
    return MappingDecision(algo, (pr, pc, c), c, words, float(steps), memory,
                           seconds)


def summa_3d(shape: GemmShape, nprocs: int,
             model: CollectiveModel) -> MappingDecision:
    """Fully replicated 3D algorithm (maximum memory, minimum communication)."""
    c = max(int(round(nprocs ** (1.0 / 3.0))), 1)
    return summa_25d(shape, nprocs, c, model)


def candidate_mappings(shape: GemmShape, nprocs: int,
                       model: CollectiveModel) -> List[MappingDecision]:
    """All candidate algorithm/replication choices for a contraction."""
    cands = [summa_2d(shape, nprocs, model)]
    c = 2
    cmax = max(int(round(nprocs ** (1.0 / 3.0))), 1)
    while c <= cmax:
        cands.append(summa_25d(shape, nprocs, c, model))
        c *= 2
    if c // 2 != cmax:  # the doubling loop stopped short of the 3D grid
        cands.append(summa_3d(shape, nprocs, model))
    return cands


def _combine_pair_decisions(family: MappingDecision, owned_words_per_rank,
                            resident_words_per_rank: float = 0.0
                            ) -> MappingDecision:
    """Aggregate one candidate family (arrays over pairs) into one decision.

    Communication words, supersteps and seconds add across the pairs (they
    execute sequentially on the same grid).  The memory requirement is the
    mapping-independent resident set (each rank's owned share of every
    distinct block the plan touches, supplied by the caller) plus the
    largest single pair's *transient* working set — its candidate memory
    minus that pair's owned share (``owned_words_per_rank``), so owned block
    storage is counted exactly once.
    """
    npairs = len(owned_words_per_rank)

    def total(values) -> float:
        # Python's sum over the per-pair floats in plan order: bit-identical
        # to adding per-pair scalar costs (np.sum's pairwise order is not)
        return sum(np.broadcast_to(values, (npairs,)).tolist())

    transient = max(float(np.max(family.memory_words_per_rank
                                 - owned_words_per_rank)), 0.0)
    return MappingDecision(
        family.algorithm, family.grid, family.replication,
        total(family.words_per_rank), total(family.supersteps),
        resident_words_per_rank + transient, total(family.seconds))


def plan_candidate_mappings(pairs: GemmShape, nprocs: int,
                            model: CollectiveModel,
                            resident_words_per_rank: float = 0.0
                            ) -> List[MappingDecision]:
    """Candidate mappings scored against a plan's per-block-pair GEMM shapes.

    Each candidate family (2D, 2.5D at each replication factor, 3D) is priced
    as the sum of its per-pair costs — the quantity a contraction plan
    actually executes — rather than from one aggregate shape.  ``pairs`` is
    one :class:`GemmShape` whose ``m``, ``n``, ``k`` are the per-pair
    (float) arrays, so all pairs are scored in one :func:`candidate_mappings`
    call.  ``resident_words_per_rank`` (words) is the per-rank share of the
    plan's distinct blocks, which no mapping choice can avoid holding; each
    candidate's memory requirement is that floor plus its largest transient
    per-pair working set.
    """
    owned = pairs.total_words / max(nprocs, 1)
    return [_combine_pair_decisions(family, owned, resident_words_per_rank)
            for family in candidate_mappings(pairs, nprocs, model)]


def choose_mapping(shape: GemmShape, nprocs: int, model: CollectiveModel, *,
                   memory_words_per_rank: float | None = None
                   ) -> MappingDecision:
    """The cheapest mapping that fits in the per-rank memory budget.

    Without a memory budget the most communication-avoiding candidate wins
    (the paper's assumption for block-wise contractions); with a budget
    (in words per rank, i.e. 8-byte elements), the replication factor is
    limited exactly the way Cyclops limits it, which is how the sparse
    single-tensor algorithms end up on the ``O(M_D / p^{1/2})``-word 2D
    mappings of Table II.  A planned contraction is scored per block pair by
    :func:`repro.ctf.plan_cost.choose_plan_mapping` under the same rule.

    Parameters
    ----------
    shape:
        GEMM dimensions of the contraction.
    nprocs:
        Total number of MPI ranks.
    model:
        Collective cost model used to price each candidate.
    memory_words_per_rank:
        Optional per-rank memory budget in words; candidates exceeding it are
        discarded (falling back to the smallest-footprint candidate when
        nothing fits).

    Returns
    -------
    MappingDecision
        The chosen algorithm with its modelled words/rank, supersteps,
        memory (words/rank) and seconds.
    """
    return cheapest_fitting(candidate_mappings(shape, nprocs, model),
                            memory_words_per_rank)


def cheapest_fitting(cands: List[MappingDecision],
                     memory_words_per_rank: float | None = None
                     ) -> MappingDecision:
    """The fastest candidate within the per-rank memory budget (words).

    Ties on seconds go to fewer words per rank.  When no candidate fits,
    the smallest-footprint one is returned.
    """
    if memory_words_per_rank is not None:
        fitting = [c for c in cands
                   if c.memory_words_per_rank <= memory_words_per_rank]
        if not fitting:
            # nothing fits: fall back to the smallest-footprint candidate
            return min(cands, key=lambda c: c.memory_words_per_rank)
        cands = fitting
    return min(cands, key=lambda c: (c.seconds, c.words_per_rank))


# --------------------------------------------------------------------------- #
# redistribution
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RedistributionPlan:
    """Cost of changing a tensor's processor-grid layout.

    Attributes
    ----------
    elements:
        Total tensor elements (words of 8 bytes) being redistributed.
    words_per_rank:
        Words each rank sends/receives in the all-to-all.
    seconds:
        Modelled wall-clock time of the layout change in seconds.
    """

    elements: float
    words_per_rank: float
    seconds: float


def redistribution_plan(total_elements: float, nprocs: int,
                        model: CollectiveModel) -> RedistributionPlan:
    """An all-to-all layout change of a distributed tensor.

    Cyclops calls this between contractions whenever the preferred mappings of
    consecutive operations differ; the paper's Fig. 7 groups it under "CTF
    transposition".
    """
    per_rank = total_elements / max(nprocs, 1)
    cost = model.alltoall(per_rank, max(nprocs, 1))
    return RedistributionPlan(total_elements, per_rank, cost.seconds)
