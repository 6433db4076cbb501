"""Lowering contraction plans into the distributed cost model.

The contraction planner (:mod:`repro.symmetry.planner`) knows, before any
arithmetic happens, every block pair a contraction will execute, the
matricized GEMM shape of each pair, and the exact output sparsity.  Pricing
the simulated machine (:class:`repro.ctf.world.SimWorld`) from *aggregate*
element counts instead over-charges communication whenever only part of a
tensor participates, and hides the GEMM shapes from the mapping chooser.

:func:`lower_plan` reads the pair columns of a
:class:`~repro.symmetry.planner.ContractionPlan` into a :class:`PlanCost`:
one :class:`PairCost` per block pair (its :class:`~repro.ctf.mapping.GemmShape`
and operand/output words) plus plan-level aggregates (touched operand words,
output words, flops, load-balance statistics).  The lowered description feeds

* :meth:`repro.ctf.world.SimWorld.charge_planned_contraction` — plan-aware
  contraction pricing,
* the plan-aware mode of
  :meth:`repro.ctf.world.SimWorld.charge_redistribution` — block-aligned
  redistribution volumes via :func:`redistribution_words`,
* :func:`choose_plan_mapping` — the per-pair candidate scorer of
  :func:`repro.ctf.mapping.choose_mapping`.

Units: "words" are always 8-byte tensor elements, "flops" are floating-point
operations, times are seconds.

The lowering only reads plan structure, so it works identically for plans
built from concrete :class:`~repro.symmetry.block_tensor.BlockSparseTensor`
operands and for the data-free :class:`~repro.perf.shapesim.ShapeTensor`
skeletons the scaling benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Tuple

from .bsp import parallel_gemm_efficiency
from .collectives import CollectiveModel
from .mapping import GemmShape, MappingDecision, choose_mapping, summa_2d


@dataclass(frozen=True)
class PairCost:
    """Cost description of one planned block-pair GEMM.

    Attributes
    ----------
    shape:
        The matricized ``C[m, n] += A[m, k] B[k, n]`` dimensions of the pair.
    flops:
        Floating-point operations of the pair (``2 m n k``).
    words_a, words_b, words_c:
        Words (8-byte elements) of the A, B and output blocks involved.
    """

    shape: GemmShape
    flops: float
    words_a: float
    words_b: float
    words_c: float


@dataclass(frozen=True)
class PlanCost:
    """A contraction plan lowered to distributed-cost-model quantities.

    All word counts are 8-byte elements; ``total_flops`` is in floating-point
    operations.  ``operand_a_words``/``operand_b_words`` count each *distinct*
    operand block once even when it participates in several pairs — this is
    the volume a block-aligned redistribution of the planned layout actually
    has to move, and it is never larger than the operand's aggregate nnz
    (blocks no pair touches do not move).  ``decisions`` memoizes the
    plan's mapping decisions per machine (:meth:`SimWorld.preferred_mapping`).
    """

    pairs: Tuple[PairCost, ...]
    operand_a_words: float
    operand_b_words: float
    output_words: float
    total_flops: float
    largest_pair_share: float
    decisions: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def npairs(self) -> int:
        """Number of planned block pairs."""
        return len(self.pairs)

    @property
    def touched_words(self) -> float:
        """Total words of all distinct blocks the plan touches (A + B + out)."""
        return self.operand_a_words + self.operand_b_words + self.output_words

    @property
    def pair_shapes(self) -> Tuple[GemmShape, ...]:
        """The per-pair GEMM shapes, in plan order (deterministic)."""
        return tuple(p.shape for p in self.pairs)


def lower_plan(plan) -> PlanCost:
    """Lower a :class:`~repro.symmetry.planner.ContractionPlan` to costs.

    The result is memoized in the plan's ``cost`` field, so repeatedly
    charging a cached plan (the common case: one plan per signature,
    thousands of executions) lowers it only once.

    Parameters
    ----------
    plan:
        A ``ContractionPlan`` built by :func:`repro.symmetry.planner.build_plan`.

    Returns
    -------
    PlanCost
        Per-pair GEMM shapes/words plus plan-level aggregates.
    """
    if plan.cost is None:
        plan.cost = PlanCost(
            pairs=tuple(
                PairCost(shape=GemmShape(m, n, k), flops=flops,
                         words_a=float(m * k), words_b=float(k * n),
                         words_c=float(m * n))
                for m, k, n, flops in zip(
                    plan.pair_m.tolist(), plan.pair_k.tolist(),
                    plan.pair_n.tolist(), plan.pair_flops.tolist())),
            operand_a_words=float(sum(map(mul, plan.a_rows, plan.a_cols))),
            operand_b_words=float(sum(map(mul, plan.b_rows, plan.b_cols))),
            output_words=float(plan.out_nnz),
            total_flops=float(plan.total_flops),
            largest_pair_share=float(plan.largest_pair_share))
    return plan.cost


def as_plan_cost(plan_or_cost) -> PlanCost:
    """Coerce a ``ContractionPlan`` or an already-lowered :class:`PlanCost`.

    Every plan-consuming entry point (``charge_planned_contraction``,
    ``charge_redistribution(plan=...)``, :func:`redistribution_words`,
    :func:`choose_plan_mapping`) accepts both forms through this helper.
    """
    if isinstance(plan_or_cost, PlanCost):
        return plan_or_cost
    return lower_plan(plan_or_cost)


def redistribution_words(plan_or_cost, operand: str = "all") -> float:
    """Block-aligned redistribution volume (words) of a planned layout.

    A layout change of a tensor whose planned contraction only touches a
    subset of its blocks moves exactly those blocks' words — the remainder
    never has to land on the contraction's processor grid.

    Parameters
    ----------
    plan_or_cost:
        A ``ContractionPlan`` or its lowered :class:`PlanCost`.
    operand:
        ``"a"``, ``"b"`` or ``"out"`` for one tensor of the contraction, or
        ``"all"`` for the sum over all three.

    Returns
    -------
    float
        Words (8-byte elements) that the redistribution moves in aggregate.
    """
    cost = as_plan_cost(plan_or_cost)
    if operand == "a":
        return cost.operand_a_words
    if operand == "b":
        return cost.operand_b_words
    if operand == "out":
        return cost.output_words
    if operand == "all":
        return cost.touched_words
    raise ValueError(f"operand must be 'a', 'b', 'out' or 'all', "
                     f"got {operand!r}")


def choose_plan_mapping(plan_or_cost, nprocs: int, model: CollectiveModel, *,
                        memory_words_per_rank: float | None = None
                        ) -> MappingDecision:
    """Pick the distributed-GEMM mapping for a *planned* contraction.

    Scores every SUMMA candidate against the plan's actual per-block-pair
    GEMM shapes (via the ``pair_shapes`` scorer of
    :func:`repro.ctf.mapping.choose_mapping`) instead of one aggregate shape,
    so the decision can differ between two contractions of equal total size
    but different block structure.  Deterministic for a fixed plan: the pair
    list is ordered and every candidate cost is a pure function of it.

    Parameters
    ----------
    plan_or_cost:
        A ``ContractionPlan`` or its lowered :class:`PlanCost`.
    nprocs:
        Total MPI ranks executing the contraction.
    model:
        Collective cost model pricing the candidate algorithms.
    memory_words_per_rank:
        Optional per-rank memory budget in words; candidates whose working
        set exceeds it are discarded (Cyclops' memory-limited behaviour).

    Returns
    -------
    MappingDecision
        The cheapest fitting candidate, with ``seconds``/``words_per_rank``
        summed over all planned pairs.
    """
    cost = as_plan_cost(plan_or_cost)
    if not cost.pairs:
        raise ValueError("cannot choose a mapping for an empty plan")
    # every rank owns its share of all distinct touched blocks no matter
    # which mapping runs; only the transient per-pair working set varies
    resident = cost.touched_words / max(nprocs, 1)
    return choose_mapping(None, nprocs, model,
                          memory_words_per_rank=memory_words_per_rank,
                          pair_shapes=cost.pair_shapes,
                          resident_words_per_rank=resident)


#: a block pair whose distributed GEMM runs below this parallel efficiency is
#: too fine-grained to amortize a replicated (2.5D/3D) mapping's setup; the
#: mapper keeps it on a plain 2D SUMMA grid instead
GRAIN_EFFICIENCY_CROSSOVER = 0.5


def pair_mapping_decisions(plan_or_cost, nprocs: int, model: CollectiveModel,
                           *, grain_efficiency: float =
                           GRAIN_EFFICIENCY_CROSSOVER
                           ) -> Tuple[MappingDecision, ...]:
    """Per-block-pair mapping decisions with a 2D-vs-3D crossover.

    The ``list`` algorithm contracts each block pair as its own distributed
    dense contraction, so each pair gets its own mapping decision.  Large
    pairs take the communication-avoiding candidate
    :func:`~repro.ctf.mapping.choose_mapping` picks (the paper's Table II
    assumption of a 3D mapping); pairs whose
    :func:`~repro.ctf.bsp.parallel_gemm_efficiency` falls below
    ``grain_efficiency`` are too small to amortize the replication setup of a
    2.5D/3D mapping and are kept on a plain 2D SUMMA grid — the
    grain-efficiency crossover the paper attributes to contracting small
    tensors in a distributed way (Section VI-B).

    Parameters
    ----------
    plan_or_cost:
        A ``ContractionPlan`` or its lowered :class:`PlanCost`.
    nprocs:
        Total MPI ranks executing each pair's contraction.
    model:
        Collective cost model pricing the candidate algorithms.
    grain_efficiency:
        Parallel-efficiency threshold (0..1) below which a pair maps 2D.

    Returns
    -------
    tuple of MappingDecision
        One decision per plan pair, in plan order (deterministic).
    """
    cost = as_plan_cost(plan_or_cost)
    decisions = []
    for pair in cost.pairs:
        if parallel_gemm_efficiency(pair.flops, nprocs) < grain_efficiency:
            decisions.append(summa_2d(pair.shape, nprocs, model))
        else:
            decisions.append(choose_mapping(pair.shape, nprocs, model))
    return tuple(decisions)
