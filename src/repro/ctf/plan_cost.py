"""Pricing contraction plans in the distributed cost model.

The contraction planner (:mod:`repro.symmetry.planner`) knows, before any
arithmetic happens, every block pair a contraction will execute, the
matricized GEMM shape of each pair, and the exact output sparsity.  Pricing
the simulated machine (:class:`repro.ctf.world.SimWorld`) from *aggregate*
element counts instead over-charges communication whenever only part of a
tensor participates, and hides the GEMM shapes from the mapping chooser.

The functions here read a :class:`~repro.symmetry.planner.ContractionPlan`
directly: its per-pair GEMM dims (``pair_m``, ``pair_k``, ``pair_n``, read
off the slot dims) and ``pair_flops``, and the words of its distinct blocks
(``a_words``, ``b_words``, ``out_nnz``).  They feed

* :meth:`repro.ctf.world.SimWorld.charge_planned_contraction` and the
  plan-aware mode of :meth:`repro.ctf.world.SimWorld.charge_redistribution`
  — block-aligned volumes via :func:`redistribution_words`,
* :func:`choose_plan_mapping` — one SUMMA decision per plan, every
  candidate scored against the per-pair GEMM shapes,
* :func:`pair_mapping_decisions` — one decision per pair for the ``list``
  algorithm.

Units: "words" are always 8-byte tensor elements, "flops" are floating-point
operations, times are seconds.

Plans only describe structure, so pricing works identically for plans built
from concrete :class:`~repro.symmetry.block_tensor.BlockSparseTensor`
operands and for the data-free :class:`~repro.perf.shapesim.ShapeTensor`
skeletons the scaling benchmarks use.
"""

from __future__ import annotations

from typing import Tuple

from .bsp import parallel_gemm_efficiency
from .collectives import CollectiveModel
from .mapping import (GemmShape, MappingDecision, cheapest_fitting,
                      choose_mapping, plan_candidate_mappings, summa_2d)


def redistribution_words(plan, operand: str = "all") -> float:
    """Block-aligned redistribution volume (words) of a planned layout.

    A layout change of a tensor whose planned contraction only touches a
    subset of its blocks moves exactly those blocks' words — the remainder
    never has to land on the contraction's processor grid.  Each distinct
    block counts once even when it joins several pairs, so the volume is
    never larger than the operand's aggregate nnz.

    Parameters
    ----------
    plan:
        A ``ContractionPlan`` built by :func:`repro.symmetry.planner.build_plan`.
    operand:
        ``"a"``, ``"b"`` or ``"out"`` for one tensor of the contraction, or
        ``"all"`` for the sum over all three.

    Returns
    -------
    float
        Words (8-byte elements) that the redistribution moves in aggregate.
    """
    if operand == "a":
        return float(plan.a_words)
    if operand == "b":
        return float(plan.b_words)
    if operand == "out":
        return float(plan.out_nnz)
    if operand == "all":
        return float(plan.a_words) + float(plan.b_words) + float(plan.out_nnz)
    raise ValueError(f"operand must be 'a', 'b', 'out' or 'all', "
                     f"got {operand!r}")


def choose_plan_mapping(plan, nprocs: int, model: CollectiveModel, *,
                        memory_words_per_rank: float | None = None
                        ) -> MappingDecision:
    """Pick the distributed-GEMM mapping for a *planned* contraction.

    Scores every SUMMA candidate against the plan's actual per-block-pair
    GEMM shapes (:func:`repro.ctf.mapping.plan_candidate_mappings` on one
    :class:`~repro.ctf.mapping.GemmShape` whose ``m``, ``n``, ``k`` are the
    pair columns) instead of one aggregate shape, so the decision can differ
    between two contractions of equal total size but different block
    structure.  Deterministic for a fixed plan: the pairs are ordered and
    every candidate cost is a pure function of them.

    Parameters
    ----------
    plan:
        A ``ContractionPlan`` with at least one block pair.
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
    if not plan.npairs:
        raise ValueError("cannot choose a mapping for an empty plan")
    pairs = GemmShape(plan.pair_m.astype(float), plan.pair_n.astype(float),
                      plan.pair_k.astype(float))
    # every rank owns its share of all distinct touched blocks no matter
    # which mapping runs; only the transient per-pair working set varies
    resident = redistribution_words(plan) / max(nprocs, 1)
    return cheapest_fitting(
        plan_candidate_mappings(pairs, nprocs, model, resident),
        memory_words_per_rank)


#: a block pair whose distributed GEMM runs below this parallel efficiency is
#: too fine-grained to amortize a replicated (2.5D/3D) mapping's setup; the
#: mapper keeps it on a plain 2D SUMMA grid instead
GRAIN_EFFICIENCY_CROSSOVER = 0.5


def pair_mapping_decisions(plan, nprocs: int, model: CollectiveModel,
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
    plan:
        A ``ContractionPlan`` built by :func:`repro.symmetry.planner.build_plan`.
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
    decisions = []
    for m, n, k, flops in zip(plan.pair_m.tolist(), plan.pair_n.tolist(),
                              plan.pair_k.tolist(), plan.pair_flops.tolist()):
        shape = GemmShape(m, n, k)
        if parallel_gemm_efficiency(flops, nprocs) < grain_efficiency:
            decisions.append(summa_2d(shape, nprocs, model))
        else:
            decisions.append(choose_mapping(shape, nprocs, model))
    return tuple(decisions)
