"""Contraction planning for block-sparse tensors.

The effective-Hamiltonian contractions of a Davidson solve repeat the same
symbolic work on every matrix-vector product: pairing blocks whose charges
match along the contracted modes (Algorithm 2 of the paper), computing output
keys, and choosing a matricization.  All of that is derivable from the
*structure* of the operands alone — index sectors, dims and flows, the set of
stored block keys, the fluxes and the contraction axes — and none of it
depends on the numerical content of the blocks.

This module separates that symbolic phase from the arithmetic (executed by
:mod:`repro.symmetry.engine`): :func:`build_plan` compiles the block pairing
into a :class:`ContractionPlan` listing fused and batched GEMM groups over
reshaped 2-D views, and :class:`PlanCache` memoizes plans by symbolic
signature so repeated Davidson matvecs and later DMRG sweeps skip the pairing
work entirely.  The plan/execute split mirrors the abstract-backend design of
TeNPy and is what lets block-sparse contraction approach dense GEMM
throughput (Section IV, Fig. 3 of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import trace
from ..perf import flops as _flops
from .charges import Charge, add_charges
from .index import Index

BlockKey = Tuple[int, ...]


def index_signature(ix: Index) -> Tuple:
    """Structural identity of one tensor mode (sectors, dims, flow)."""
    return (ix.sectors, ix.dims, ix.flow)


def tensor_signature(t) -> Tuple:
    """Symbolic signature of a block tensor.

    Two tensors with equal signatures have identical index structure, flux and
    stored-block layout, so any contraction plan built for one is valid for
    the other.
    """
    return (tuple(index_signature(ix) for ix in t.indices), t.flux,
            frozenset(t.blocks))


@dataclass
class MatSlot:
    """One operand block viewed as a 2-D matrix.

    ``perm`` is the transposition bringing free/contracted modes together
    (``None`` when the block is already laid out that way), after which the
    block reshapes to ``(rows, cols)``.
    """

    key: BlockKey
    perm: Optional[Tuple[int, ...]]
    rows: int
    cols: int


@dataclass
class OutSpec:
    """One output block: its key, dense shape and matrix dimensions."""

    key: BlockKey
    shape: Tuple[int, ...]
    rows: int
    cols: int


@dataclass
class PairSpec:
    """One Algorithm-2 block pair, with its cost-model bookkeeping."""

    a_slot: int
    b_slot: int
    out_slot: int
    flops: float
    a_size: int
    b_size: int
    out_size: int


@dataclass
class FusedGroup:
    """Several pairs accumulating into one output block.

    Executed as a single GEMM by concatenating the A views along the
    contracted (column) axis and the B views along the contracted (row) axis —
    the accumulation of Algorithm 2 becomes part of the inner product.
    """

    out_slot: int
    a_slots: Tuple[int, ...]
    b_slots: Tuple[int, ...]


@dataclass
class BatchGroup:
    """Single-pair outputs sharing one (m, k, n) shape.

    Executed as one batched ``np.matmul`` over stacked operand views.
    ``entries`` holds ``(out_slot, a_slot, b_slot)`` triples.
    """

    entries: Tuple[Tuple[int, int, int], ...]


@dataclass
class ContractionPlan:
    """A fully precomputed block-sparse contraction.

    Holds everything Algorithm 2 derives symbolically — the block-pair list,
    output keys/shapes, and the matricization layout — grouped into fused and
    batched GEMM work lists for :func:`repro.symmetry.engine.execute_plan`.
    """

    axes_a: Tuple[int, ...]
    axes_b: Tuple[int, ...]
    keep_a: Tuple[int, ...]
    keep_b: Tuple[int, ...]
    out_indices: Tuple[Index, ...]
    out_flux: Charge
    a_slots: List[MatSlot]
    b_slots: List[MatSlot]
    out_specs: List[OutSpec]
    pairs: List[PairSpec]
    fused_groups: List[FusedGroup]
    batch_groups: List[BatchGroup]
    total_flops: float
    largest_pair_share: float
    out_nnz: int

    @property
    def npairs(self) -> int:
        """Number of Algorithm-2 block pairs the plan covers."""
        return len(self.pairs)

    @property
    def scalar_output(self) -> bool:
        """True when the contraction reduces to a scalar (no free modes)."""
        return not self.out_indices


def normalize_axes(a, b, axes: Tuple[Sequence[int], Sequence[int]]
                   ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Normalize ``tensordot``-style axes to non-negative tuples."""
    axes_a = tuple(int(x) % a.ndim for x in axes[0])
    axes_b = tuple(int(x) % b.ndim for x in axes[1])
    if len(axes_a) != len(axes_b):
        raise ValueError("axes lists must have equal length")
    return axes_a, axes_b


def build_plan(a, b, axes: Tuple[Sequence[int], Sequence[int]]
               ) -> ContractionPlan:
    """Compile the contraction of ``a`` with ``b`` into a reusable plan.

    Only the structure of the operands is consulted; the returned plan can be
    executed against any tensor pair sharing the operands' signatures.
    """
    axes_a, axes_b = normalize_axes(a, b, axes)
    for ia, ib in zip(axes_a, axes_b):
        if not a.indices[ia].can_contract_with(b.indices[ib]):
            raise ValueError(
                f"index {ia} of A cannot contract with index {ib} of B: "
                f"{a.indices[ia]!r} vs {b.indices[ib]!r}")
    keep_a = tuple(i for i in range(a.ndim) if i not in axes_a)
    keep_b = tuple(i for i in range(b.ndim) if i not in axes_b)
    out_indices = tuple(a.indices[i] for i in keep_a) + \
        tuple(b.indices[i] for i in keep_b)
    out_flux = add_charges(a.flux, b.flux)
    perm_a = keep_a + axes_a
    perm_b = axes_b + keep_b
    slot_perm_a = perm_a if perm_a != tuple(range(a.ndim)) else None
    slot_perm_b = perm_b if perm_b != tuple(range(b.ndim)) else None

    b_by_contr: Dict[BlockKey, List[BlockKey]] = {}
    for key_b in sorted(b.blocks):
        b_by_contr.setdefault(tuple(key_b[ax] for ax in axes_b),
                              []).append(key_b)

    a_slots: List[MatSlot] = []
    b_slots: List[MatSlot] = []
    b_slot_of: Dict[BlockKey, int] = {}
    out_specs: List[OutSpec] = []
    out_slot_of: Dict[BlockKey, int] = {}
    contributions: List[List[Tuple[int, int]]] = []
    pairs: List[PairSpec] = []
    total_flops = 0.0
    largest = 0.0

    for key_a in sorted(a.blocks):
        kc = tuple(key_a[ax] for ax in axes_a)
        partners = b_by_contr.get(kc)
        if not partners:
            continue
        keep_dims_a = tuple(a.indices[ax].sector_dim(key_a[ax])
                            for ax in keep_a)
        m = math.prod(keep_dims_a)
        k = math.prod(a.indices[ax].sector_dim(key_a[ax]) for ax in axes_a)
        sa = len(a_slots)
        a_slots.append(MatSlot(key_a, slot_perm_a, m, k))
        key_a_keep = tuple(key_a[i] for i in keep_a)
        for key_b in partners:
            sb = b_slot_of.get(key_b)
            keep_dims_b = tuple(b.indices[ax].sector_dim(key_b[ax])
                                for ax in keep_b)
            n = math.prod(keep_dims_b)
            if sb is None:
                sb = b_slot_of[key_b] = len(b_slots)
                b_slots.append(MatSlot(key_b, slot_perm_b, k, n))
            key_c = key_a_keep + tuple(key_b[i] for i in keep_b)
            so = out_slot_of.get(key_c)
            if so is None:
                so = out_slot_of[key_c] = len(out_specs)
                out_specs.append(OutSpec(key_c, keep_dims_a + keep_dims_b,
                                         m, n))
                contributions.append([])
            work = 2.0 * m * k * n
            pairs.append(PairSpec(sa, sb, so, work, m * k, k * n, m * n))
            contributions[so].append((sa, sb))
            total_flops += work
            if work > largest:
                largest = work

    fused_groups: List[FusedGroup] = []
    batchable: Dict[Tuple[int, int, int], List[Tuple[int, int, int]]] = {}
    for so, contribs in enumerate(contributions):
        if len(contribs) > 1:
            fused_groups.append(FusedGroup(so,
                                           tuple(sa for sa, _ in contribs),
                                           tuple(sb for _, sb in contribs)))
        else:
            sa, sb = contribs[0]
            shape = (a_slots[sa].rows, a_slots[sa].cols, b_slots[sb].cols)
            batchable.setdefault(shape, []).append((so, sa, sb))
    batch_groups = [BatchGroup(tuple(entries))
                    for entries in batchable.values()]

    return ContractionPlan(
        axes_a=axes_a, axes_b=axes_b, keep_a=keep_a, keep_b=keep_b,
        out_indices=out_indices, out_flux=out_flux,
        a_slots=a_slots, b_slots=b_slots, out_specs=out_specs, pairs=pairs,
        fused_groups=fused_groups, batch_groups=batch_groups,
        total_flops=total_flops,
        largest_pair_share=(largest / total_flops) if total_flops > 0 else 1.0,
        out_nnz=int(sum(spec.rows * spec.cols for spec in out_specs)))


class PlanCache:
    """Memoizes :class:`ContractionPlan` objects by symbolic signature.

    Every backend carries one of these; the DMRG engine reads its hit/miss
    counters into :class:`~repro.dmrg.config.DMRGResult`, and the planner
    reports the same statistics to the process-global counter in
    :mod:`repro.perf.flops`.
    """

    __slots__ = ("_plans", "max_plans", "hits", "misses", "plan_seconds",
                 "execute_seconds", "record_global")

    def __init__(self, max_plans: int = 8192, record_global: bool = True):
        self._plans: Dict[Tuple, ContractionPlan] = {}
        self.max_plans = int(max_plans)
        #: report lookups to the process-global perf counter; simulation-only
        #: caches (e.g. shape-level modelling) disable this so the reported
        #: plan-cache statistics stay tied to real execution
        self.record_global = bool(record_global)
        self.hits = 0
        self.misses = 0
        self.plan_seconds = 0.0
        self.execute_seconds = 0.0

    def lookup(self, a, b, axes: Tuple[Sequence[int], Sequence[int]]
               ) -> ContractionPlan:
        """Return the plan for ``(a, b, axes)``, building it on first use."""
        axes_a, axes_b = normalize_axes(a, b, axes)
        key = (tensor_signature(a), tensor_signature(b), axes_a, axes_b)
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            if self.record_global:
                _flops.plan_counter().record_lookup(True)
            return plan
        span = trace.timed_span("plan-build", "planner").start()
        plan = build_plan(a, b, (axes_a, axes_b))
        dt = span.stop()
        self.misses += 1
        self.plan_seconds += dt
        if self.record_global:
            _flops.plan_counter().record_lookup(False, plan_seconds=dt)
        if len(self._plans) >= self.max_plans:
            # drop the oldest entry (dict preserves insertion order)
            self._plans.pop(next(iter(self._plans)))
        self._plans[key] = plan
        return plan

    @property
    def lookups(self) -> int:
        """Total number of plan lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        n = self.lookups
        return self.hits / n if n else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict copy of the cache statistics."""
        return {"plans": len(self._plans), "hits": self.hits,
                "misses": self.misses, "hit_rate": self.hit_rate,
                "plan_seconds": self.plan_seconds,
                "execute_seconds": self.execute_seconds}

    def clear(self) -> None:
        """Drop all cached plans and zero the statistics."""
        self._plans.clear()
        self.hits = 0
        self.misses = 0
        self.plan_seconds = 0.0
        self.execute_seconds = 0.0

    def __len__(self) -> int:
        return len(self._plans)
