"""Contraction planning for block-sparse tensors.

The effective-Hamiltonian contractions of a Davidson solve repeat the same
symbolic work on every matrix-vector product: pairing blocks whose charges
match along the contracted modes (Algorithm 2 of the paper), computing output
keys, and choosing a matricization.  All of it depends only on operand
*structure* — index sectors, dims and flows, stored block keys, fluxes, axes.

:func:`build_plan` does that work on index arrays, the way Cyclops precomputes
output sparsity (Section IV-A): sorted block keys become ``int64`` matrices,
Algorithm-2 pairing is a sort/merge join on an integer code of the contracted
sector columns, and slot numbering, output keys, GEMM shapes and the
fused/batched grouping are vector arithmetic on the pair columns of the
struct-of-arrays :class:`ContractionPlan`.  The plan keeps what it computed as
contiguous arrays too: ``int32`` slot columns, the GEMM groups and the
deduplicated operand panels of the fused groups in CSR form and the output
dims as one matrix; pair GEMM dims are read off the slot dims on demand.
Only block keys stay tuples, since blocks are stored under them, and
:class:`PlanCache` interns them, so the plan cache, the largest resident
object of a run, costs a few array headers per plan and one tuple per
distinct block key rather than Python objects per pair.
:mod:`repro.symmetry.engine` runs plans and :class:`PlanCache` memoizes them
by symbolic signature: the plan/execute split of TeNPy's abstract backend,
which lets block-sparse contraction approach dense GEMM throughput
(Section IV, Fig. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import trace
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


@dataclass(eq=False, slots=True)
class ContractionPlan:
    """A fully precomputed block-sparse contraction, as a struct of arrays.

    A slot ``i`` is the block ``a_keys[i]`` (sorted key order), transposed by
    ``perm_a`` (``None`` if already laid out) and reshaped to ``(a_rows[i],
    a_cols[i])``; B slots likewise, numbered by first appearance in pair
    order, as are the output blocks ``out_keys`` whose shapes are the rows of
    ``out_dims``.  Pair ``p`` (A-key, then B-key order) multiplies A slot
    ``pair_a[p]`` by B slot ``pair_b[p]`` into output ``pair_out[p]``; its
    GEMM dims ``pair_m|pair_k|pair_n`` are read off the slot dims.

    The GEMM groups are CSR arrays.  Fused group ``g`` (an output with
    several pairs) is one GEMM into output ``fused_out[g]`` of A panel
    ``fused_a_panel[g]`` by B panel ``fused_b_panel[g]``.  A panel ``p``
    joins the A slots ``a_panel_slots[a_panel_ptr[p]:a_panel_ptr[p + 1]]``
    along the contracted axis, and B panels likewise: groups whose pairs
    read the same slot run share one panel, and the groups of each A panel
    are consecutive, so an executor can drop an A panel after its last
    GEMM.  Batched group ``g`` is one batched matmul of the single-pair
    outputs ``batch_out[batch_ptr[g]:batch_ptr[g + 1]]`` sharing an ``(m,
    k, n)``, over the same range of ``batch_a|batch_b``.  Slot, panel and
    group columns and ``out_dims`` are ``int32``; the slot dims, products of
    sector dims, are ``int64``.  Only the keys are tuples, because blocks
    are looked up and stored by them.

    ``a_words``/``b_words``/``out_nnz`` count the elements of the distinct
    A, B and output blocks.  The cost model (:mod:`repro.ctf.plan_cost`)
    prices the pair columns directly, and ``decisions`` memoizes its mapping
    decisions per machine (:meth:`repro.ctf.world.SimWorld.preferred_mapping`).
    """

    axes_a: Tuple[int, ...]
    axes_b: Tuple[int, ...]
    keep_a: Tuple[int, ...]
    keep_b: Tuple[int, ...]
    out_indices: Tuple[Index, ...]
    out_flux: Charge
    perm_a: Optional[Tuple[int, ...]]
    perm_b: Optional[Tuple[int, ...]]
    a_keys: List[BlockKey]
    a_rows: np.ndarray
    a_cols: np.ndarray
    b_keys: List[BlockKey]
    b_rows: np.ndarray
    b_cols: np.ndarray
    out_keys: List[BlockKey]
    out_dims: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    pair_out: np.ndarray
    fused_out: np.ndarray
    fused_a_panel: np.ndarray
    fused_b_panel: np.ndarray
    a_panel_ptr: np.ndarray
    a_panel_slots: np.ndarray
    b_panel_ptr: np.ndarray
    b_panel_slots: np.ndarray
    batch_out: np.ndarray
    batch_ptr: np.ndarray
    batch_a: np.ndarray
    batch_b: np.ndarray
    total_flops: float
    largest_pair_share: float
    a_words: int
    b_words: int
    out_nnz: int
    decisions: dict = field(default_factory=dict, repr=False)

    @property
    def npairs(self) -> int:
        """Number of Algorithm-2 block pairs the plan covers."""
        return len(self.pair_a)

    @property
    def pair_m(self) -> np.ndarray:
        """GEMM rows of each pair (its A slot's rows)."""
        return self.a_rows[self.pair_a]

    @property
    def pair_k(self) -> np.ndarray:
        """Contracted extent of each pair (its A slot's columns)."""
        return self.a_cols[self.pair_a]

    @property
    def pair_n(self) -> np.ndarray:
        """GEMM columns of each pair (its B slot's columns)."""
        return self.b_cols[self.pair_b]

    @property
    def pair_flops(self) -> np.ndarray:
        """Floating-point operations of each pair (``2 m k n``)."""
        return 2.0 * self.pair_m * self.pair_k * self.pair_n

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


def _key_matrix(t) -> Tuple[List[BlockKey], np.ndarray, np.ndarray]:
    """Sorted block keys of ``t``, as tuples and as sector/dim matrices."""
    keys = sorted(t.blocks)
    sectors = np.array(keys, dtype=np.int64).reshape(len(keys), t.ndim)
    dims = np.empty_like(sectors)
    for j, ix in enumerate(t.indices):
        dims[:, j] = np.asarray(ix.dims, dtype=np.int64)[sectors[:, j]]
    return keys, sectors, dims


def _sector_code(sectors: np.ndarray, cols: Sequence[int],
                 indices: Sequence[Index]) -> np.ndarray:
    """Mixed-radix ``int64`` code of the sector columns ``cols``: exact, or
    ``ValueError`` when the radix product passes ``2**63``."""
    radices = [indices[c].nsectors for c in cols]
    if math.prod(radices) > 2 ** 63:
        raise ValueError(f"sector code of {len(cols)} modes with "
                         f"{radices} sectors overflows int64")
    code = np.zeros(len(sectors), dtype=np.int64)
    for c, r in zip(cols, radices):
        code = code * r + sectors[:, c]
    return code


def _first_appearance(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows by first appearance: (numbers, first rows)."""
    # a stable sort brings equal rows together, earliest first
    order = (np.lexsort(rows.T[::-1]) if rows.shape[1]
             else np.arange(len(rows)))
    ordered = rows[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = order[new]
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(first))
    number = np.empty_like(order)
    number[order] = rank[np.cumsum(new) - 1]
    return number, first[by_first]


def _rows(matrix: np.ndarray) -> List[Tuple[int, ...]]:
    """The rows of an integer matrix as tuples of Python ints."""
    return (list(zip(*matrix.T.tolist())) if matrix.shape[1]
            else [()] * len(matrix))


def _int32(column: np.ndarray) -> np.ndarray:
    """A slot, group or sector-dim column in the plan's ``int32`` type."""
    return column.astype(np.int32)


def _ptr(lengths: np.ndarray) -> np.ndarray:
    """CSR row pointer of consecutive runs of the given lengths."""
    return _int32(np.concatenate(([0], np.cumsum(lengths))))


#: odd base of the polynomial hash that proposes equal slot runs (a
#: collision costs a separate panel, never a wrong one: runs are compared)
_RUN_HASH_BASE = np.uint64(0x9E3779B97F4A7C15)


def _panels(lengths: np.ndarray, runs: np.ndarray
            ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Deduplicate the slot runs of the fused groups into panels.

    Group ``g`` reads the ``lengths[g]`` rows of ``runs`` (one slot column
    per operand) that follow the rows of the groups before it.  For each
    column, returns each group's panel number (panels numbered by first
    appearance), the panels' CSR pointer and their slot column.  A
    polynomial hash of each run, plus its length, proposes the equal runs;
    every run is then compared with the first run of its hash, and one
    that differs (a collision) gets a panel of its own.
    """
    starts = np.cumsum(lengths) - lengths
    pos = np.arange(len(runs)) - np.repeat(starts, lengths)
    powers = np.cumprod(np.full(int(lengths.max(initial=0)), _RUN_HASH_BASE))
    hashes = (np.add.reduceat((runs.astype(np.uint64) + np.uint64(1))
                              * powers[pos, None], starts)
              + lengths[:, None].astype(np.uint64)) if len(lengths) \
        else runs[:0].astype(np.uint64)
    panels = []
    for slots, run_hash in zip(runs.T, hashes.T):
        number, first = _first_appearance(run_hash.view(np.int64)[:, None])
        rep = first[number]
        if len(lengths):
            # a first run starts before its group's, so reading it with
            # the group's length stays inside ``slots``
            read = np.repeat(starts[rep], lengths) + pos
            differs = (lengths != lengths[rep]) | np.logical_or.reduceat(
                slots != slots[read], starts)
            if differs.any():
                tag = np.where(differs, np.arange(1, len(lengths) + 1), 0)
                number, first = _first_appearance(np.column_stack(
                    (run_hash.view(np.int64), tag)))
        panel_ptr = _ptr(lengths[first])
        taken = np.repeat(starts[first] - panel_ptr[:-1], lengths[first])
        panels.append((number, panel_ptr,
                       _int32(slots[taken + np.arange(len(taken))])))
    return panels


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
    perm_a, perm_b = keep_a + axes_a, axes_b + keep_b

    keys_a, sec_a, dims_a = _key_matrix(a)
    keys_b, sec_b, dims_b = _key_matrix(b)
    m_a, k_a = dims_a[:, keep_a].prod(axis=1), dims_a[:, axes_a].prod(axis=1)
    k_b, n_b = dims_b[:, axes_b].prod(axis=1), dims_b[:, keep_b].prod(axis=1)

    # Algorithm 2 as a sort/merge join: every A block meets the run of B
    # blocks (in sorted key order) whose contracted sectors equal its own
    code_b = _sector_code(sec_b, axes_b, b.indices)
    by_code = np.argsort(code_b, kind="stable")
    code_a = _sector_code(sec_a, axes_a, a.indices)
    lo = np.searchsorted(code_b[by_code], code_a, "left")
    run = np.searchsorted(code_b[by_code], code_a, "right") - lo
    row_a = np.repeat(np.arange(len(keys_a)), run)
    row_b = by_code[np.arange(len(row_a))
                    + np.repeat(lo - np.cumsum(run) + run, run)]

    slots_a = np.flatnonzero(run)
    pair_a = (np.cumsum(run > 0) - 1)[row_a]
    pair_b, first_b = _first_appearance(row_b[:, None])
    slots_b = row_b[first_b]
    out_sec = np.concatenate((sec_a[row_a][:, keep_a],
                              sec_b[row_b][:, keep_b]), axis=1)
    pair_out, first_out = _first_appearance(out_sec)
    out_dims = np.concatenate((dims_a[row_a[first_out]][:, keep_a],
                               dims_b[row_b[first_out]][:, keep_b]), axis=1)

    pair_m, pair_k, pair_n = m_a[row_a], k_a[row_a], n_b[row_b]
    flops = 2.0 * pair_m * pair_k * pair_n
    # summed sequentially in pair order
    total_flops = float(flops.cumsum()[-1]) if len(flops) else 0.0
    largest = float(flops.max()) if len(flops) else 0.0

    # fused groups: the pairs of each multi-pair output, in pair order,
    # reading deduplicated panels; the groups of each A panel run back to
    # back, so the executor builds and drops it once
    contributions = np.bincount(pair_out, minlength=len(first_out))
    multi = np.flatnonzero(contributions > 1)
    fusing = np.flatnonzero(contributions[pair_out] > 1)
    fusing = fusing[np.argsort(pair_out[fusing], kind="stable")]
    (a_panel, a_panel_ptr, a_panel_slots), \
        (b_panel, b_panel_ptr, b_panel_slots) = _panels(
            contributions[multi], np.stack((pair_a[fusing], pair_b[fusing]),
                                           axis=1))
    by_a_panel = np.argsort(a_panel, kind="stable")
    # batched groups: single-pair outputs by (m, k, n), first shape first
    single = np.flatnonzero(contributions == 1)
    p = first_out[single]
    shape_group, _ = _first_appearance(
        np.stack((pair_m[p], pair_k[p], pair_n[p]), axis=1))
    by_shape = np.argsort(shape_group, kind="stable")
    batching = p[by_shape]

    return ContractionPlan(
        axes_a=axes_a, axes_b=axes_b, keep_a=keep_a, keep_b=keep_b,
        out_indices=out_indices, out_flux=add_charges(a.flux, b.flux),
        perm_a=perm_a if perm_a != tuple(range(a.ndim)) else None,
        perm_b=perm_b if perm_b != tuple(range(b.ndim)) else None,
        a_keys=[keys_a[i] for i in slots_a.tolist()],
        a_rows=m_a[slots_a], a_cols=k_a[slots_a],
        b_keys=[keys_b[i] for i in slots_b.tolist()],
        b_rows=k_b[slots_b], b_cols=n_b[slots_b],
        out_keys=_rows(out_sec[first_out]), out_dims=_int32(out_dims),
        pair_a=_int32(pair_a), pair_b=_int32(pair_b),
        pair_out=_int32(pair_out),
        fused_out=_int32(multi[by_a_panel]),
        fused_a_panel=_int32(a_panel[by_a_panel]),
        fused_b_panel=_int32(b_panel[by_a_panel]),
        a_panel_ptr=a_panel_ptr, a_panel_slots=a_panel_slots,
        b_panel_ptr=b_panel_ptr, b_panel_slots=b_panel_slots,
        batch_out=_int32(single[by_shape]),
        batch_ptr=_ptr(np.bincount(shape_group)),
        batch_a=_int32(pair_a[batching]), batch_b=_int32(pair_b[batching]),
        total_flops=total_flops,
        largest_pair_share=(largest / total_flops) if total_flops > 0 else 1.0,
        a_words=int((m_a[slots_a] * k_a[slots_a]).sum()),
        b_words=int((k_b[slots_b] * n_b[slots_b]).sum()),
        out_nnz=int(out_dims.prod(axis=1).sum()))


class PlanCache:
    """Memoizes :class:`ContractionPlan` objects by symbolic signature.

    Every backend carries one of these, and it is the only place plan
    statistics live: the sweep engine's
    :class:`~repro.dmrg.config.StatsRecorder` reads its hit/miss counters
    and plan/execute seconds into the run's ``plan_cache.*`` metrics.

    Plans live in two generations, and :meth:`new_generation` (called by
    the sweep engine at the start of every sweep) makes the current one the
    previous one and drops the old previous one.  A lookup that hits the
    previous generation moves the plan into the current one, so a plan stays
    resident for as long as some sweep keeps using it, and one that a whole
    sweep did not touch is freed.  On a ``maxdim`` ramp almost no plan is
    used again after the sweep that built it, so this bounds plan memory by
    two sweeps' worth; the benchmark workloads keep their hits and misses
    (``docs/architecture.md`` §2).  ``len()`` counts the plans resident in
    both generations.  ``max_plans`` bounds the current
    generation by dropping its oldest plan; it is the only bound of a cache
    that never starts a generation (the shape simulator's).

    The cache also interns the output keys of the plans it stores: plans
    of operands that share sectors but not dims (a ramp's next sweep,
    another stage of the same bond) name the same blocks, and each distinct
    key is then one tuple however many plans, and output tensors, hold it.
    Output tensors store their blocks under these tuples, so the operand
    keys of later plans are mostly the same objects.  Each generation
    interns into a fresh dict, so the old keys go with the old plans.
    """

    __slots__ = ("_plans", "_previous", "_keys", "max_plans", "hits",
                 "misses", "plan_seconds", "execute_seconds")

    def __init__(self, max_plans: int = 8192):
        self._plans: Dict[Tuple, ContractionPlan] = {}
        self._previous: Dict[Tuple, ContractionPlan] = {}
        self._keys: Dict[BlockKey, BlockKey] = {}
        self.max_plans = int(max_plans)
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
            return plan
        plan = self._previous.pop(key, None)
        if plan is not None:
            self.hits += 1
        else:
            span = trace.timed_span("plan-build", "planner").start()
            plan = build_plan(a, b, (axes_a, axes_b))
            # the operands' keys are an earlier plan's interned outputs, or
            # belong to tensors built elsewhere: only the new tuples need it
            intern = self._keys.setdefault
            plan.out_keys = list(map(intern, plan.out_keys, plan.out_keys))
            self.plan_seconds += span.stop()
            self.misses += 1
        if len(self._plans) >= self.max_plans:
            # drop the oldest entry (dict preserves insertion order)
            self._plans.pop(next(iter(self._plans)))
        self._plans[key] = plan
        return plan

    def new_generation(self) -> None:
        """Make the current plans the previous generation, freeing the plans
        (and interned keys) that the ending generation did not use."""
        self._previous = self._plans
        self._plans = {}
        self._keys = {}

    def __len__(self) -> int:
        return len(self._plans) + len(self._previous)
