"""Compiled Davidson matvec: static-operand caching + fused pipeline programs.

The Davidson solve of a DMRG bond applies the same projected Hamiltonian —
left environment, two MPO site tensors, right environment (Fig. 1d) — to a
changing two-site tensor dozens of times.  The planned executor
(:mod:`repro.symmetry.engine`) already skips the symbolic block pairing via
the :class:`~repro.symmetry.planner.PlanCache`, but it still treats each of
the four chained contractions as an independent event: every matvec
re-matricizes the static operands, re-allocates every concat panel, batch
stack and output block, and rebuilds intermediate block dictionaries just so
the next stage can look the blocks up again.

This module compiles the whole chain once per bond into a
:class:`MatvecProgram`:

* **Static-operand caching** — the 2-D views of the four static operands
  (transposed, reshaped, concatenated into fused panels and batch stacks)
  are computed once at compile time and reused by every matvec and re-solve
  at that bond.
* **Fused pipeline** — the gather/permute maps between stages are
  precomputed: stage ``N+1`` consumes stage ``N``'s output matrices through
  integer slot maps and pre-carved destination views instead of rebuilding
  :class:`~repro.symmetry.planner.MatSlot` transposes from a block dict.
* **Workspace arena** — concat panels, batch stacks and intermediate output
  blocks live in preallocated dtype/shape-keyed buffers
  (:class:`WorkspaceArena`) and are written with ``np.matmul(..., out=)``,
  so steady-state matvecs perform zero large allocations beyond the result
  tensor itself (which the Davidson basis retains and must own its memory —
  arena buffers are never aliased into returned tensors).

Cost accounting is preserved exactly: the first application of a new input
signature runs the ordinary per-contraction backend path (which also traces
the plans), and every compiled application replays the identical contraction
sequence through :meth:`repro.backends.base.ContractionBackend.
charge_compiled_stage` — same plans, same flop counts, same
``operand_keys``/``out_key`` layout-tracker semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import trace
from ..perf import flops as _flops
from .block_tensor import BlockSparseTensor
from .blockops import resolve_block_ops
from .planner import ContractionPlan, build_plan, tensor_signature


def _buffer_addr(arr: np.ndarray) -> int:
    """The data pointer of an array (identity of the underlying bytes)."""
    return arr.__array_interface__["data"][0]


# --------------------------------------------------------------------------- #
# workspace arena
# --------------------------------------------------------------------------- #
class WorkspaceArena:
    """Preallocated, dtype/size-keyed scratch buffers for compiled matvecs.

    ``acquire`` hands out a contiguous array of the requested shape, reusing
    a previously released buffer of the same dtype and element count when one
    is available; ``release`` returns buffers to the pool.  A program acquires
    all its panels, stacks and intermediate outputs once at compile time and
    releases them when the bond is done, so consecutive bond steps (and later
    sweeps revisiting the same shapes) recycle the same memory.
    """

    __slots__ = ("_free", "_pooled", "acquires", "reuses", "releases",
                 "allocated_bytes", "max_pool_per_key", "allocator")

    def __init__(self, max_pool_per_key: int = 8, allocator=None):
        self._free: Dict[Tuple[str, int], List[np.ndarray]] = {}
        #: data pointers of the buffers currently sitting in the pool; a
        #: release whose pointer is already here is a double release (the
        #: same bytes would be handed out twice) and raises immediately
        self._pooled: set = set()
        #: total acquire calls / acquires served from the pool / releases
        self.acquires = 0
        self.reuses = 0
        self.releases = 0
        #: bytes of fresh (non-reused) buffer allocations
        self.allocated_bytes = 0
        self.max_pool_per_key = int(max_pool_per_key)
        #: optional ``(shape, dtype) -> ndarray`` backing allocator; the
        #: process executor supplies its shared-memory allocator here so
        #: compiled panels and stacks are addressable by worker processes
        self.allocator = allocator

    def acquire(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A contiguous buffer of ``shape``/``dtype`` (pooled when possible)."""
        dtype = np.dtype(dtype)
        size = int(math.prod(shape)) if shape else 1
        key = (dtype.str, size)
        self.acquires += 1
        stack = self._free.get(key)
        if stack:
            self.reuses += 1
            flat = stack.pop()
            self._pooled.discard(_buffer_addr(flat))
        elif self.allocator is not None:
            flat = self.allocator((size,), dtype)
            self.allocated_bytes += flat.nbytes
        else:
            flat = np.empty(size, dtype=dtype)
            self.allocated_bytes += flat.nbytes
        return flat.reshape(shape)

    def release(self, arr: np.ndarray) -> None:
        """Return a buffer obtained from :meth:`acquire` to the pool.

        ``acquire`` hands out a reshaped view of a flat buffer, so the flat
        root is recovered with one ``reshape(-1)`` — which also stays valid
        for shared-memory-backed buffers, whose view chain bottoms out in a
        memoryview rather than an ndarray.

        Releasing a buffer that is already in the pool raises ``ValueError``:
        with programs and the sweep driver sharing one arena, a double
        release would hand the same bytes to two live holders and corrupt
        one of them silently.  Identity is the buffer's data pointer (the
        ``reshape`` above returns a fresh view object per call, so object
        identity cannot name the underlying allocation); a pooled buffer's
        memory cannot be recycled by the interpreter while the pool holds a
        reference, so pointer collisions with dead buffers are impossible.
        """
        flat = arr.reshape(-1)
        addr = _buffer_addr(flat)
        if addr in self._pooled:
            raise ValueError(
                f"double release of arena buffer ({flat.dtype.str}, "
                f"{flat.size} elements): the buffer is already in the pool")
        key = (flat.dtype.str, flat.size)
        stack = self._free.setdefault(key, [])
        if len(stack) < self.max_pool_per_key:
            stack.append(flat)
            self._pooled.add(addr)
        self.releases += 1

    def clear(self) -> None:
        """Drop every pooled buffer (counters are kept)."""
        self._free.clear()
        self._pooled.clear()

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict counters (for reports and the aliasing tests)."""
        return {"acquires": self.acquires, "reuses": self.reuses,
                "releases": self.releases,
                "allocated_bytes": self.allocated_bytes,
                "pooled_buffers": sum(len(v) for v in self._free.values())}


@dataclass
class MatvecCounters:
    """Per-backend counters of the compiled-matvec lifecycle."""

    compiles: int = 0          #: programs built (one per input signature)
    compiled_applies: int = 0  #: matvecs served by a compiled program
    traced_applies: int = 0    #: matvecs run chained (tracing or fallback)
    releases: int = 0          #: programs released back to the arena

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy of the counters."""
        return {"compiles": self.compiles,
                "compiled_applies": self.compiled_applies,
                "traced_applies": self.traced_applies,
                "releases": self.releases}


# --------------------------------------------------------------------------- #
# stage description and cost-model summary
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MatvecStage:
    """One contraction of the matvec chain: a static operand applied to the
    flowing tensor (``static_side`` names which tensordot operand is static)."""

    static: BlockSparseTensor
    static_side: str                       # 'a' or 'b'
    axes: Tuple[Tuple[int, ...], Tuple[int, ...]]
    operand_keys: Tuple[Optional[str], Optional[str]] = (None, None)
    out_key: Optional[str] = None


def stage_signature(stages: Sequence[MatvecStage], ops) -> tuple:
    """Structural identity of a matvec chain, for refresh-vs-recompile.

    Two visits of the same bond may *refresh* a cached program in place
    only when this tuple is unchanged: the static operands' block structure
    (:func:`~repro.symmetry.planner.tensor_signature`), their dtypes, the
    contraction axes and the layout keys all enter, plus the block-ops
    promotion rule for float64 — so a bond-dimension change, an environment
    rebuild with different sectors, or the mixed-precision schedule swapping
    the compute dtype each force a full recompile instead of a stale
    refresh.  (``tensor_signature`` alone is dtype-blind, which is exactly
    right for the plan cache but not for cached numeric panels.)
    """
    compute = np.dtype(ops.result_type(np.float64, np.float64)).str
    return (compute,) + tuple(
        (tensor_signature(stg.static), np.dtype(stg.static.dtype).str,
         stg.static_side, stg.axes, stg.operand_keys, stg.out_key)
        for stg in stages)


@dataclass(frozen=True)
class StageCharge:
    """Everything a backend's cost model reads about one compiled stage.

    Mirrors the quantities ``ContractionBackend.contract`` derives from the
    live operand/result tensors, so :meth:`repro.backends.base.
    ContractionBackend.charge_compiled_stage` can reproduce the exact same
    charges without materializing the tensors.
    """

    plan: ContractionPlan
    operand_keys: Tuple[Optional[str], Optional[str]]
    out_key: Optional[str]
    a_ndim: int
    a_nnz: int
    a_dense_size: int
    b_ndim: int
    b_nnz: int
    b_dense_size: int
    out_ndim: int
    out_nnz: int
    out_dense_size: int
    #: total dimension of the contracted modes (dense sparse-dense pricing)
    contracted_dim: int


def _operand_stats(t: BlockSparseTensor) -> Tuple[int, int, int]:
    return t.ndim, t.nnz, t.dense_size


def _stage_charge(plan: ContractionPlan, a: BlockSparseTensor,
                  b: BlockSparseTensor, stage: MatvecStage) -> StageCharge:
    a_ndim, a_nnz, a_dense = _operand_stats(a)
    b_ndim, b_nnz, b_dense = _operand_stats(b)
    out_ndim = len(plan.out_indices)
    out_dense = 1
    for ix in plan.out_indices:
        out_dense *= ix.dim
    contracted = 1
    for ax in plan.axes_a:
        contracted *= a.indices[ax].dim
    return StageCharge(plan=plan, operand_keys=stage.operand_keys,
                       out_key=stage.out_key,
                       a_ndim=a_ndim, a_nnz=a_nnz, a_dense_size=a_dense,
                       b_ndim=b_ndim, b_nnz=b_nnz, b_dense_size=b_dense,
                       out_ndim=out_ndim, out_nnz=plan.out_nnz,
                       out_dense_size=out_dense, contracted_dim=contracted)


# --------------------------------------------------------------------------- #
# compiled stage internals
# --------------------------------------------------------------------------- #
# gather ops refresh the dynamic operand's 2-D views before the stage's GEMMs:
#   ("direct", slot, src, rows, cols)            dmats[slot] = fetch(src).reshape
#   ("copy",  dst_view, src, src_shape, perm)    dst_view[...] = permuted source
# fill ops copy a staged/direct matrix into a panel segment or stack slice:
#   (dst_2d_view, slot)
# GEMM units:
#   ("gemm", lhs_ref, rhs_ref, out_slot_range)  with refs ("c", array) const or
#   ("d", slot) dynamic; outputs resolve through the stage's result table.


def _carved_view(dst2d: np.ndarray, shape: Tuple[int, ...],
                 owner: np.ndarray) -> Optional[np.ndarray]:
    """Reshape a destination matrix to ``shape`` without copying, or ``None``.

    Splitting the two axes of a (possibly strided) panel segment into the
    permuted block shape is stride-compatible in every case this module
    generates, but ``reshape`` silently falls back to a copy when it is not —
    and an assignment into a copy would be lost — so the result is only used
    when it provably shares memory with the owning buffer.
    """
    try:
        v = dst2d.reshape(shape)
    except (ValueError, AttributeError):  # pragma: no cover - defensive
        return None
    return v if np.shares_memory(v, owner) else None


class _CompiledStage:
    """Precomputed execution state of one contraction stage."""

    __slots__ = ("plan", "charge", "out_dtype", "gathers", "fills", "units",
                 "dmats", "result_mats", "final_blocks", "final_size",
                 "is_final", "refreshes")

    def __init__(self):
        self.gathers: List[tuple] = []
        self.fills: List[tuple] = []
        self.units: List[tuple] = []
        self.dmats: List[Optional[np.ndarray]] = []
        self.result_mats: List[Optional[np.ndarray]] = []
        self.final_blocks: List[tuple] = []
        self.final_size = 0
        self.is_final = False
        # static refresh ops (dst_2d_view, block_key, perm, owner_buffer):
        # every destination a new static operand's blocks are re-matricized
        # into when a sweep-persistent program is refreshed instead of
        # retraced; each dst lives inside the program-owned owner buffer
        self.refreshes: List[tuple] = []


class MatvecProgram:
    """A fully lowered matvec chain, executable with zero symbolic work.

    Built by :class:`MatvecCompiler` from the plans and intermediates of one
    traced (chained) application; valid for any input sharing the traced
    tensor's signature and dtype, for as long as the static operands' values
    are unchanged (i.e. within one bond's Davidson solve — the sweep driver
    discards the program when the SVD rewrites the wavefunction).
    """

    def __init__(self, stages: List[_CompiledStage], arena: WorkspaceArena,
                 owned: List[np.ndarray], out_indices, out_flux,
                 out_dtype, total_flops: float):
        self._stages = stages
        self._arena = arena
        self._owned = owned
        self._out_indices = out_indices
        self._out_flux = out_flux
        self._out_dtype = out_dtype
        self.total_flops = total_flops
        self.applies = 0

    # -- execution --------------------------------------------------------- #
    @staticmethod
    def _resolve(ref, dmats):
        kind, val = ref
        return val if kind == "c" else dmats[val]

    def execute(self, x: BlockSparseTensor, backend) -> BlockSparseTensor:
        """Run the compiled pipeline on ``x`` (same signature as traced)."""
        cache = getattr(backend, "plan_cache", None)
        ops = resolve_block_ops(getattr(backend, "block_ops", None))
        span = trace.timed_span("matvec", "matvec").start()
        prev: Optional[_CompiledStage] = None
        blocks_out: Dict[tuple, np.ndarray] = {}
        for st in self._stages:
            backend.charge_compiled_stage(st.charge)
            with trace.span("matvec-stage", "matvec"):
                self._run_stage(st, x, prev, ops, blocks_out)
            prev = st
        if self.total_flops:
            _flops.add_flops(self.total_flops, "gemm")
        self.applies += 1
        dt = span.stop()
        if cache is not None:
            # the program serves its four plans from cache: account the
            # lookups and the execution time exactly as the chained
            # per-contraction path would
            cache.record_hits(len(self._stages))
            cache.execute_seconds += dt
            _flops.plan_counter().record_execute(dt)
        return BlockSparseTensor(self._out_indices, blocks_out,
                                 flux=self._out_flux, dtype=self._out_dtype,
                                 check=False)

    def _run_stage(self, st: "_CompiledStage", x: BlockSparseTensor,
                   prev: Optional["_CompiledStage"], ops,
                   blocks_out: Dict[tuple, np.ndarray]) -> None:
        """Execute one compiled stage (gathers, fills, GEMM units)."""
        x_blocks = x.blocks if prev is None else None
        prev_mats = None if prev is None else prev.result_mats
        # gather the dynamic operand's 2-D views
        for g in st.gathers:
            if g[0] == "direct":
                _, slot, src, rows, cols = g
                arr = x_blocks[src] if x_blocks is not None \
                    else prev_mats[src]
                st.dmats[slot] = arr.reshape(rows, cols)
            else:  # "copy"
                _, dst, src, src_shape, perm = g
                if x_blocks is not None:
                    arr = x_blocks[src]
                else:
                    arr = prev_mats[src].reshape(src_shape)
                dst[...] = arr.transpose(perm) if perm is not None else arr
        for dst, slot in st.fills:
            dst[...] = st.dmats[slot]
        # run the GEMM units (independent writes to disjoint outputs:
        # threaded ops may execute them concurrently)
        if st.is_final:
            buf = np.empty(st.final_size, dtype=st.out_dtype)
            gemms = []
            for kind, lhs, rhs, out_ref in st.units:
                off, shape = out_ref
                size = int(math.prod(shape))
                out = buf[off:off + size].reshape(shape)
                gemms.append((self._resolve(lhs, st.dmats),
                              self._resolve(rhs, st.dmats), out))
        else:
            gemms = [(self._resolve(lhs, st.dmats),
                      self._resolve(rhs, st.dmats), out)
                     for kind, lhs, rhs, out in st.units]
        if ops.parallel and len(gemms) > 1:
            ops.run([(lambda l=l, r=r, o=o: ops.matmul(l, r, out=o))
                     for l, r, o in gemms])
        else:
            for l, r, o in gemms:
                ops.matmul(l, r, out=o)
        if st.is_final:
            for key, off, size, dense_shape in st.final_blocks:
                blocks_out[key] = buf[off:off + size].reshape(dense_shape)

    def refresh(self, statics: Sequence[BlockSparseTensor]) -> None:
        """Re-matricize new static operands into the existing panels.

        Called by :class:`SweepProgramCache` when a bond is re-visited with
        the same :func:`stage_signature`: every fused panel segment, batch
        stack slice and single-static buffer is overwritten in place with
        the new operands' blocks — no retrace, no slot-map rebuild, no
        arena traffic.  ``statics`` must be the stage operands in chain
        order (one per compiled stage); the matching signature guarantees
        identical block keys, shapes and dtypes.
        """
        for st, static in zip(self._stages, statics):
            blocks = static.blocks
            for dst, key, perm, _owner in st.refreshes:
                blk = blocks[key]
                if perm is not None:
                    blk = np.transpose(blk, perm)
                dst[...] = blk.reshape(dst.shape)

    @property
    def stages(self):
        """The compiled stages, in execution order (read-only view).

        Exposed for the static aliasing verifier
        (:mod:`repro.analysis.aliasing`); the stage objects themselves are
        live program state — do not mutate them.
        """
        return tuple(self._stages)

    def owned_buffers(self):
        """The arena buffers this program holds until :meth:`release`.

        These are the live allocations whose pairwise disjointness the
        aliasing verifier proves (a reissued-while-live arena buffer would
        silently corrupt an intermediate).
        """
        return tuple(self._owned)

    def release(self) -> None:
        """Return every arena buffer this program owns to the pool."""
        for buf in self._owned:
            self._arena.release(buf)
        self._owned = []
        self._stages = []


# --------------------------------------------------------------------------- #
# program construction
# --------------------------------------------------------------------------- #
def _matricize_static(static: BlockSparseTensor, slots, dtype) -> List[np.ndarray]:
    """The static operand's 2-D views, cast to the stage's GEMM dtype."""
    mats = []
    for slot in slots:
        blk = static.blocks[slot.key]
        if slot.perm is not None:
            blk = np.transpose(blk, slot.perm)
        mats.append(blk.reshape(slot.rows, slot.cols).astype(dtype, copy=False))
    return mats


def _build_stage(plan: ContractionPlan, stage: MatvecStage,
                 dyn: BlockSparseTensor, charge: StageCharge,
                 arena: WorkspaceArena, owned: List[np.ndarray],
                 prev_out_slot_of: Optional[Dict[tuple, int]],
                 prev_out_shapes: Optional[List[Tuple[int, ...]]],
                 out_dtype, is_final: bool) -> _CompiledStage:
    """Lower one planned contraction into gather/fill/GEMM lists."""
    st = _CompiledStage()
    st.plan = plan
    st.charge = charge
    st.out_dtype = out_dtype
    st.is_final = is_final

    static_is_a = stage.static_side == "a"
    sslots = plan.a_slots if static_is_a else plan.b_slots
    dslots = plan.b_slots if static_is_a else plan.a_slots
    smats = _matricize_static(stage.static, sslots, out_dtype)
    st.dmats = [None] * len(dslots)
    st.result_mats = [None] * len(plan.out_specs)

    def dyn_src(slot):
        """Source handle + source dense shape of a dynamic slot's block."""
        if prev_out_slot_of is None:
            return slot.key, dyn.blocks[slot.key].shape
        idx = prev_out_slot_of[slot.key]
        return idx, prev_out_shapes[idx]

    # -- collect the per-slot copy destinations ---------------------------- #
    # dests[slot] = list of (dst_2d_view, owner_buffer); singles_use[slot]
    # marks a slot consumed directly as a GEMM operand
    dests: Dict[int, List[tuple]] = {}
    singles_use: Dict[int, bool] = {}

    def _acquire(shape, dtype):
        buf = arena.acquire(shape, dtype)
        owned.append(buf)
        return buf

    units_plan: List[tuple] = []   # (lhs_ref, rhs_ref, out_slots, out_shape)

    for grp in plan.fused_groups:
        spec = plan.out_specs[grp.out_slot]
        m, n = spec.rows, spec.cols
        widths = [plan.a_slots[i].cols for i in grp.a_slots]
        ktot = sum(widths)
        if static_is_a:
            lhs = _acquire((m, ktot), out_dtype)
            np.concatenate([smats[i] for i in grp.a_slots], axis=1, out=lhs)
            off = 0
            for i, w in zip(grp.a_slots, widths):
                st.refreshes.append((lhs[:, off:off + w], sslots[i].key,
                                     sslots[i].perm, lhs))
                off += w
            panel = _acquire((ktot, n), out_dtype)
            off = 0
            for i, w in zip(grp.b_slots, widths):
                dests.setdefault(i, []).append((panel[off:off + w, :], panel))
                off += w
            units_plan.append((("c", lhs), ("c", panel), (grp.out_slot,),
                               (m, n)))
        else:
            rhs = _acquire((ktot, n), out_dtype)
            np.concatenate([smats[i] for i in grp.b_slots], axis=0, out=rhs)
            off = 0
            for i, w in zip(grp.b_slots, widths):
                st.refreshes.append((rhs[off:off + w, :], sslots[i].key,
                                     sslots[i].perm, rhs))
                off += w
            panel = _acquire((m, ktot), out_dtype)
            off = 0
            for i, w in zip(grp.a_slots, widths):
                dests.setdefault(i, []).append((panel[:, off:off + w], panel))
                off += w
            units_plan.append((("c", panel), ("c", rhs), (grp.out_slot,),
                               (m, n)))

    for batch in plan.batch_groups:
        entries = batch.entries
        if len(entries) == 1:
            so, sa, sb = entries[0]
            spec = plan.out_specs[so]
            # a single static matrix is copied into its own arena buffer
            # rather than referenced as a view of the operand tensor: a
            # sweep-persistent refresh must be able to re-matricize a new
            # operand without the old tensor's memory leaking into the GEMM
            si = sa if static_is_a else sb
            sbuf = _acquire(smats[si].shape, out_dtype)
            sbuf[...] = smats[si]
            st.refreshes.append((sbuf, sslots[si].key, sslots[si].perm, sbuf))
            if static_is_a:
                lhs_ref = ("c", sbuf)
                rhs_ref = ("d", sb)
                singles_use[sb] = True
            else:
                lhs_ref = ("d", sa)
                rhs_ref = ("c", sbuf)
                singles_use[sa] = True
            units_plan.append((lhs_ref, rhs_ref, (so,),
                               (spec.rows, spec.cols)))
            continue
        nb = len(entries)
        spec0 = plan.out_specs[entries[0][0]]
        m, n = spec0.rows, spec0.cols
        k = plan.a_slots[entries[0][1]].cols
        if static_is_a:
            sstack = _acquire((nb, m, k), out_dtype)
            np.stack([smats[sa] for _, sa, _ in entries], out=sstack)
            for j, (_, sa, _) in enumerate(entries):
                st.refreshes.append((sstack[j], sslots[sa].key,
                                     sslots[sa].perm, sstack))
            dstack = _acquire((nb, k, n), out_dtype)
            for j, (_, _, sb) in enumerate(entries):
                dests.setdefault(sb, []).append((dstack[j], dstack))
            units_plan.append((("c", sstack), ("c", dstack),
                               tuple(so for so, _, _ in entries), (nb, m, n)))
        else:
            sstack = _acquire((nb, k, n), out_dtype)
            np.stack([smats[sb] for _, _, sb in entries], out=sstack)
            for j, (_, _, sb) in enumerate(entries):
                st.refreshes.append((sstack[j], sslots[sb].key,
                                     sslots[sb].perm, sstack))
            dstack = _acquire((nb, m, k), out_dtype)
            for j, (_, sa, _) in enumerate(entries):
                dests.setdefault(sa, []).append((dstack[j], dstack))
            units_plan.append((("c", dstack), ("c", sstack),
                               tuple(so for so, _, _ in entries), (nb, m, n)))

    # -- lower the dynamic slots into gathers/fills ------------------------ #
    for i, slot in enumerate(dslots):
        src, src_shape = dyn_src(slot)
        slot_dests = dests.get(i, [])
        used_single = singles_use.get(i, False)
        if slot.perm is None:
            # contiguous source: 2-D view, no staging copy needed
            st.gathers.append(("direct", i, src, slot.rows, slot.cols))
            for dst2d, _owner in slot_dests:
                st.fills.append((dst2d, i))
            continue
        perm_shape = tuple(src_shape[p] for p in slot.perm)
        if not used_single and len(slot_dests) == 1:
            # single consumer: write the permuted block straight into the
            # panel/stack segment through a pre-carved view
            dst2d, owner = slot_dests[0]
            view = _carved_view(dst2d, perm_shape, owner)
            if view is not None:
                st.gathers.append(("copy", view, src, src_shape, slot.perm))
                continue
        # staged: one persistent (rows, cols) buffer, permuted view prebuilt
        stage_buf = _acquire((slot.rows, slot.cols), out_dtype)
        st.dmats[i] = stage_buf
        st.gathers.append(("copy", stage_buf.reshape(perm_shape), src,
                           src_shape, slot.perm))
        for dst2d, _owner in slot_dests:
            st.fills.append((dst2d, i))

    # -- allocate outputs -------------------------------------------------- #
    if is_final:
        offset = 0
        for lhs, rhs, out_slots, out_shape in units_plan:
            st.units.append(("gemm", lhs, rhs, (offset, out_shape)))
            if len(out_slots) == 1:
                so = out_slots[0]
                spec = plan.out_specs[so]
                st.final_blocks.append((spec.key, offset,
                                        spec.rows * spec.cols, spec.shape))
                offset += spec.rows * spec.cols
            else:
                per = int(math.prod(out_shape[1:]))
                for j, so in enumerate(out_slots):
                    spec = plan.out_specs[so]
                    st.final_blocks.append((spec.key, offset + j * per,
                                            per, spec.shape))
                offset += int(math.prod(out_shape))
        st.final_size = offset
    else:
        for lhs, rhs, out_slots, out_shape in units_plan:
            out = _acquire(out_shape, out_dtype)
            st.units.append(("gemm", lhs, rhs, out))
            if len(out_slots) == 1:
                st.result_mats[out_slots[0]] = out
            else:
                for j, so in enumerate(out_slots):
                    st.result_mats[so] = out[j]
    return st


class SweepProgramCache:
    """Sweep-persistent compiled programs, keyed by bond and direction.

    The sweep drivers visit the same bonds over and over; their effective
    Hamiltonians keep the same block structure from sweep to sweep once the
    schedule stops growing the bond dimension.  This cache owns one
    :class:`WorkspaceArena` for the whole run and keeps every bond's
    compiled :class:`MatvecProgram` alive across visits:

    * **refresh** — a re-visit whose :func:`stage_signature` matches the
      cached entry re-matricizes the new static operands into the existing
      fused panels in place (:meth:`MatvecProgram.refresh`) and serves the
      cached programs: no retrace, no recompile, no arena churn;
    * **retrace** — a signature change (bond growth, a dtype switch from
      the mixed-precision schedule, an environment rebuild with different
      sectors) releases the stale programs back to the shared arena and the
      next Davidson solve traces and compiles afresh, recycling the freed
      panels;
    * **shared arena** — buffers released at one bond serve the next, and
      after the warm-up sweeps steady-state visits perform no fresh
      allocations at all (``arena.acquires == arena.reuses`` deltas).

    Refreshed programs execute through the ordinary
    :meth:`MatvecProgram.execute` path, so cost accounting (plan-cache
    hits, ``charge_compiled_stage`` traffic, flop counts) is replayed
    exactly as for freshly compiled programs.
    """

    def __init__(self, arena: Optional[WorkspaceArena] = None):
        self.arena = arena if arena is not None else WorkspaceArena()
        #: bond key -> (stage signature, {input key -> MatvecProgram})
        self._entries: Dict[object, tuple] = {}
        self.binds = 0      #: bond visits served (refresh or fresh entry)
        self.compiles = 0   #: programs compiled into the cache
        self.refreshes = 0  #: programs refreshed in place on a re-visit
        self.retraces = 0   #: programs invalidated by a signature change

    @classmethod
    def for_backend(cls, backend) -> "SweepProgramCache":
        """A cache whose arena draws from the backend's block-ops allocator.

        The process executor's ops hand out shared-memory buffers here, so
        sweep-persistent panels stay addressable by the worker processes —
        the same wiring :class:`repro.backends.base.ContractionBackend` uses
        for its own per-backend arena.
        """
        ops = resolve_block_ops(getattr(backend, "block_ops", None))
        return cls(arena=WorkspaceArena(allocator=ops.allocator()))

    def bind(self, bond_key, signature: tuple,
             statics: Sequence[BlockSparseTensor]) -> Dict[tuple, "MatvecProgram"]:
        """The live program table for one bond visit.

        Matching signature: every cached program is refreshed with the new
        static operands and the existing table is returned.  Mismatch (or
        first visit): stale programs are released to the shared arena and a
        fresh table is installed.  The compiler inserts newly compiled
        programs directly into the returned dict, so they persist for the
        bond's next visit.
        """
        self.binds += 1
        entry = self._entries.get(bond_key)
        if entry is not None:
            cached_sig, programs = entry
            if cached_sig == signature:
                with trace.span("program-refresh", "matvec",
                                programs=len(programs)):
                    for prog in programs.values():
                        prog.refresh(statics)
                        self.refreshes += 1
                return programs
            if programs:
                trace.instant("program-retrace", "matvec",
                              programs=len(programs))
            for prog in programs.values():
                prog.release()
                self.retraces += 1
        programs: Dict[tuple, MatvecProgram] = {}
        self._entries[bond_key] = (signature, programs)
        return programs

    def iter_programs(self):
        """Every live program across all bonds (for the aliasing verifier)."""
        out = []
        for _sig, programs in self._entries.values():
            out.extend(programs.values())
        return tuple(out)

    @property
    def programs(self) -> int:
        """Number of live programs across all cached bonds."""
        return sum(len(p) for _s, p in self._entries.values())

    def release_all(self) -> None:
        """Release every cached program's buffers and drop all entries."""
        for _sig, programs in self._entries.values():
            for prog in programs.values():
                prog.release()
        self._entries.clear()

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict counters plus the shared arena's counters."""
        return {"binds": self.binds, "compiles": self.compiles,
                "refreshes": self.refreshes, "retraces": self.retraces,
                "programs": self.programs, "arena": self.arena.snapshot()}


class MatvecCompiler:
    """Per-bond compiler and program cache for one effective Hamiltonian.

    The first application of each input signature runs the ordinary chained
    ``backend.contract`` path (identical charging, plan-cache lookups and
    layout-tracker traffic) while tracing the plans and intermediates; the
    trace is lowered into a :class:`MatvecProgram` that serves every further
    application at that bond.  ``release()`` hands the programs' arena
    buffers back for the next bond step.

    With a :class:`SweepProgramCache` (``cache``/``bond_key``), the program
    table is the cache's sweep-persistent entry instead: binding refreshes
    or invalidates the cached programs against the current static operands,
    new compiles land in the cache, and ``release()`` leaves the programs
    alive for the bond's next visit.
    """

    def __init__(self, backend, stages: Sequence[MatvecStage], *,
                 enabled: bool = True,
                 arena: Optional[WorkspaceArena] = None,
                 cache: Optional[SweepProgramCache] = None,
                 bond_key=None):
        self.backend = backend
        self.stages = list(stages)
        supported = getattr(backend, "supports_compiled_matvec",
                            lambda: False)()
        self.enabled = bool(enabled) and supported
        self.program_cache = cache if self.enabled else None
        self.bond_key = bond_key
        if self.program_cache is not None:
            # sweep-owned arena: buffers released at one bond serve the next
            self.arena = self.program_cache.arena
        else:
            self.arena = arena if arena is not None else getattr(
                backend, "workspace_arena", None) or WorkspaceArena()
        self._programs: Dict[tuple, MatvecProgram] = {}
        self._bound = self.program_cache is None

    # -- chained (trace / fallback) path ----------------------------------- #
    def _chained(self, x: BlockSparseTensor,
                 record: Optional[List[BlockSparseTensor]] = None
                 ) -> BlockSparseTensor:
        c = self.backend.contract
        t = x
        for stg in self.stages:
            a, b = (stg.static, t) if stg.static_side == "a" else (t, stg.static)
            t = c(a, b, axes=stg.axes, operand_keys=stg.operand_keys,
                  out_key=stg.out_key)
            if record is not None:
                record.append(t)
        return t

    def _try_compile(self, x: BlockSparseTensor,
                     intermediates: List[BlockSparseTensor]
                     ) -> Optional[MatvecProgram]:
        cache = self.backend.plan_cache
        if cache is None:
            return None
        ops = resolve_block_ops(getattr(self.backend, "block_ops", None))
        owned: List[np.ndarray] = []
        compiled: List[_CompiledStage] = []
        prev_out_slot_of: Optional[Dict[tuple, int]] = None
        prev_out_shapes: Optional[List[Tuple[int, ...]]] = None
        dyn: BlockSparseTensor = x
        in_dtype = x.dtype
        total_flops = 0.0
        try:
            for stg, out in zip(self.stages, intermediates):
                if not isinstance(out, BlockSparseTensor):
                    raise _Uncompilable  # scalar intermediate
                a, b = (stg.static, dyn) if stg.static_side == "a" \
                    else (dyn, stg.static)
                plan = cache.peek(a, b, stg.axes)
                if plan is None:
                    plan = build_plan(a, b, stg.axes)
                if not plan.pairs or plan.scalar_output:
                    raise _Uncompilable
                out_dtype = ops.result_type(in_dtype, stg.static.dtype)
                charge = _stage_charge(plan, a, b, stg)
                st = _build_stage(plan, stg, dyn, charge, self.arena, owned,
                                  prev_out_slot_of, prev_out_shapes,
                                  out_dtype,
                                  is_final=(out is intermediates[-1]))
                compiled.append(st)
                total_flops += plan.total_flops
                prev_out_slot_of = {spec.key: i
                                    for i, spec in enumerate(plan.out_specs)}
                prev_out_shapes = [spec.shape for spec in plan.out_specs]
                dyn = out
                in_dtype = out_dtype
        except _Uncompilable:
            for buf in owned:
                self.arena.release(buf)
            return None
        last = compiled[-1].plan
        return MatvecProgram(compiled, self.arena, owned, last.out_indices,
                             last.out_flux, np.dtype(in_dtype), total_flops)

    # -- sweep-persistent cache binding ------------------------------------- #
    def _ensure_bound(self) -> None:
        """Bind the program table to the sweep cache's entry for this bond."""
        if self._bound:
            return
        ops = resolve_block_ops(getattr(self.backend, "block_ops", None))
        signature = stage_signature(self.stages, ops)
        statics = [stg.static for stg in self.stages]
        self._programs = self.program_cache.bind(self.bond_key, signature,
                                                 statics)
        self._bound = True

    # -- public API --------------------------------------------------------- #
    def apply(self, x: BlockSparseTensor) -> BlockSparseTensor:
        """Apply the chain to ``x``, compiling on first sight of a signature."""
        counters = getattr(self.backend, "matvec_counters", None)
        if not self.enabled:
            if counters is not None:
                counters.traced_applies += 1
            with trace.span("matvec", "matvec", mode="chained"):
                return self._chained(x)
        self._ensure_bound()
        key = (tensor_signature(x), np.dtype(x.dtype).str)
        prog = self._programs.get(key)
        if prog is not None:
            if counters is not None:
                counters.compiled_applies += 1
            return prog.execute(x, self.backend)
        intermediates: List[BlockSparseTensor] = []
        with trace.span("matvec", "matvec", mode="trace"):
            y = self._chained(x, record=intermediates)
        if counters is not None:
            counters.traced_applies += 1
        with trace.span("matvec-compile", "matvec"):
            prog = self._try_compile(x, intermediates)
        if prog is not None:
            self._programs[key] = prog
            if counters is not None:
                counters.compiles += 1
            if self.program_cache is not None:
                self.program_cache.compiles += 1
        return y

    def release(self) -> None:
        """Invalidate every compiled program, recycling its buffers.

        Called when the bond's Davidson solve is over (the SVD is about to
        rewrite the wavefunction and, later, the environments): the static
        views are stale from that point on and must not be reused.

        With a sweep cache attached the programs are *not* released — they
        persist in the cache and the next visit of this bond refreshes (or
        invalidates) them against the rewritten operands.
        """
        if self.program_cache is not None:
            self._programs = {}
            self._bound = False
            return
        counters = getattr(self.backend, "matvec_counters", None)
        for prog in self._programs.values():
            prog.release()
            if counters is not None:
                counters.releases += 1
        self._programs.clear()

    @property
    def programs(self) -> int:
        """Number of live compiled programs (one per input signature)."""
        return len(self._programs)

    def iter_programs(self):
        """The live compiled programs (for the static aliasing verifier)."""
        return tuple(self._programs.values())


class _Uncompilable(Exception):
    """Internal: the traced chain cannot be lowered (degenerate structure)."""
