"""Aliasing and buffer-liveness verifier for compiled matvec programs.

A :class:`~repro.symmetry.matvec.MatvecProgram` is a fully lowered pipeline:
every stage's GEMMs write through precomputed ``out=`` destination views
into buffers issued by a pooled
:class:`~repro.symmetry.matvec.WorkspaceArena`, and stage ``N+1`` reads
stage ``N``'s output matrices through integer slot maps.  A wrong slot map
or a pool bug that reissues a live buffer would not crash — it would
silently corrupt an operand mid-pipeline and surface, much later, as a
flaky numeric diff.

This module proves the memory discipline statically, per program:

* **disjoint outputs** — the GEMM units of a stage (which the threaded and
  process executors run concurrently) write pairwise non-overlapping
  destinations;
* **no destination aliases a live input** — a unit's ``out=`` view shares
  no memory with its own operands, with any other unit's constant operands
  (fused panels, batch stacks, matricized static blocks), with the stage's
  staged gather buffers, or with the previous stage's output matrices that
  this stage still reads;
* **no live arena reissue** — the buffers a program owns
  (:meth:`MatvecProgram.owned_buffers`) are pairwise disjoint: the arena
  never handed the same bytes out twice while both holders were live (and
  across the live programs of one compiler, via :func:`verify_compiler`);
* **final-buffer tiling** — the last stage packs every output block into
  one flat result buffer through ``(offset, size)`` slices; those slices
  must tile without overlap and stay in bounds;
* **refresh discipline** — the static-operand refresh views recorded at
  compile time (written by :meth:`MatvecProgram.refresh` when the
  sweep-persistent :class:`~repro.symmetry.matvec.SweepProgramCache`
  re-binds a bond) each write strictly inside the one arena buffer they
  name, never into any other buffer a live program owns, and never on top
  of another refresh destination of the same stage.

Memory questions are answered with numpy itself (``np.shares_memory``,
exact mode), so strided panel views, transposed scratch and
shared-memory-backed buffers are all handled.  ``tests/conftest.py`` hooks
:meth:`MatvecCompiler._try_compile` so every program compiled anywhere in
the tier-1 suite passes through :func:`verify_program`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["AliasFinding", "AliasReport", "verify_compiler",
           "verify_program", "verify_sample_programs"]


@dataclass(frozen=True)
class AliasFinding:
    """One aliasing violation, located to the exact stage and unit."""

    rule: str                 #: ``out-overlap`` | ``out-aliases-input`` |
                              #: ``live-input-overlap`` | ``arena-reissue`` |
                              #: ``final-overlap`` | ``refresh-aliases-live``
    stage: Optional[int]      #: stage index (``None`` for program-level)
    unit: Optional[int]       #: GEMM unit index within the stage
    detail: str

    def render(self) -> str:
        """One human-readable line naming the exact location."""
        where = "program" if self.stage is None else f"stage {self.stage}"
        if self.unit is not None:
            where += f", unit {self.unit}"
        return f"{self.rule} at {where}: {self.detail}"


@dataclass
class AliasReport:
    """Outcome of verifying one program (or a compiler's programs)."""

    stages: int = 0
    units_checked: int = 0
    buffers_checked: int = 0
    refresh_ops_checked: int = 0
    findings: List[AliasFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return not self.findings

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary for the ``repro analyze --json`` artifact."""
        return {"stages": self.stages, "units_checked": self.units_checked,
                "buffers_checked": self.buffers_checked,
                "refresh_ops_checked": self.refresh_ops_checked,
                "violations": [f.render() for f in self.findings],
                "ok": self.ok}

    def render(self) -> str:
        """Multi-line human-readable summary."""
        head = (f"program aliasing check: {self.stages} stages, "
                f"{self.units_checked} GEMM units, "
                f"{self.buffers_checked} arena buffers, "
                f"{self.refresh_ops_checked} refresh ops -> "
                f"{'OK' if self.ok else f'{len(self.findings)} violation(s)'}")
        return "\n".join([head] + [f"  {f.render()}" for f in self.findings])

    def merge(self, other: "AliasReport") -> None:
        """Accumulate another report's counters and findings."""
        self.stages += other.stages
        self.units_checked += other.units_checked
        self.buffers_checked += other.buffers_checked
        self.refresh_ops_checked += other.refresh_ops_checked
        self.findings.extend(other.findings)


def _shares(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact memory-overlap test (cheap bounds test first)."""
    if a.size == 0 or b.size == 0:
        return False
    if not np.may_share_memory(a, b):
        return False
    return bool(np.shares_memory(a, b))


def _byte_bounds(a: np.ndarray) -> Tuple[int, int]:
    """The half-open byte range ``[low, high)`` the elements of ``a`` span."""
    if a.size == 0:
        return (0, 0)
    low = high = a.__array_interface__["data"][0]
    for n, stride in zip(a.shape, a.strides):
        if stride < 0:
            low += (n - 1) * stride
        else:
            high += (n - 1) * stride
    return low, high + a.itemsize


def _intersecting(xs: Sequence[Tuple[int, int]],
                  ys: Optional[Sequence[Tuple[int, int]]] = None
                  ) -> List[Tuple[int, int]]:
    """Index pairs whose half-open intervals intersect, by one sort + sweep.

    With one sequence the pairs are ``(i, j)``, ``i < j``, within it; with
    two they are ``(i, j)`` for ``xs[i]`` meeting ``ys[j]``.  Empty
    intervals meet nothing.  The result is sorted, so callers report in the
    order a nested loop would.
    """
    events = [(lo, hi, 0, i) for i, (lo, hi) in enumerate(xs) if hi > lo]
    if ys is not None:
        events += [(lo, hi, 1, j) for j, (lo, hi) in enumerate(ys) if hi > lo]
    events.sort()
    open_: List[Tuple[int, int, int]] = []      # (hi, side, index)
    pairs: List[Tuple[int, int]] = []
    for lo, hi, side, idx in events:
        open_ = [e for e in open_ if e[0] > lo]
        for _hi, other_side, other in open_:
            if ys is None:
                pairs.append((min(idx, other), max(idx, other)))
            elif other_side != side:
                pairs.append((idx, other) if side == 0 else (other, idx))
        open_.append((hi, side, idx))
    pairs.sort()
    return pairs


def _sharing(xs: Sequence[np.ndarray],
             ys: Optional[Sequence[np.ndarray]] = None
             ) -> List[Tuple[int, int]]:
    """Index pairs of arrays that share memory, in nested-loop order.

    Equivalent to testing every pair with :func:`_shares`; the exact (and
    expensive) ``np.shares_memory`` runs only on the pairs whose byte bounds
    intersect, which a sweep over the sorted bounds finds without visiting
    the rest.
    """
    others = xs if ys is None else ys
    candidates = _intersecting(
        [_byte_bounds(a) for a in xs],
        None if ys is None else [_byte_bounds(b) for b in ys])
    return [(i, j) for i, j in candidates
            if np.shares_memory(xs[i], others[j])]


def _earlier(pairs: Sequence[Tuple[int, int]]) -> Dict[int, List[int]]:
    """Group sorted ``(i, j)`` pairs as ``{j: [i, ...]}``."""
    grouped: Dict[int, List[int]] = {}
    for i, j in pairs:
        grouped.setdefault(j, []).append(i)
    return grouped


def _resolve(ref, dmats) -> Optional[np.ndarray]:
    """The array a unit operand ref names, or ``None`` if external.

    ``("c", arr)`` consts resolve directly; ``("d", slot)`` dynamics
    resolve to the stage's staged buffer when one exists (``None`` means
    the slot is bound at execution time to a caller-owned input block).
    """
    kind, val = ref
    if kind == "c":
        return val
    return dmats[val]


def _stage_live_inputs(st, prev) -> List[np.ndarray]:
    """Every array the stage's GEMMs may read while its outputs are written.

    Constant unit operands (panels, stacks, static matrices), staged gather
    buffers, and — for stages past the first — the previous stage's output
    matrices referenced by this stage's gather maps.
    """
    live: List[np.ndarray] = []
    for _, lhs, rhs, _ in st.units:
        for ref in (lhs, rhs):
            arr = _resolve(ref, st.dmats)
            if arr is not None:
                live.append(arr)
    if prev is not None:
        for g in st.gathers:
            src = g[2]
            if isinstance(src, int) and prev.result_mats[src] is not None:
                live.append(prev.result_mats[src])
    # many units read the same panel: one entry per distinct array
    return list({id(arr): arr for arr in live}.values())


def verify_program(program) -> AliasReport:
    """Statically verify one compiled :class:`MatvecProgram`.

    Checks every stage's GEMM units for overlapping destinations and
    destination-aliases-live-input violations, the final stage's result
    tiling, and the program's owned arena buffers for reissue; returns an
    :class:`AliasReport` whose findings carry exact (stage, unit)
    locations.
    """
    report = AliasReport()
    stages = list(program.stages)
    report.stages = len(stages)
    owned: Sequence[np.ndarray] = program.owned_buffers()
    report.buffers_checked = len(owned)
    prev = None
    for si, st in enumerate(stages):
        report.units_checked += len(st.units)
        if st.is_final:
            _check_final_tiling(report, si, st)
        else:
            _check_stage_destinations(report, si, st, prev)
        _check_refreshes(report, si, st, owned)
        prev = st
    # arena liveness: no buffer issued twice while the program holds both
    for i, j in _sharing(owned):
        report.findings.append(AliasFinding(
            "arena-reissue", None, None,
            f"arena buffers #{i} {owned[i].shape} and #{j} "
            f"{owned[j].shape} share memory while both are live"))
    return report


def _check_final_tiling(report: AliasReport, si: int, st) -> None:
    """The final stage's ``(offset, size)`` result slices must tile."""
    spans = [(off, off + int(np.prod(shape)))
             for _, _, _, (off, shape) in st.units]
    overlaps = _earlier(_intersecting(spans))
    for ui, (lo, hi) in enumerate(spans):
        for prev_ui in overlaps.get(ui, ()):
            plo, phi = spans[prev_ui]
            report.findings.append(AliasFinding(
                "final-overlap", si, ui,
                f"result slice [{lo}, {hi}) overlaps "
                f"unit {prev_ui}'s [{plo}, {phi})"))
        if hi > st.final_size:
            report.findings.append(AliasFinding(
                "final-overlap", si, ui,
                f"result slice [{lo}, {hi}) exceeds the "
                f"final buffer of {st.final_size} elements"))
    # per-block packing must also tile without overlap
    blocks = sorted((off, size) for _, off, size, _ in st.final_blocks)
    for (o1, s1), (o2, _) in zip(blocks, blocks[1:]):
        if o1 + s1 > o2:
            report.findings.append(AliasFinding(
                "final-overlap", si, None,
                f"final block slices [{o1}, {o1 + s1}) and "
                f"[{o2}, ...) overlap"))


def _check_stage_destinations(report: AliasReport, si: int, st, prev) -> None:
    """A non-final stage's ``out=`` views against each other and its inputs."""
    outs = [unit[3] for unit in st.units]
    overlaps = _earlier(_sharing(outs))
    for ui, (_, lhs, rhs, out) in enumerate(st.units):
        # destination vs this unit's own operands
        for ref in (lhs, rhs):
            arr = _resolve(ref, st.dmats)
            if arr is not None and _shares(out, arr):
                report.findings.append(AliasFinding(
                    "out-aliases-input", si, ui,
                    f"out= destination {out.shape} shares memory with "
                    f"a {'constant' if ref[0] == 'c' else 'staged'} "
                    f"operand {arr.shape}"))
        # destination vs every earlier destination of this stage
        for prev_ui in overlaps.get(ui, ()):
            other = outs[prev_ui]
            report.findings.append(AliasFinding(
                "out-overlap", si, ui,
                f"destination {out.shape} overlaps unit "
                f"{prev_ui}'s destination {other.shape}; the "
                f"executors write these concurrently"))
    # destinations vs everything the stage still reads (first hit per unit)
    live = _stage_live_inputs(st, prev)
    reported = set()
    for ui, li in _sharing(outs, live):
        if ui not in reported:
            reported.add(ui)
            report.findings.append(AliasFinding(
                "live-input-overlap", si, ui,
                f"destination {outs[ui].shape} overlaps a live "
                f"input matrix {live[li].shape} of this stage"))


def _check_refreshes(report: AliasReport, si: int, st,
                     owned: Sequence[np.ndarray]) -> None:
    """Refresh discipline: each recorded refresh view must write inside the
    one arena buffer it names and nothing else that is live."""
    dsts = [dst for dst, _key, _perm, _owner in st.refreshes]
    report.refresh_ops_checked += len(dsts)
    owned_ids = {id(buf) for buf in owned}
    touched = _earlier(_sharing(owned, dsts))     # {refresh op: [buffer]}
    earlier = _earlier(_sharing(dsts))
    for ri, (dst, _key, _perm, owner) in enumerate(st.refreshes):
        if id(owner) not in owned_ids:
            report.findings.append(AliasFinding(
                "refresh-aliases-live", si, ri,
                f"refresh destination {dst.shape} names an owner buffer "
                f"{owner.shape} the program does not own"))
        elif not _shares(dst, owner):
            report.findings.append(AliasFinding(
                "refresh-aliases-live", si, ri,
                f"refresh destination {dst.shape} does not write into "
                f"its owner buffer {owner.shape}"))
        for bi in touched.get(ri, ()):
            if owned[bi] is not owner:
                report.findings.append(AliasFinding(
                    "refresh-aliases-live", si, ri,
                    f"refresh destination {dst.shape} overlaps a live "
                    f"arena buffer {owned[bi].shape} it does not own"))
        for prev_ri in earlier.get(ri, ()):
            report.findings.append(AliasFinding(
                "refresh-aliases-live", si, ri,
                f"refresh destination {dst.shape} overlaps refresh "
                f"op {prev_ri}'s destination {dsts[prev_ri].shape}"))


def verify_compiler(compiler) -> AliasReport:
    """Verify every live program of a compiler, plus cross-program liveness.

    Two programs cached under different input signatures are both live
    until ``release()``; their owned arena buffers must therefore be
    mutually disjoint as well.
    """
    report = AliasReport()
    programs = list(compiler.iter_programs())
    for program in programs:
        report.merge(verify_program(program))
    owned = [list(program.owned_buffers()) for program in programs]
    for i in range(len(programs)):
        for j in range(i + 1, len(programs)):
            for ai, bi in _sharing(owned[i], owned[j]):
                a, b = owned[i][ai], owned[j][bi]
                report.findings.append(AliasFinding(
                    "arena-reissue", None, None,
                    f"programs #{i} and #{j} both own live arena "
                    f"bytes ({a.shape} vs {b.shape})"))
    # a refresh of one program must never write into bytes another live
    # program reads: check every refresh view against every other
    # program's owned buffers
    for i, pi in enumerate(programs):
        dsts = [dst for st in pi.stages
                for dst, _key, _perm, _owner in st.refreshes]
        for j in range(len(programs)):
            if i == j:
                continue
            for di, bi in _sharing(dsts, owned[j]):
                report.findings.append(AliasFinding(
                    "refresh-aliases-live", None, None,
                    f"program #{i}'s refresh destination "
                    f"{dsts[di].shape} overlaps live arena bytes "
                    f"{owned[j][bi].shape} owned by program #{j}"))
    return report


def verify_sample_programs(*, nsites: int = 8, maxdim: int = 12,
                           models: Sequence[str] = ("heisenberg", "hubbard")
                           ) -> Dict[str, AliasReport]:
    """Compile and verify representative programs (``repro analyze`` target).

    Builds the mid-chain two-site effective Hamiltonian for each model,
    traces and compiles its matvec program, and runs
    :func:`verify_compiler` on the result; then releases the program into
    a sweep-persistent :class:`~repro.symmetry.matvec.SweepProgramCache`,
    re-binds it (exercising the in-place static-operand refresh) and
    verifies the refreshed program again, so both lifecycle paths are
    covered.  Returns one merged report per model.
    """
    from ..backends.base import DirectBackend
    from ..dmrg import EffectiveHamiltonian
    from ..perf.matvec_bench import heff_setup
    from ..symmetry.matvec import SweepProgramCache

    reports: Dict[str, AliasReport] = {}
    for model in models:
        left, w1, w2, right, x = heff_setup(nsites, maxdim, model=model)
        backend = DirectBackend()
        cache = SweepProgramCache.for_backend(backend)
        heff = EffectiveHamiltonian(left, (w1, w2), right, backend,
                                    compile=True, programs=cache)
        heff.apply(x)   # traced: compiles the program
        heff.apply(x)   # compiled: the program must actually serve
        reports[model] = verify_compiler(heff._get_compiler())
        heff.release()  # programs persist in the sweep cache
        # re-visit the bond: binding refreshes the cached program in place;
        # the refreshed program must satisfy the same memory discipline
        revisit = EffectiveHamiltonian(left, (w1, w2), right, backend,
                                       compile=True, programs=cache)
        revisit.apply(x)
        reports[model].merge(verify_compiler(revisit._get_compiler()))
        revisit.release()
        cache.release_all()
        if cache.refreshes == 0:
            reports[model].findings.append(AliasFinding(
                "refresh-aliases-live", None, None,
                f"{model}: re-binding the cached program performed no "
                f"refresh (retrace instead of refresh on a matching "
                f"signature)"))
    return reports
