"""Harness-side spans around the public entry points of each layer.

One table (:data:`ENTRIES`) names the calls into every layer of the program.
Inside :func:`installed` each of them is replaced by a timing wrapper —
class-level for methods (including subclasses that override them), and at
every ``repro`` module that holds a ``from ... import`` reference for plain
functions — and the originals are put back on exit, also when the wrapped run
raises.  Nothing under ``src/`` is edited and the in-program ``obs.trace``
recorder is never installed: the traced run differs from an untraced one only
by these wrappers, so ``traced wall / untraced wall - 1`` is their overhead.

Two kinds of entry:

* a *span* entry appends ``(entry, t0, t1, parent)`` to in-memory lists;
* a *leaf* entry (the dense-block kernels and the cost-world charges, called
  ~10^6 times per run and calling nothing that is wrapped) only accumulates
  ``(calls, seconds)`` against the span that was open when it ran.

:func:`summarize` turns both into ``calls`` / ``total_s`` / ``self_s`` per
entry, where a span's self time is its duration minus the time its child
spans and leaves cover, so the self times of all entries sum to the duration
of the root span.  This module imports nothing from ``repro`` until
:func:`installed` runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ALL = "all"


@dataclass(frozen=True)
class Entry:
    """One row of the layer table.

    ``targets`` are ``"module:function"``, ``"module:Class.method"`` or
    ``"module:Class.prefix*"`` (every method whose name starts with the
    prefix).  ``reach`` names the workloads whose traced run must call the
    entry at least once (``ALL`` or a tuple of workload names); on every
    other workload it must not be called at all when ``exclusive`` is set.
    ``moves`` is the prediction: which end-to-end metric a faster entry
    should move, on which workload.
    """

    name: str
    targets: Tuple[str, ...]
    moves: str
    leaf: bool = False
    reach: object = ALL
    exclusive: bool = False


ENTRIES: Tuple[Entry, ...] = (
    Entry("exp.runner.execute_run", ("repro.exp.runner:execute_run",),
          "setup_s everywhere (self = initial state, backend and report "
          "assembly)"),
    Entry("models.build_model", ("repro.models.registry:build_model",),
          "setup_s everywhere"),
    Entry("mps.build_mpo", ("repro.mps.autompo:build_mpo",),
          "setup_s everywhere"),
    Entry("dmrg.sweep.dmrg", ("repro.dmrg.sweep:dmrg",),
          "self = driver-loop Python: tail_sweep_s on spins-steady"),
    Entry("dmrg.sweep.two_site_tensor",
          ("repro.dmrg.sweep:two_site_tensor",),
          "tail_sweep_s on spins-steady"),
    Entry("dmrg.davidson.davidson", ("repro.dmrg.davidson:davidson",),
          "self = vector algebra + subspace eigh: tail_sweep_s on "
          "spins-steady, wall_s on spins-ramp"),
    Entry("dmrg.environments.extend",
          ("repro.dmrg.environments:extend_left",
           "repro.dmrg.environments:extend_right"),
          "tail_sweep_s on spins-steady"),
    Entry("symmetry.matvec.apply",
          ("repro.symmetry.matvec:MatvecCompiler.apply",),
          "self = trace + lowering (compile): wall_s on electrons-ramp and "
          "spins-ramp; ~0 in the spins-steady tail"),
    Entry("symmetry.matvec.execute",
          ("repro.symmetry.matvec:MatvecProgram.execute",),
          "self = gather/permute/slot-map glue: tail_sweep_s on spins-ramp "
          "and spins-steady"),
    Entry("symmetry.matvec.bind",
          ("repro.symmetry.matvec:SweepProgramCache.bind",),
          "refresh/invalidate: tail_sweep_s on spins-steady"),
    Entry("symmetry.planner.build_plan",
          ("repro.symmetry.planner:build_plan",),
          "wall_s on electrons-ramp"),
    Entry("symmetry.planner.lookup",
          ("repro.symmetry.planner:PlanCache.lookup",),
          "self = operand signatures + cache probe: wall_s on "
          "electrons-ramp"),
    Entry("symmetry.engine.execute",
          ("repro.symmetry.engine:execute_plan",
           "repro.symmetry.engine:execute_cached"),
          "self = per-block dispatch: wall_s on electrons-ramp"),
    Entry("symmetry.blockops.matmul",
          ("repro.symmetry.blockops:BlockOps.matmul",),
          "tail_sweep_s on spins-ramp; predicted flat on electrons-ramp",
          leaf=True),
    Entry("symmetry.blockops.pack",
          ("repro.symmetry.blockops:BlockOps.concat",
           "repro.symmetry.blockops:BlockOps.stack",
           "repro.symmetry.blockops:BlockOps.prepare"),
          "tail_sweep_s on spins-ramp; predicted flat on electrons-ramp",
          leaf=True),
    Entry("symmetry.blockops.factorize",
          ("repro.symmetry.blockops:BlockOps.svd",
           "repro.symmetry.blockops:BlockOps.qr",
           "repro.symmetry.blockops:BlockOps.eigh",
           "repro.symmetry.blockops:BlockOps.svd_many",
           "repro.symmetry.blockops:BlockOps.qr_many"),
          "tail_sweep_s on spins-ramp; predicted flat on electrons-ramp",
          leaf=True),
    Entry("backends.contract",
          ("repro.backends.base:ContractionBackend.contract",),
          "self = cost-world dispatch around the planner: wall_s on "
          "spins-dist"),
    Entry("backends.svd", ("repro.backends.base:ContractionBackend.svd",),
          "self = block grouping + truncation: tail_sweep_s on spins-steady"),
    Entry("backends.charge_compiled_stage",
          ("repro.backends.base:ContractionBackend.charge_compiled_stage",),
          "self = charge replay per compiled stage: wall_s on spins-dist"),
    Entry("ctf.world.charge", ("repro.ctf.world:SimWorld.charge_*",),
          "wall_s on spins-dist; 0 calls on the three direct workloads",
          leaf=True, reach=("spins-dist",), exclusive=True),
    Entry("dmrg.checkpoint.save",
          ("repro.dmrg.checkpoint:save_checkpoint",),
          "wall_s on electrons-ramp only",
          reach=("electrons-ramp",), exclusive=True),
)

#: interpreter boot, imports and wrapper installation of the traced child —
#: not a call into the program, so it has no row in :data:`ENTRIES`; the
#: child records it as one root span so the self times sum to the wall
STARTUP = "host.startup"


def entry_names() -> List[str]:
    """Every entry that yields ``.calls`` / ``.total_s`` / ``.self_s``."""
    return [STARTUP] + [e.name for e in ENTRIES]


#: ``(name, unit, better)`` of the counters reported beside the entry table.
#: They are read at the same boundaries from the run report, ``perf.flops``,
#: the child's ``getrusage`` and the calibration; ``tail`` ones cover only the
#: workload's tail-sweep window.  Counts repeat exactly from run to run.
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("dmrg.checkpoint.save.bytes", "bytes", "lower"),
    ("symmetry.matvec.compiles", "count", "lower"),
    ("symmetry.matvec.refreshes", "count", "higher"),
    ("symmetry.matvec.retraces", "count", "lower"),
    ("symmetry.matvec.refresh_ratio", "ratio", "higher"),
    ("symmetry.matvec.compiled_applies", "count", "higher"),
    ("symmetry.matvec.traced_applies", "count", "lower"),
    ("symmetry.matvec.tail.compiles", "count", "lower"),
    ("symmetry.matvec.tail.refreshes", "count", "higher"),
    ("symmetry.matvec.tail.retraces", "count", "lower"),
    ("symmetry.matvec.arena.acquires", "count", "lower"),
    ("symmetry.matvec.arena.reuses", "count", "higher"),
    ("symmetry.matvec.arena.allocated_bytes", "bytes", "lower"),
    ("symmetry.matvec.arena.reuse_ratio", "ratio", "higher"),
    ("symmetry.matvec.arena.tail.allocated_bytes", "bytes", "lower"),
    ("symmetry.planner.hits", "count", "higher"),
    ("symmetry.planner.misses", "count", "lower"),
    ("symmetry.planner.hit_ratio", "ratio", "higher"),
    ("dmrg.davidson.matvecs", "count", "lower"),
    ("dmrg.davidson.iterations", "count", "lower"),
    ("dmrg.sweep.bonds", "count", "lower"),
    ("perf.flops.gemm", "flop", "lower"),
    ("perf.flops.svd", "flop", "lower"),
    ("perf.flops.other", "flop", "lower"),
    ("perf.flops.rate_gflops", "GFlop/s", "higher"),
    ("ctf.world.modelled_s", "s", "lower"),
    ("ctf.layout.moves", "count", "lower"),
    ("ctf.layout.reuses", "count", "higher"),
    ("host.cpu_user_s", "s", "lower"),
    ("host.cpu_sys_s", "s", "lower"),
    ("host.minor_faults", "count", "lower"),
    ("host.gemm_peak_gflops", "GFlop/s", "higher"),
    ("host.mem_bw_gbs", "GB/s", "higher"),
    ("symmetry.blockops.matmul.frac_of_peak", "ratio", "higher"),
    ("harness.coverage", "ratio", "higher"),
    ("harness.trace_overhead_frac", "ratio", "lower"),
    ("harness.unresolved_entries", "count", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in print order."""
    out = []
    for name in entry_names():
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.total_s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    return out + list(COUNTERS)


# --------------------------------------------------------------------------- #
# recording
# --------------------------------------------------------------------------- #
class Recorder:
    """Parent-linked spans and leaf accumulators of one traced run.

    Spans live in four parallel lists indexed by span id (a parent's id is
    always smaller than its children's).  Only the thread that created the
    recorder records; calls from any other thread run unwrapped, so a
    background thread cannot corrupt the parent chain.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.entry: List[int] = []
        self.parent: List[int] = []
        self.t0: List[float] = []
        self.t1: List[float] = []
        self.cur = -1
        #: (open span id, entry id) -> [calls, seconds]
        self.leaves: Dict[Tuple[int, int], List[float]] = {}
        self.in_leaf = False
        self.owner = threading.get_ident()

    def add_span(self, entry: int, t0: float, t1: float,
                 parent: int = -1) -> int:
        """Append a finished span (for spans timed outside a wrapper)."""
        self.entry.append(entry)
        self.parent.append(parent)
        self.t0.append(t0)
        self.t1.append(t1)
        return len(self.entry) - 1

    def span_wrapper(self, eid: int, fn: Callable,
                     after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record one span per call.

        ``after(result)`` runs after a call that returned, outside the span,
        for counts read off the result (Davidson matvecs, checkpoint bytes).
        """
        ent, par, t0s, t1s = self.entry, self.parent, self.t0, self.t1
        clock, get_ident = self.clock, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() != self.owner:
                return fn(*args, **kwargs)
            i = len(ent)
            ent.append(eid)
            par.append(self.cur)
            t1s.append(0.0)
            self.cur = i
            t0s.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                self.cur = par[i]
            if after is not None:
                after(out)
            return out

        return wrapper

    def leaf_wrapper(self, eid: int, fn: Callable) -> Callable:
        """``fn`` wrapped to add its time to the open span's leaf account.

        A leaf reached from inside another leaf (``svd_many`` calling
        ``svd`` calling ``prepare``) runs unwrapped: the outer one already
        covers it.
        """
        leaves, clock, get_ident = self.leaves, self.clock, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_leaf or get_ident() != self.owner:
                return fn(*args, **kwargs)
            self.in_leaf = True
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t
                self.in_leaf = False
                acc = leaves.get((self.cur, eid))
                if acc is None:
                    leaves[(self.cur, eid)] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        return wrapper


# --------------------------------------------------------------------------- #
# resolving and installing
# --------------------------------------------------------------------------- #
def _overriding_classes(cls: type, attr: str) -> List[type]:
    """``cls`` and every subclass that defines ``attr`` itself."""
    out, stack, seen = [], [cls], set()
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        if isinstance(c.__dict__.get(attr), types.FunctionType):
            out.append(c)
        stack.extend(c.__subclasses__())
    return out


def resolve(target: str) -> List[Tuple[object, str, Callable]]:
    """Every ``(owner, attribute, original)`` a target string stands for.

    Raises ``ImportError``/``AttributeError`` when the target is gone (a
    later change renamed it); the caller reports the entry as unresolved.
    """
    modname, _, path = target.partition(":")
    module = importlib.import_module(modname)
    if "." not in path:
        fn = getattr(module, path)
        if not isinstance(fn, types.FunctionType):
            raise AttributeError(f"{target} is not a plain function")
        # every repro module that did ``from ... import <fn>`` holds its own
        # reference; patch them all so no call site escapes the wrapper
        return [(mod, name, fn)
                for modkey, mod in sorted(sys.modules.items())
                if mod is not None and modkey.split(".")[0] == "repro"
                for name, val in sorted(vars(mod).items()) if val is fn]
    clsname, _, attr = path.partition(".")
    cls = getattr(module, clsname)
    if attr.endswith("*"):
        attrs = sorted(a for a, v in vars(cls).items()
                       if a.startswith(attr[:-1])
                       and isinstance(v, types.FunctionType))
    else:
        attrs = [attr]
    sites = [(c, a, c.__dict__[a])
             for a in attrs for c in _overriding_classes(cls, a)]
    if not sites:
        raise AttributeError(f"{target} matches no method")
    return sites


@contextmanager
def installed(rec: Recorder, entries: Sequence[Entry] = ENTRIES,
              after: Optional[Dict[str, Callable]] = None
              ) -> Iterator[List[str]]:
    """Wrap every entry point for the duration of the block.

    Entry ids are ``1 + position in entries`` (id 0 is :data:`STARTUP`).
    Yields the names of entries that did not resolve.  ``after`` maps entry
    names to result hooks (see :meth:`Recorder.span_wrapper`).
    """
    after = after or {}
    patched: List[Tuple[object, str, Callable]] = []
    unresolved: List[str] = []
    try:
        for eid, entry in enumerate(entries, start=1):
            try:
                sites = [s for t in entry.targets for s in resolve(t)]
            except (ImportError, AttributeError):
                unresolved.append(entry.name)
                continue
            wrappers: Dict[int, Callable] = {}
            for owner, attr, orig in sites:
                wrapper = wrappers.get(id(orig))
                if wrapper is None:
                    wrapper = (rec.leaf_wrapper(eid, orig) if entry.leaf else
                               rec.span_wrapper(eid, orig,
                                                after.get(entry.name)))
                    wrappers[id(orig)] = wrapper
                setattr(owner, attr, wrapper)
                patched.append((owner, attr, orig))
        yield unresolved
    finally:
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)


# --------------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------------- #
def span_self_times(parent: Sequence[int], t0: Sequence[float],
                    t1: Sequence[float],
                    leaves: Optional[Dict[Tuple[int, int], Sequence[float]]]
                    = None) -> List[float]:
    """Self time of every span: duration minus what its children cover."""
    covered = [0.0] * len(parent)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += t1[i] - t0[i]
    for (p, _eid), (_calls, seconds) in (leaves or {}).items():
        if p >= 0:
            covered[p] += seconds
    return [t1[i] - t0[i] - covered[i] for i in range(len(parent))]


def summarize(rec: Recorder, names: Sequence[str]
              ) -> Dict[str, Dict[str, float]]:
    """``{entry name: {calls, total_s, self_s}}`` for entry ids ``0..``.

    ``calls`` and ``total_s`` count only outermost spans of an entry (a span
    nested in another span of the same entry — ``execute_cached`` calling
    ``execute_plan``, an overriding ``svd`` calling ``super().svd`` — is one
    call of the layer), while ``self_s`` sums over all of them, so
    ``sum(self_s)`` over every entry equals the total duration of the root
    spans.
    """
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
           for name in names}
    selfs = span_self_times(rec.parent, rec.t0, rec.t1, rec.leaves)
    for i, eid in enumerate(rec.entry):
        row = out[names[eid]]
        row["self_s"] += selfs[i]
        p = rec.parent[i]
        while p >= 0 and rec.entry[p] != eid:
            p = rec.parent[p]
        if p < 0:
            row["calls"] += 1
            row["total_s"] += rec.t1[i] - rec.t0[i]
    for (_p, eid), (calls, seconds) in rec.leaves.items():
        row = out[names[eid]]
        row["calls"] += calls
        row["total_s"] += seconds
        row["self_s"] += seconds
    return out
