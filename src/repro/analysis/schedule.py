"""Schedule race detector for the process executor's job streams.

The process executor (:mod:`repro.symmetry.procops`) ships every dispatched
kernel as a descriptor tuple; shared-memory operands travel as
``("shm", segment, offset, shape, strides, dtype)`` views into the slab
segments of :class:`repro.ctf.shm.ShmArena`.  Those descriptors *are* the
job's read/write sets: this module turns them into byte
:class:`Extent`\\ s, replays the executor's dispatch structure as a
happens-before relation, and reports any pair of potentially-concurrent
jobs whose accesses conflict.

**Happens-before model.**  Three orderings are encoded, mirroring how the
executor actually synchronizes:

* *parent-observed completion* — a job's effects are only known ordered
  once ``ProcessOps._wait`` has received its result over the worker's
  result pipe; the trace records that moment, so a job is "in flight" from
  submit until its completion is observed by the submitting thread;
* *group barriers* — the fan-out of a fused/batch group submits every job
  before any is waited on, so all jobs of a group overlap in flight and
  their write sets are checked pairwise, exactly the property the planner's
  disjoint-output-slot invariant promises;
* *refcount-recycled scratch* — handing a pooled scratch buffer back out
  (:meth:`ProcessOps._scratch_acquire` reusing a freed segment view) is
  recorded as a ``reuse`` event and checked against every in-flight job's
  extents: the refcount proof of deadness must agree with the schedule.

Two potentially-concurrent jobs conflict when a write extent of one
overlaps any extent of the other (write/write or read/write); overlapping
reads are fine.  Overlap is exact for the strided views the executor
generates (row slices, transposed panels, stack slices): each extent is
decomposed into its contiguous byte runs and the runs are intersected.

Two entry points:

* **offline** — run a workload with a recording :class:`ScheduleTrace`
  attached (``ProcessOps.attach_trace``), then :func:`check_trace` replays
  the events and returns a :class:`ScheduleReport`
  (:func:`trace_executor_schedule` packages this for ``repro analyze``);
* **online shadow checker** — ``REPRO_ANALYZE=shadow`` makes every
  :class:`~repro.symmetry.procops.ProcessOps` construct a
  ``ScheduleTrace(shadow=True)`` that raises :class:`ScheduleRaceError`
  the moment a conflicting submit or scratch reuse happens
  (``make test-process`` runs the whole executor suite this way).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Extent", "JobAccess", "RaceFinding", "ScheduleRaceError",
    "ScheduleReport", "ScheduleTrace", "check_trace", "extents_overlap",
    "trace_executor_schedule",
]

#: more contiguous runs than this and the overlap test falls back to the
#: conservative byte-span check (flagging the pair as potentially racy)
_MAX_RUNS = 8192


class ScheduleRaceError(RuntimeError):
    """The shadow checker observed a conflicting concurrent access."""


@dataclass(frozen=True)
class Extent:
    """An exact strided byte region inside one shared-memory segment.

    ``offset`` is the byte address of element ``(0, ..., 0)`` relative to
    the segment base; ``strides`` are byte strides (negative allowed).
    """

    segment: str
    offset: int
    shape: Tuple[int, ...]
    strides: Tuple[int, ...]
    itemsize: int

    @classmethod
    def from_descriptor(cls, desc) -> Optional["Extent"]:
        """Build an extent from a ``("shm", ...)`` job descriptor.

        ``("arr", ...)`` descriptors (operands travelling by value) carry
        no shared state and map to ``None``.
        """
        if not (isinstance(desc, tuple) and desc and desc[0] == "shm"):
            return None
        import numpy as np
        _, name, offset, shape, strides, dtype = desc
        return cls(segment=name, offset=int(offset), shape=tuple(shape),
                   strides=tuple(strides),
                   itemsize=int(np.dtype(dtype).itemsize))

    @property
    def size(self) -> int:
        """Number of elements addressed."""
        return int(math.prod(self.shape)) if self.shape else 1

    def span(self) -> Tuple[int, int]:
        """Conservative ``[lo, hi)`` byte bounds of every addressed byte."""
        lo = self.offset
        hi = self.offset
        for n, s in zip(self.shape, self.strides):
            reach = s * (n - 1)
            if reach < 0:
                lo += reach
            else:
                hi += reach
        return lo, hi + self.itemsize

    def runs(self) -> Optional[List[Tuple[int, int]]]:
        """Sorted, merged contiguous ``[start, stop)`` byte runs.

        Exact for any strided view; returns ``None`` (caller must fall back
        to :meth:`span`) when the decomposition would exceed
        :data:`_MAX_RUNS` runs.
        """
        if self.size == 0:
            return []
        dims = [(s, n) for s, n in zip(self.strides, self.shape) if n > 1]
        run = self.itemsize
        rest: List[Tuple[int, int]] = []
        # grow the contiguous unit by dims packed tightly against it
        for s, n in sorted(dims, key=lambda t: abs(t[0])):
            if s == run:
                run *= n
            else:
                rest.append((s, n))
        nruns = 1
        for _, n in rest:
            nruns *= n
        if nruns > _MAX_RUNS:
            return None
        starts = [0]
        for s, n in rest:
            starts = [st + s * k for st in starts for k in range(n)]
        spans = sorted((self.offset + st, self.offset + st + run)
                       for st in starts)
        merged: List[Tuple[int, int]] = []
        for lo, hi in spans:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return merged


def extents_overlap(a: Extent, b: Extent) -> bool:
    """Whether two extents address at least one common byte.

    Exact (run-intersection) whenever both extents decompose into at most
    :data:`_MAX_RUNS` contiguous runs; conservatively ``True`` on byte-span
    overlap otherwise.
    """
    if a.segment != b.segment:
        return False
    alo, ahi = a.span()
    blo, bhi = b.span()
    if ahi <= blo or bhi <= alo:
        return False
    ra, rb = a.runs(), b.runs()
    if ra is None or rb is None:
        return True  # conservative: spans overlap, runs too many to check
    i = j = 0
    while i < len(ra) and j < len(rb):
        lo = max(ra[i][0], rb[j][0])
        hi = min(ra[i][1], rb[j][1])
        if lo < hi:
            return True
        if ra[i][1] <= rb[j][1]:
            i += 1
        else:
            j += 1
    return False


@dataclass(frozen=True)
class JobAccess:
    """One dispatched job's shared-memory read and write sets."""

    job_id: int
    kind: str
    reads: Tuple[Extent, ...]
    writes: Tuple[Extent, ...]


@dataclass(frozen=True)
class RaceFinding:
    """A conflicting pair of potentially-concurrent accesses."""

    kind: str            #: ``write-write`` | ``read-write`` | ``reuse-in-flight``
    job_a: int
    job_b: Optional[int]  #: ``None`` for scratch-reuse conflicts
    segment: str
    detail: str

    def render(self) -> str:
        """One human-readable line naming the exact job pair."""
        other = "scratch reuse" if self.job_b is None else f"job {self.job_b}"
        return (f"{self.kind}: job {self.job_a} vs {other} on segment "
                f"{self.segment}: {self.detail}")


@dataclass
class ScheduleReport:
    """Outcome of checking one traced schedule."""

    jobs: int = 0             #: jobs seen (including descriptor-free ones)
    shm_jobs: int = 0         #: jobs touching shared-memory extents
    pairs_checked: int = 0    #: (new job, in-flight job) comparisons
    reuse_checks: int = 0     #: scratch-reuse events checked
    findings: List[RaceFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no conflicting pair was found."""
        return not self.findings

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (for the ``repro analyze --json`` artifact)."""
        return {
            "jobs_checked": self.jobs, "shm_jobs": self.shm_jobs,
            "pairs_checked": self.pairs_checked,
            "reuse_checks": self.reuse_checks,
            "races": [f.render() for f in self.findings],
            "ok": self.ok,
        }

    def render(self) -> str:
        """Multi-line human-readable summary."""
        head = (f"schedule race check: {self.jobs} jobs "
                f"({self.shm_jobs} with shared extents), "
                f"{self.pairs_checked} concurrent pairs, "
                f"{self.reuse_checks} scratch reuses -> "
                f"{'OK' if self.ok else f'{len(self.findings)} race(s)'}")
        return "\n".join([head] + [f"  {f.render()}" for f in self.findings])


def _payload_extents(kind: str, payload
                     ) -> Tuple[Tuple[Extent, ...], Tuple[Extent, ...]]:
    """Read/write extents a job descriptor names (empty for by-value ops)."""
    if kind == "gemm":
        a, b, out = payload
        reads = tuple(e for e in (Extent.from_descriptor(a),
                                  Extent.from_descriptor(b)) if e is not None)
        w = Extent.from_descriptor(out) if out is not None else None
        return reads, (w,) if w is not None else ()
    if kind in ("svd", "qr", "eigh"):
        e = Extent.from_descriptor(payload)
        return ((e,) if e is not None else ()), ()
    return (), ()  # ping / sleep / by-value jobs: no shared state


class _Replayer:
    """Incremental race checker over an event stream (shared by both modes)."""

    def __init__(self) -> None:
        self.inflight: Dict[int, JobAccess] = {}
        self.report = ScheduleReport()

    def submit(self, access: JobAccess) -> List[RaceFinding]:
        """Register a job; return conflicts against everything in flight."""
        new: List[RaceFinding] = []
        self.report.jobs += 1
        if access.reads or access.writes:
            self.report.shm_jobs += 1
        for other in self.inflight.values():
            self.report.pairs_checked += 1
            new.extend(_conflicts(access, other))
        self.inflight[access.job_id] = access
        self.report.findings.extend(new)
        return new

    def complete(self, job_id: int) -> None:
        """A job's completion was observed by the parent."""
        self.inflight.pop(job_id, None)

    def reuse(self, extent: Extent) -> List[RaceFinding]:
        """A recycled scratch buffer was handed back out."""
        new: List[RaceFinding] = []
        self.report.reuse_checks += 1
        for other in self.inflight.values():
            for theirs in other.reads + other.writes:
                if extents_overlap(extent, theirs):
                    new.append(RaceFinding(
                        "reuse-in-flight", other.job_id, None, extent.segment,
                        f"scratch bytes [{extent.span()[0]}, "
                        f"{extent.span()[1]}) reissued while job "
                        f"{other.job_id} ({other.kind}) is in flight"))
                    break
        self.report.findings.extend(new)
        return new


def _conflicts(a: JobAccess, b: JobAccess) -> List[RaceFinding]:
    """Write/write and read/write conflicts between two concurrent jobs."""
    out: List[RaceFinding] = []

    def _pair(kind: str, xs: Sequence[Extent], ys: Sequence[Extent]) -> None:
        for x in xs:
            for y in ys:
                if extents_overlap(x, y):
                    out.append(RaceFinding(
                        kind, a.job_id, b.job_id, x.segment,
                        f"job {a.job_id} ({a.kind}) bytes "
                        f"[{x.span()[0]}, {x.span()[1]}) overlap job "
                        f"{b.job_id} ({b.kind}) bytes "
                        f"[{y.span()[0]}, {y.span()[1]})"))
                    return

    _pair("write-write", a.writes, b.writes)
    _pair("read-write", a.writes, b.reads)
    _pair("read-write", a.reads, b.writes)
    return out


class ScheduleTrace:
    """Thread-safe recorder (and optional online checker) of executor events.

    Attach to a :class:`~repro.symmetry.procops.ProcessOps` via
    ``attach_trace``; the executor then reports every submit, observed
    completion and scratch reuse.  With ``shadow=True`` the trace checks
    each event against the in-flight set immediately and raises
    :class:`ScheduleRaceError` on the first conflict; otherwise events are
    recorded for an offline :func:`check_trace` pass.
    """

    def __init__(self, shadow: bool = False) -> None:
        self.shadow = bool(shadow)
        self._lock = threading.Lock()
        self._events: List[tuple] = []
        self._replayer = _Replayer() if self.shadow else None

    def record_submit(self, job_id: int, kind: str, payload) -> None:
        """A job was queued (called before it is sent to a worker)."""
        reads, writes = _payload_extents(kind, payload)
        access = JobAccess(job_id, kind, reads, writes)
        with self._lock:
            if self._replayer is not None:
                new = self._replayer.submit(access)
                if new:
                    raise ScheduleRaceError(new[0].render())
            else:
                self._events.append(("submit", access))

    def record_complete(self, job_id: int) -> None:
        """The submitting thread observed the job's completion."""
        with self._lock:
            if self._replayer is not None:
                self._replayer.complete(job_id)
            else:
                self._events.append(("complete", job_id))

    def record_reuse(self, descriptor) -> None:
        """A pooled scratch buffer was reissued (descriptor of its bytes)."""
        extent = Extent.from_descriptor(descriptor)
        if extent is None:
            return
        with self._lock:
            if self._replayer is not None:
                new = self._replayer.reuse(extent)
                if new:
                    raise ScheduleRaceError(new[0].render())
            else:
                self._events.append(("reuse", extent))

    def events(self) -> Tuple[tuple, ...]:
        """The recorded event stream (empty in shadow mode)."""
        with self._lock:
            return tuple(self._events)

    def snapshot(self) -> ScheduleReport:
        """The shadow replayer's running report (or an offline check)."""
        with self._lock:
            if self._replayer is not None:
                return self._replayer.report
        return check_trace(self.events())


def check_trace(events: Sequence[tuple]) -> ScheduleReport:
    """Replay a recorded event stream and report every conflicting pair."""
    rep = _Replayer()
    for event in events:
        tag = event[0]
        if tag == "submit":
            rep.submit(event[1])
        elif tag == "complete":
            rep.complete(event[1])
        elif tag == "reuse":
            rep.reuse(event[1])
        else:  # pragma: no cover - future event kinds
            raise ValueError(f"unknown trace event {tag!r}")
    return rep.report


def trace_executor_schedule(*, nsites: int = 8, maxdim: int = 12,
                            applies: int = 3, workers: int = 2
                            ) -> ScheduleReport:
    """Trace a representative executor schedule and check it for races.

    Runs the Davidson matvec of a mid-chain effective Hamiltonian on a
    fresh :class:`~repro.symmetry.procops.ProcessOps` with every kernel
    forced through the workers and row-splitting forced on, so the trace
    covers pinned operand panels, fused/batch group fan-out, disjoint
    output-row slices and refcount-recycled scratch.  Returns the offline
    :func:`check_trace` report.
    """
    from ..backends.base import DirectBackend
    from ..dmrg import EffectiveHamiltonian
    from ..perf.microbench import heff_setup
    from ..symmetry.procops import ProcessOps

    ops = ProcessOps(max_workers=workers, min_dispatch_flops=0.0,
                     min_pin_bytes=0, split_flops=0.0)
    trace = ScheduleTrace()
    ops.attach_trace(trace)
    try:
        left, w1, w2, right, x = heff_setup(nsites, maxdim)
        heff = EffectiveHamiltonian(left, (w1, w2), right,
                                    DirectBackend(block_ops=ops))
        for _ in range(max(2, applies)):
            heff.apply(x)
    finally:
        ops.shutdown()
    return check_trace(trace.events())
