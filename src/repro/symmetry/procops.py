"""Process-parallel block ops: the planned SUMMA schedules, executed for real.

Every cost in :mod:`repro.ctf.world` is modelled; this module is the
execution half.  :class:`ProcessOps` plugs into the same
:class:`~repro.symmetry.blockops.BlockOps` seam as the numpy and threaded
kernels, so the planner engine and all four backends get it for free — but
its GEMMs and per-charge-group factorizations actually run on a persistent
pool of worker processes over ``multiprocessing.shared_memory`` panels
(:mod:`repro.ctf.shm`):

* ``prepare`` pins matricized operands into shared scratch segments once per
  contraction, so dispatching a GEMM ships a descriptor tuple, not the
  matrix;
* large GEMMs with a shared output are **row-split** across workers — each
  worker computes a disjoint slice of output rows, mirroring the
  stationary-C data decomposition of the 2D/3D SUMMA mappings the simulated
  planner picks (:func:`repro.ctf.mapping.choose_mapping`).  Every output
  element is still one full contracted dot product computed by one worker,
  so results are bit-identical to serial numpy;
* independent fused/batch groups and per-charge-group SVD/QR factorizations
  fan out across workers through the inherited thread-pool front end (each
  pool thread drives one worker-process job and blocks on its result).

The pool is fault-tolerant: a worker that dies mid-job is respawned, its
in-flight jobs are resubmitted (deterministic kernels make the retry
bit-identical), and the failure is recorded in the instance's
:class:`~repro.ctf.profiler.Profiler` under a custom category.  A configured
``job_timeout`` kills and replaces stuck workers the same way; a job that
fails twice raises :class:`ExecutorError`.

Environment knobs (read at construction): ``REPRO_PROCESS_WORKERS`` (pool
size), ``REPRO_PROCESS_MIN_DISPATCH`` (flop threshold below which kernels
run locally; ``0`` forces everything through the workers, used by
``make test-process``), ``REPRO_PROCESS_START`` (multiprocessing start
method), ``REPRO_ANALYZE=shadow`` (attach an online schedule-race shadow
checker, :mod:`repro.analysis.schedule`).
"""

from __future__ import annotations

import atexit
import itertools
import math
import multiprocessing as mp
import os
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ctf.profiler import Profiler
from ..ctf.shm import ShmArena, resolve_descriptor
from ..obs import trace as obs_trace
from .blockops import BlockOps, ThreadedOps

__all__ = ["ProcessOps", "ExecutorError"]


class ExecutorError(RuntimeError):
    """A job failed permanently (worker died or timed out on every attempt)."""


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _execute_job(kernels: BlockOps, cache: dict, kind: str, payload):
    """Run one job inside a worker (also used for the local fallback)."""
    if kind == "gemm":
        a = resolve_descriptor(payload[0], cache)
        b = resolve_descriptor(payload[1], cache)
        out_desc = payload[2]
        if out_desc is None:
            return kernels.matmul(a, b)
        kernels.matmul(a, b, out=resolve_descriptor(out_desc, cache))
        return None
    if kind == "svd":
        return kernels.svd(resolve_descriptor(payload, cache))
    if kind == "qr":
        return kernels.qr(resolve_descriptor(payload, cache))
    if kind == "eigh":
        return kernels.eigh(resolve_descriptor(payload, cache))
    if kind == "sleep":  # test hook for the fault-injection suite
        time.sleep(float(payload))
        return None
    if kind == "ping":
        return "pong"
    raise ValueError(f"unknown job kind {kind!r}")


def _worker_main(worker_id: int, inbox, results, untrack_attaches: bool
                 ) -> None:
    """Worker loop: drain the inbox, send ``(job_id, ok, payload, span)``.

    The worker reuses the serial :class:`BlockOps` kernels, so e.g. the
    Gram-matrix SVD fallback applies identically on both sides of the fence.
    Results go out over this worker's private pipe — never a queue with a
    cross-process lock, which a SIGKILL could leave permanently held.

    When the parent traces (the job message's ``want_span`` flag), each
    job's wall-clock span ships back *with its result* as a
    ``(start_unix, seconds, worker_pid)`` triple, so completed-job spans
    survive even if this worker is SIGKILLed later — only the in-flight
    job's span dies with it, and its retry produces one on the
    replacement worker.
    """
    from ..ctf import shm as _shm_mod
    _shm_mod.UNTRACK_ATTACHES = untrack_attaches
    kernels = BlockOps()
    cache: dict = {}
    try:
        while True:
            msg = inbox.get()
            if msg is None:
                return
            job_id, kind, payload, want_span = msg
            span_info = None
            if want_span:
                started = time.time()
                sp = obs_trace.timed_span("job", "executor").start()
            try:
                result = _execute_job(kernels, cache, kind, payload)
                ok, out = True, result
            except BaseException as exc:  # noqa: BLE001 - report, don't die
                ok, out = False, f"{type(exc).__name__}: {exc}"
            if want_span:
                span_info = (started, sp.stop(), os.getpid())
            reply = (job_id, ok, out, span_info)
            try:
                results.send(reply)
            except (BrokenPipeError, OSError):
                return  # parent shut down or replaced this worker
    finally:
        for segment in cache.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - view still exported
                pass


class _Job:
    """One dispatched unit of work and its completion event."""

    __slots__ = ("id", "kind", "payload", "event", "result", "error",
                 "attempts", "worker", "submitted_at")

    def __init__(self, job_id: int, kind: str, payload):
        self.id = job_id
        self.kind = kind
        self.payload = payload
        self.event = threading.Event()
        self.result = None
        self.error: Optional[str] = None
        self.attempts = 1
        self.worker: Optional[int] = None
        self.submitted_at = time.monotonic()


class _Worker:
    """A worker process, its private inbox/result pipe, in-flight jobs."""

    __slots__ = ("index", "process", "inbox", "result_recv", "pending")

    def __init__(self, index: int, process, inbox, result_recv):
        self.index = index
        self.process = process
        self.inbox = inbox
        self.result_recv = result_recv
        self.pending: Dict[int, _Job] = {}


class ProcessOps(ThreadedOps):
    """Worker-process executor behind the block-ops seam.

    Subclasses :class:`ThreadedOps` so ``run``/``svd_many``/``qr_many`` keep
    fanning independent groups out on the parent thread pool; each pool
    thread's heavy kernel call then dispatches a job to a worker process and
    blocks on its result, so the compute itself crosses process boundaries
    while the (unpicklable) group closures never do.
    """

    name = "process"
    parallel = True

    #: a job is retried on at most this many workers before it errors out
    max_attempts = 2

    def __init__(self, max_workers: Optional[int] = None, *,
                 min_dispatch_flops: Optional[float] = None,
                 min_pin_bytes: int = 2048,
                 split_flops: float = 4e6,
                 job_timeout: Optional[float] = None,
                 start_method: Optional[str] = None):
        if max_workers is None:
            env = os.environ.get("REPRO_PROCESS_WORKERS")
            # default to >= 2 so the parallel machinery is exercised even on
            # single-core CI containers (correctness there, speed elsewhere)
            max_workers = int(env) if env else max(2, _available_cores())
        super().__init__(max_workers=max_workers)
        self.num_workers = self.max_workers
        if min_dispatch_flops is None:
            env = os.environ.get("REPRO_PROCESS_MIN_DISPATCH")
            min_dispatch_flops = float(env) if env is not None else 1e5
        #: GEMMs/factorizations below this flop estimate run in-process
        self.min_dispatch_flops = float(min_dispatch_flops)
        #: operands smaller than this travel by pickle instead of pinning
        self.min_pin_bytes = int(min_pin_bytes)
        #: 2-D GEMMs at or above this flop count are row-split across workers
        self.split_flops = float(split_flops)
        #: per-attempt wall-clock limit; ``None`` disables the timeout path
        self.job_timeout = job_timeout
        if start_method is None:
            start_method = os.environ.get("REPRO_PROCESS_START")
        methods = mp.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = mp.get_context(start_method)
        self.start_method = start_method

        self._plock = threading.RLock()
        self._shm = ShmArena()
        self._scratch_free: Dict[Tuple[str, int], List[np.ndarray]] = {}
        self._scratch_used: List[Tuple[Tuple[str, int], np.ndarray]] = []
        #: id(flat) -> root refcount with no caller views alive (recycling
        #: baseline; see :meth:`_recycle_scratch`)
        self._scratch_idle_refs: Dict[int, int] = {}
        self._workers: List[_Worker] = []
        self._collector: Optional[threading.Thread] = None
        self._collector_stop = False
        self._wake_recv = None
        self._wake_send = None
        #: result pipes of replaced workers, closed by the collector
        self._retired: List = []
        self._jobs: Dict[int, _Job] = {}
        self._job_seq = itertools.count(1)
        self._rr = 0
        self._in_run = 0
        #: fault record (custom categories: ``executor-crash``/``-timeout``)
        self.profiler = Profiler()
        self.dispatched = 0
        self.local_calls = 0
        self.respawns = 0
        self.timeouts = 0
        self.failures = 0
        #: optional :class:`repro.analysis.schedule.ScheduleTrace`; set by
        #: :meth:`attach_trace`, or auto-constructed as an online shadow
        #: checker when ``REPRO_ANALYZE=shadow`` (``make test-process``)
        self.trace = None
        if os.environ.get("REPRO_ANALYZE", "").strip().lower() == "shadow":
            from ..analysis.schedule import ScheduleTrace
            self.trace = ScheduleTrace(shadow=True)
        atexit.register(self.shutdown)

    # -- pool lifecycle ---------------------------------------------------- #

    def _spawn(self, index: int) -> _Worker:
        inbox = self._ctx.SimpleQueue()
        # one result pipe per worker: no lock is shared across processes,
        # so a worker SIGKILL'd mid-write can never strand another worker
        # (or shutdown) on a lock it will never release — its half-written
        # frame simply dies with its own pipe
        result_recv, result_send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, inbox, result_send, self.start_method != "fork"),
            daemon=True, name=f"procops-{index}")
        process.start()
        result_send.close()  # child keeps its copy; EOF when it dies
        return _Worker(index, process, inbox, result_recv)

    def _ensure_started(self) -> None:
        with self._plock:
            if self._collector is None:
                self._wake_recv, self._wake_send = self._ctx.Pipe(
                    duplex=False)
                self._collector_stop = False
                self._collector = threading.Thread(
                    target=self._collect,
                    daemon=True, name="procops-collector")
                self._collector.start()
            while len(self._workers) < self.num_workers:
                self._workers.append(self._spawn(len(self._workers)))

    def _collect(self) -> None:
        """Demultiplex the per-worker result pipes into completion events."""
        from multiprocessing.connection import wait as conn_wait
        dead: set = set()
        while True:
            with self._plock:
                stop = self._collector_stop
                wake = self._wake_recv
                readers = [w.result_recv for w in self._workers
                           if w.result_recv not in dead]
                retired, self._retired = self._retired, []
            for conn in retired:
                dead.discard(conn)
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
            if stop or wake is None:
                return
            try:
                ready = conn_wait(readers + [wake], timeout=0.25)
            except OSError:  # pragma: no cover - a pipe retired mid-wait
                continue
            for conn in ready:
                if conn is wake:
                    try:
                        conn.recv()
                    except (EOFError, OSError):
                        return
                    continue
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # worker died (possibly mid-write); _wait() notices the
                    # dead process and recovers — stop polling its pipe
                    dead.add(conn)
                    continue
                self._deliver(msg)

    def _deliver(self, msg) -> None:
        job_id, ok, payload, span_info = msg
        with self._plock:
            job = self._jobs.pop(job_id, None)
            if job is None:
                return  # stale result from a replaced worker
            if job.worker is not None and job.worker < len(self._workers):
                self._workers[job.worker].pending.pop(job_id, None)
            if ok:
                job.result = payload
            else:
                job.error = payload
                self.failures += 1
        if span_info is not None:
            # merge the worker's span onto the parent timeline, on the
            # worker slot's own tid lane (stable across respawns; the
            # actual worker pid is kept in the event args)
            rec = obs_trace.recorder()
            if rec is not None:
                started, seconds, worker_pid = span_info
                rec.add_event(f"job:{job.kind}", "executor", started,
                              seconds,
                              lane=obs_trace.WORKER_LANE_BASE
                              + (job.worker or 0),
                              args={"job": job.id, "attempts": job.attempts,
                                    "worker_pid": worker_pid})
        job.event.set()

    def shutdown(self, timeout: float = 2.0) -> None:
        """Stop the workers and collector, fail pending jobs, unlink shm."""
        with self._plock:
            workers, self._workers = self._workers, []
            collector, self._collector = self._collector, None
            wake_recv, self._wake_recv = self._wake_recv, None
            wake_send, self._wake_send = self._wake_send, None
            jobs, self._jobs = self._jobs, {}
            self._collector_stop = True
        for worker in workers:
            try:
                worker.inbox.put(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=timeout)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.kill()
                worker.process.join(timeout=1.0)
        if wake_send is not None:
            try:
                wake_send.send(None)
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        if collector is not None:
            collector.join(timeout=timeout)
        for conn in ([wake_recv, wake_send]
                     + [w.result_recv for w in workers]):
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        for job in jobs.values():
            job.error = "executor shut down"
            job.event.set()
        self.release()

    def release(self) -> None:
        """Drop scratch pools and unlink every shared segment."""
        with self._plock:
            self._scratch_free.clear()
            self._scratch_used = []
            self._scratch_idle_refs.clear()
        self._shm.release_all()

    # -- dispatch ----------------------------------------------------------- #

    def _pick_worker(self) -> int:
        n = len(self._workers)
        best, best_load = 0, None
        for k in range(n):
            idx = (self._rr + k) % n
            load = len(self._workers[idx].pending)
            if best_load is None or load < best_load:
                best, best_load = idx, load
                if load == 0:
                    break
        self._rr = (best + 1) % n
        return best

    def _submit(self, kind: str, payload, worker: Optional[int] = None
                ) -> _Job:
        """Queue a job on a worker (least-loaded unless pinned); non-blocking."""
        self._ensure_started()
        job = _Job(next(self._job_seq), kind, payload)
        if self.trace is not None:
            # before registration/sending: a shadow-mode race raises here
            # with nothing enqueued, so the pool stays consistent
            self.trace.record_submit(job.id, kind, payload)
        with self._plock:
            idx = self._pick_worker() if worker is None else worker
            job.worker = idx
            target = self._workers[idx]
            target.pending[job.id] = job
            self._jobs[job.id] = job
            self.dispatched += 1
        self._send(target, job)
        return job

    def _send(self, worker: _Worker, job: _Job) -> None:
        # outside the lock: a put to a busy worker blocks on the pipe, and
        # the collector needs the lock to drain results in the meantime
        try:
            worker.inbox.put((job.id, job.kind, job.payload,
                              obs_trace.enabled()))
        except (BrokenPipeError, OSError):
            self._recover(worker, "crash")

    def _wait(self, job: _Job):
        """Block until a job completes, recovering its worker on the way."""
        while not job.event.wait(0.02):
            with self._plock:
                if job.event.is_set():
                    break
                idx = job.worker
                worker = (self._workers[idx]
                          if idx is not None and idx < len(self._workers)
                          else None)
                dead = worker is not None and not worker.process.is_alive()
                stuck = (not dead and self.job_timeout is not None
                         and time.monotonic() - job.submitted_at
                         > self.job_timeout)
            if worker is None:
                continue
            if dead:
                self._recover(worker, "crash")
            elif stuck:
                self._recover(worker, "timeout")
        if self.trace is not None:
            # parent-observed completion: only now is the job's effect
            # ordered before anything this thread does next
            self.trace.record_complete(job.id)
        if job.error is not None:
            raise ExecutorError(f"{job.kind} job {job.id}: {job.error}")
        return job.result

    def _recover(self, worker: _Worker, reason: str) -> None:
        """Replace a dead or stuck worker and resubmit its in-flight jobs.

        Kernels are deterministic, so a retried job reproduces the original
        result bit-for-bit.  The incident is charged to the instance
        profiler under ``executor-crash`` / ``executor-timeout`` so run
        reports surface it.
        """
        resubmit: List[_Job] = []
        with self._plock:
            idx = worker.index
            if idx >= len(self._workers) or self._workers[idx] is not worker:
                return  # another waiter already replaced this worker
            span = obs_trace.timed_span(f"executor-{reason}", "executor",
                                        worker=idx).start()
            try:
                worker.process.kill()
            except Exception:  # pragma: no cover - already reaped
                pass
            worker.process.join(timeout=1.0)
            pending = list(worker.pending.values())
            worker.pending.clear()
            replacement = self._spawn(idx)
            self._workers[idx] = replacement
            self._retired.append(worker.result_recv)
            self.respawns += 1
            obs_trace.instant("worker-respawn", "executor",
                              lane=obs_trace.WORKER_LANE_BASE + idx,
                              worker=idx, reason=reason,
                              new_pid=replacement.process.pid)
            if reason == "timeout":
                self.timeouts += 1
            for job in pending:
                if job.event.is_set():
                    continue
                job.attempts += 1
                if job.attempts > self.max_attempts:
                    job.error = (f"worker {reason} "
                                 f"(gave up after {self.max_attempts} "
                                 f"attempts)")
                    self._jobs.pop(job.id, None)
                    self.failures += 1
                    job.event.set()
                else:
                    job.worker = idx
                    job.submitted_at = time.monotonic()
                    replacement.pending[job.id] = job
                    resubmit.append(job)
                    obs_trace.instant("job-retry", "executor",
                                      lane=obs_trace.WORKER_LANE_BASE + idx,
                                      job=job.id, kind=job.kind,
                                      attempts=job.attempts)
            self.profiler.add(f"executor-{reason}", span.stop(),
                              allow_custom=True)
        for job in resubmit:
            self._send(replacement, job)

    # -- operand placement -------------------------------------------------- #

    @staticmethod
    def _scratch_anchor(flat: np.ndarray) -> np.ndarray:
        """The root ndarray every view of this scratch buffer hangs off.

        numpy collapses view chains: any view derived from a segment-backed
        buffer keeps the segment's root array as its ``base``, so the root's
        refcount is an exact live-view counter for the whole segment.
        """
        base = flat.base
        return base if isinstance(base, np.ndarray) else flat

    def _scratch_acquire(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = int(math.prod(shape)) if shape else 1
        key = (dtype.str, size)
        with self._plock:
            stack = self._scratch_free.get(key)
            flat = stack.pop() if stack else None
        if flat is not None and self.trace is not None:
            desc = self._shm.describe(flat)
            if desc is not None:
                self.trace.record_reuse(desc)
        if flat is None:
            flat = self._shm.allocate((size,), dtype)
            # refcount of the root with no caller views alive; a buffer is
            # reclaimable exactly when the count returns to this baseline
            self._scratch_idle_refs[id(flat)] = sys.getrefcount(
                self._scratch_anchor(flat))
        with self._plock:
            self._scratch_used.append((key, flat))
        return flat.reshape(shape)

    def _recycle_scratch(self) -> None:
        """Return provably-dead scratch buffers to the free pool.

        Pinned operands, fused panels and staging targets have caller-managed
        lifetimes — the engine's serial path consumes a concat panel in
        GEMMs issued *after* the panel-building call returns.  Recycling on a
        schedule would hand a buffer to a new allocation while such views
        still read it, so a buffer is recycled only when every view of its
        segment has died: all views share the segment's root array as their
        ``base``, making the root's refcount an exact live-view counter.
        """
        with self._plock:
            if self._in_run:
                return
            still = []
            for key, flat in self._scratch_used:
                if sys.getrefcount(self._scratch_anchor(flat)) <= \
                        self._scratch_idle_refs[id(flat)]:
                    self._scratch_free.setdefault(key, []).append(flat)
                else:
                    still.append((key, flat))
            self._scratch_used = still

    def prepare(self, mat: np.ndarray) -> np.ndarray:
        """Pin a matricized operand into a shared scratch segment.

        The pin preserves the operand's memory layout: BLAS picks different
        (bitwise-inequivalent) micro-kernels for transposed and plain
        operands, so replacing a Fortran-ordered view with a C-contiguous
        copy would break the executor's bit-identity with the serial path.
        Operands with exotic strides (neither C nor Fortran) stay unpinned
        and travel by value, which also round-trips their layout.
        """
        if (mat.nbytes < self.min_pin_bytes or self._shm.owns(mat)
                or self.num_workers < 1):
            return mat
        if mat.ndim >= 2 and not mat.flags.c_contiguous:
            if mat.T.flags.c_contiguous:
                buf = self._scratch_acquire(mat.T.shape, mat.dtype)
                np.copyto(buf, mat.T)
                return buf.T
            return mat
        buf = self._scratch_acquire(mat.shape, mat.dtype)
        np.copyto(buf, mat)
        return buf

    def _descriptor(self, arr: np.ndarray) -> tuple:
        desc = self._shm.describe(arr)
        return desc if desc is not None else ("arr", arr)

    # -- kernels ------------------------------------------------------------ #

    @staticmethod
    def _gemm_flops(a: np.ndarray, b: np.ndarray) -> float:
        return 2.0 * float(np.prod(a.shape, dtype=np.float64)) * b.shape[-1]

    def _dispatchable(self, flops: float) -> bool:
        return self.num_workers >= 1 and flops >= self.min_dispatch_flops

    def _layout_roundtrips(self, arr: np.ndarray) -> bool:
        """Whether dispatching ``arr`` preserves its exact memory layout.

        Shared-memory views ship as (offset, shape, strides) descriptors and
        C-/Fortran-contiguous arrays survive pickling with their order
        intact; anything else would arrive C-contiguized, and BLAS picks
        bitwise-inequivalent micro-kernels per layout.  Such operands are
        computed locally instead of dispatched.
        """
        return (arr.flags.c_contiguous or arr.flags.f_contiguous
                or self._shm.owns(arr))

    def matmul(self, a: np.ndarray, b: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        flops = self._gemm_flops(a, b)
        if not self._dispatchable(flops) or \
                not (self._layout_roundtrips(a) and self._layout_roundtrips(b)):
            self.local_calls += 1
            return BlockOps.matmul(self, a, b, out=out)
        if out is None:
            result = self._wait(self._submit(
                "gemm", (self._descriptor(a), self._descriptor(b), None)))
            self._recycle_after_sync()
            return result
        # write through a shared target: the caller's buffer when it is
        # already a shared panel, a scratch segment (memcpy'd back) when it
        # is private — one copy beats pickling the product through a pipe
        target = out if self._shm.owns(out) \
            else self._scratch_acquire(out.shape, out.dtype)
        if (a.ndim == 2 and a.flags.c_contiguous
                and flops >= self.split_flops
                and a.shape[0] >= 2 * self.num_workers):
            self._row_split(a, b, target)
        else:
            self._wait(self._submit(
                "gemm", (self._descriptor(a), self._descriptor(b),
                         self._descriptor(target))))
        if target is not out:
            np.copyto(out, target)
        self._recycle_after_sync()
        return out

    def _row_split(self, a: np.ndarray, b: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
        """SUMMA-style stationary-C split: disjoint output-row slices.

        Each worker computes whole rows of the output — the contracted
        dimension is never partitioned, so there is no cross-worker
        accumulation and the result is bit-identical to one serial GEMM.
        """
        rows = a.shape[0]
        parts = min(self.num_workers, rows)
        bdesc = self._descriptor(b)
        bounds = [rows * i // parts for i in range(parts + 1)]
        jobs = [self._submit("gemm", (self._descriptor(a[r0:r1]), bdesc,
                                      self._descriptor(out[r0:r1])))
                for r0, r1 in zip(bounds, bounds[1:]) if r0 < r1]
        for job in jobs:
            self._wait(job)
        return out

    def _panel_like(self, proto: np.ndarray) -> np.ndarray:
        """A shared-scratch array with ``proto``'s exact shape and strides.

        ``np.concatenate``/``np.stack`` carry the inputs' memory order into
        the result (stacking Fortran-ordered mats yields slice-F strides),
        and the batched-GEMM kernel picks bitwise-inequivalent code paths
        per layout — so the shared panel must replicate numpy's layout
        choice, not just its values.  The layout is always a permuted dense
        block: allocate in descending-stride axis order and transpose back.
        """
        order = sorted(range(proto.ndim),
                       key=lambda i: (-proto.strides[i], i))
        buf = self._scratch_acquire(tuple(proto.shape[i] for i in order),
                                    proto.dtype)
        inverse = [0] * proto.ndim
        for pos, ax in enumerate(order):
            inverse[ax] = pos
        return buf.transpose(inverse)

    def concat(self, mats, axis: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is not None:
            return BlockOps.concat(self, mats, axis, out=out)
        total = sum(m.nbytes for m in mats)
        if total < self.min_pin_bytes or self.num_workers < 1:
            return BlockOps.concat(self, mats, axis)
        # build the fused panel directly in a shared segment so the GEMM
        # that consumes it ships a descriptor instead of the panel; the
        # empty prototype reproduces numpy's output-layout decision without
        # copying any data
        proto = np.concatenate([np.empty_like(m) for m in mats], axis=axis)
        buf = self._panel_like(proto)
        np.concatenate(mats, axis=axis, out=buf)
        return buf

    def stack(self, mats, out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is not None:
            return BlockOps.stack(self, mats, out=out)
        total = sum(m.nbytes for m in mats)
        if total < self.min_pin_bytes or self.num_workers < 1:
            return BlockOps.stack(self, mats)
        proto = np.stack([np.empty_like(m) for m in mats])
        buf = self._panel_like(proto)
        np.stack(mats, out=buf)
        return buf

    def tensordot(self, a: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
        # the naive per-pair path: local, and without scratch pinning (its
        # operands are used exactly once, straight out of the block dict)
        return np.tensordot(  # repro-lint: ok(blockops-route): this override IS the seam; recursing through prepare() would pin single-use operands
            a, b, axes=axes)

    def _factorization_dispatchable(self, mat: np.ndarray) -> bool:
        if mat.ndim != 2 or mat.size == 0 or self.num_workers < 1:
            return False
        m, n = mat.shape
        return 4.0 * m * n * min(m, n) >= self.min_dispatch_flops

    def svd(self, mat: np.ndarray):
        if not self._factorization_dispatchable(mat):
            self.local_calls += 1
            return BlockOps.svd(self, mat)
        result = self._wait(self._submit("svd", self._descriptor(mat)))
        self._recycle_after_sync()
        return result

    def qr(self, mat: np.ndarray):
        if not self._factorization_dispatchable(mat):
            self.local_calls += 1
            return BlockOps.qr(self, mat)
        result = self._wait(self._submit("qr", self._descriptor(mat)))
        self._recycle_after_sync()
        return result

    def eigh(self, mat: np.ndarray):
        if not self._factorization_dispatchable(mat):
            self.local_calls += 1
            return BlockOps.eigh(self, mat)
        result = self._wait(self._submit("eigh", self._descriptor(mat)))
        self._recycle_after_sync()
        return result

    # -- execution strategy -------------------------------------------------- #

    def run(self, tasks) -> None:
        with self._plock:
            self._in_run += 1
        try:
            super().run(tasks)
        finally:
            with self._plock:
                self._in_run -= 1
            self._recycle_scratch()

    def _recycle_after_sync(self) -> None:
        # a synchronous top-level kernel call (single-group plan) marks the
        # end of its contraction; inside run() the group barrier does it
        with self._plock:
            in_run = self._in_run
        if not in_run:
            self._recycle_scratch()

    # -- introspection ------------------------------------------------------- #

    def attach_trace(self, trace) -> None:
        """Attach a :class:`repro.analysis.schedule.ScheduleTrace`.

        The executor reports every job submit, parent-observed completion
        and scratch-buffer reuse to the trace; a ``shadow=True`` trace
        raises :class:`~repro.analysis.schedule.ScheduleRaceError` the
        moment a conflicting event happens.
        """
        self.trace = trace

    def describe(self) -> dict:
        d = super().describe()
        d.update({
            "workers": self.num_workers,
            "start_method": self.start_method,
            "min_dispatch_flops": self.min_dispatch_flops,
            "dispatched": self.dispatched,
            "local_calls": self.local_calls,
            "respawns": self.respawns,
            "timeouts": self.timeouts,
            "failures": self.failures,
            "shm_bytes": self._shm.total_bytes,
            "shadow_checker": bool(self.trace is not None
                                   and getattr(self.trace, "shadow", False)),
        })
        return d
