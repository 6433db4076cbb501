"""Low-overhead span tracer with Chrome/Perfetto trace-event export.

Design goals, in order:

1. **Disabled is (almost) free.**  Instrumentation stays in the hot loops
   permanently, so the disabled path must compile down to a module-global
   load, a ``None`` comparison, and a shared no-op context manager.  No
   recorder, no timestamps, no allocation beyond the call itself.
2. **Enabled is cheap.**  A completed span is one tuple appended to a
   bounded ``collections.deque`` ring buffer — no I/O, no locks on the
   append path.  Export happens once, after the run.
3. **Cross-process mergeable.**  Timestamps are wall-clock anchored
   (``time.time() - time.perf_counter()`` sampled once per recorder), so
   the per-run traces a campaign's worker processes export merge into one
   timeline (:func:`merge_traces`) without clock gymnastics.  Within a
   process every thread records on its own ``tid`` lane.

Two span flavours cover the two call-site shapes in the codebase:

- :func:`span` — pure tracing.  Returns the shared no-op when disabled;
  use it where the caller does not need the measured duration.
- :func:`timed_span` — *always* measures (a ``perf_counter`` pair, which
  the call sites were already paying for) and exposes ``.seconds`` after
  exit/``stop()``, recording a span only when a recorder is installed.
  This is the drop-in replacement for the ad-hoc ``t0 = perf_counter()``
  pairs the ``obs-span`` lint rule retires from hot-path modules.

The export format is the Chrome trace-event JSON understood by
``chrome://tracing`` and https://ui.perfetto.dev: complete (``"ph": "X"``)
events with microsecond ``ts``/``dur``, plus ``"M"`` metadata events
naming the pid/tid lanes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Span", "SpanRecorder", "TimedSpan",
    "chrome_trace_events", "install", "load_trace", "merge_traces",
    "recorder", "span", "summarize_events", "timed_span", "tracing",
    "uninstall", "write_trace",
]

_TRACE_SCHEMA = "repro-trace/1"


class _NullSpan:
    """Shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **fields: Any) -> None:
        """Discard annotations (tracing is disabled)."""


_NULL_SPAN = _NullSpan()


class Span:
    """A live span bound to a recorder; use as a context manager."""

    __slots__ = ("_recorder", "name", "category", "args", "seconds", "_t0")

    def __init__(self, recorder: "SpanRecorder", name: str, category: str,
                 args: Optional[Dict[str, Any]]):
        self._recorder = recorder
        self.name = name
        self.category = category
        self.args = args
        self.seconds = 0.0
        self._t0 = 0.0

    def annotate(self, **fields: Any) -> None:
        """Attach key/value details that export into the event ``args``."""
        if self.args is None:
            self.args = {}
        self.args.update(fields)

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        dur = time.perf_counter() - self._t0
        self.seconds = dur
        self._recorder.record(self.name, self.category, self._t0, dur,
                              self.args)
        return False


class TimedSpan:
    """A span that always measures, and records only when tracing is on.

    Call sites that need the duration anyway (``SweepRecord.seconds``,
    plan-cache accounting, ...) use this instead of a raw ``perf_counter``
    pair: ``sp = timed_span("sweep").start(); ...; dt = sp.stop()`` or the
    equivalent ``with`` form, then read ``.seconds``.
    """

    __slots__ = ("name", "category", "args", "seconds", "_t0")

    def __init__(self, name: str, category: str,
                 args: Optional[Dict[str, Any]]):
        self.name = name
        self.category = category
        self.args = args
        self.seconds = 0.0
        self._t0 = 0.0

    def start(self) -> "TimedSpan":
        """Begin timing; returns ``self`` for one-line assignment."""
        self._t0 = time.perf_counter()
        return self

    def stop(self) -> float:
        """End timing, record the span if enabled, return the seconds."""
        dur = time.perf_counter() - self._t0
        self.seconds = dur
        rec = _RECORDER
        if rec is not None:
            rec.record(self.name, self.category, self._t0, dur, self.args)
        return dur

    def __enter__(self) -> "TimedSpan":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False


class SpanRecorder:
    """Per-process ring buffer of completed span events.

    Events are stored as ``(ts, dur, name, category, pid, lane, args)``
    tuples with ``ts`` in wall-clock epoch seconds (derived from the
    recorder's ``perf_counter`` anchor), which makes events from different
    processes directly mergeable.  The buffer is bounded (``capacity``
    events); once full, the oldest events are dropped and counted in
    :attr:`dropped`.
    """

    def __init__(self, capacity: int = 65536,
                 process_name: Optional[str] = None):
        if capacity < 1:
            raise ValueError("SpanRecorder capacity must be >= 1")
        self.capacity = int(capacity)
        self.pid = os.getpid()
        self.process_name = process_name or f"repro-{self.pid}"
        self.dropped = 0
        # wall-clock value of perf_counter()'s zero point: ts = anchor + pc
        self._anchor = time.time() - time.perf_counter()
        self._events: deque = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._thread_lanes: Dict[int, int] = {threading.get_ident(): 0}
        self._lane_names: Dict[int, str] = {0: "main"}

    # -- recording -------------------------------------------------------

    def record(self, name: str, category: str, t0_pc: float, dur: float,
               args: Optional[Dict[str, Any]] = None) -> None:
        """Append a completed span timed with this process's perf_counter."""
        self.add_event(name, category, self._anchor + t0_pc, dur, args)

    def add_event(self, name: str, category: str, ts: float, dur: float,
                  args: Optional[Dict[str, Any]] = None) -> None:
        """Append a raw event (``ts`` in epoch seconds, ``dur`` seconds) on
        the calling thread's lane."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append((ts, dur, name, category, self.pid,
                             self._current_lane(), args))

    def _current_lane(self) -> int:
        ident = threading.get_ident()
        lane = self._thread_lanes.get(ident)
        if lane is None:
            with self._lock:
                lane = self._thread_lanes.setdefault(
                    ident, len(self._thread_lanes))
                self._lane_names.setdefault(lane, f"thread-{lane}")
        return lane

    # -- inspection / export ---------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[Tuple]:
        """A snapshot list of the buffered event tuples."""
        return list(self._events)

    def chrome(self) -> Dict[str, Any]:
        """The buffer as a Chrome trace-event JSON payload (a dict)."""
        return chrome_trace_events(
            self.events(),
            lane_names={(self.pid, lane): name
                        for lane, name in self._lane_names.items()},
            process_names={self.pid: self.process_name},
            dropped=self.dropped)

    def export(self, path: str) -> Dict[str, Any]:
        """Write the buffer to ``path`` as Chrome trace JSON; return it."""
        payload = self.chrome()
        write_trace(path, payload)
        return payload


# -- module-level recorder slot ------------------------------------------

_RECORDER: Optional[SpanRecorder] = None


def recorder() -> Optional[SpanRecorder]:
    """The installed recorder, or ``None`` while tracing is disabled."""
    return _RECORDER


def install(rec: Optional[SpanRecorder] = None, *,
            capacity: int = 65536) -> SpanRecorder:
    """Install ``rec`` (or a fresh recorder) as the process tracer."""
    global _RECORDER
    if rec is None:
        rec = SpanRecorder(capacity=capacity)
    _RECORDER = rec
    return rec


def uninstall() -> Optional[SpanRecorder]:
    """Remove and return the installed recorder (tracing goes no-op)."""
    global _RECORDER
    rec = _RECORDER
    _RECORDER = None
    return rec


def span(name: str, category: str = "span", **args: Any):
    """A context-manager span, or the shared no-op when disabled.

    The disabled path is one global load, one comparison, and the return
    of a singleton whose ``__enter__``/``__exit__`` do nothing.
    """
    rec = _RECORDER
    if rec is None:
        return _NULL_SPAN
    return Span(rec, name, category, args or None)


def timed_span(name: str, category: str = "span", **args: Any) -> TimedSpan:
    """A span that always measures (``.seconds``) and records if enabled."""
    return TimedSpan(name, category, args or None)


@contextmanager
def tracing(path: Optional[str] = None, *, capacity: int = 65536):
    """Install a recorder for the block, exporting to ``path`` on exit.

    Nested use is allowed: the previously installed recorder (if any) is
    restored afterwards.
    """
    previous = recorder()
    rec = install(SpanRecorder(capacity=capacity))
    try:
        yield rec
    finally:
        if previous is not None:
            install(previous)
        else:
            uninstall()
        if path is not None:
            rec.export(path)


# -- Chrome trace-event export / load / merge ----------------------------

def chrome_trace_events(events: Iterable[Tuple], *,
                        lane_names: Optional[Dict[Tuple[int, int],
                                                  str]] = None,
                        process_names: Optional[Dict[int, str]] = None,
                        dropped: int = 0) -> Dict[str, Any]:
    """Convert event tuples into a Chrome trace-event JSON payload.

    ``ts`` is normalized to the earliest event so the exported numbers are
    small; durations come out in microseconds as the format requires.
    Lanes without an explicit name are labelled ``thread-<lane>``.
    """
    evs = sorted(events, key=lambda e: e[0])
    t0 = evs[0][0] if evs else 0.0
    out: List[Dict[str, Any]] = []
    seen_pids: Dict[int, None] = {}
    seen_lanes: Dict[Tuple[int, int], None] = {}
    for ts, dur, name, category, pid, lane, args in evs:
        seen_pids.setdefault(pid)
        seen_lanes.setdefault((pid, lane))
        ev: Dict[str, Any] = {
            "name": name, "cat": category,
            "ph": "X" if dur > 0.0 else "i",
            "ts": (ts - t0) * 1e6,
            "pid": pid, "tid": lane,
        }
        if dur > 0.0:
            ev["dur"] = dur * 1e6
        else:
            ev["s"] = "t"  # instant event scoped to its thread lane
        if args:
            ev["args"] = dict(args)
        out.append(ev)
    lane_names = lane_names or {}
    process_names = process_names or {}
    meta: List[Dict[str, Any]] = []
    for pid in seen_pids:
        meta.append({"name": "process_name", "ph": "M", "pid": pid,
                     "args": {"name": process_names.get(pid,
                                                        f"repro-{pid}")}})
    for pid, lane in seen_lanes:
        label = lane_names.get((pid, lane), f"thread-{lane}")
        meta.append({"name": "thread_name", "ph": "M", "pid": pid,
                     "tid": lane, "args": {"name": label}})
    return {
        "traceEvents": meta + out,
        "displayTimeUnit": "ms",
        "otherData": {"schema": _TRACE_SCHEMA, "origin_unix": t0,
                      "dropped_events": int(dropped)},
    }


def write_trace(path: str, payload: Dict[str, Any]) -> None:
    """Write a Chrome trace payload to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_trace(path: str) -> Dict[str, Any]:
    """Load a Chrome trace JSON file (as written by :func:`write_trace`)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError(f"{path}: not a Chrome trace-event file")
    return payload


def merge_traces(payloads: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge several Chrome trace payloads into one timeline.

    Events keep their own timestamps (all exports are wall-clock
    anchored); colliding pids between payloads are remapped so every
    source keeps distinct process tracks.
    """
    merged: List[Dict[str, Any]] = []
    used_pids: Dict[int, None] = {}
    next_free = 1
    for payload in payloads:
        events = payload.get("traceEvents", [])
        pids = {ev.get("pid") for ev in events if "pid" in ev}
        remap: Dict[int, int] = {}
        for pid in sorted(p for p in pids if p is not None):
            if pid in used_pids:
                while next_free in used_pids or next_free in pids:
                    next_free += 1
                remap[pid] = next_free
                used_pids.setdefault(next_free)
            else:
                used_pids.setdefault(pid)
        for ev in events:
            ev = dict(ev)
            if ev.get("pid") in remap:
                ev["pid"] = remap[ev["pid"]]
            merged.append(ev)
    return {"traceEvents": merged, "displayTimeUnit": "ms",
            "otherData": {"schema": _TRACE_SCHEMA,
                          "merged_from": len(payloads)}}


def summarize_events(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Aggregate a Chrome trace payload into per-(category, name) rows.

    Returns rows sorted by total time descending, each with ``count``,
    ``total_ms``, ``mean_ms`` and ``max_ms``; instant events count but
    contribute zero duration.
    """
    agg: Dict[Tuple[str, str], List[float]] = {}
    for ev in payload.get("traceEvents", []):
        if ev.get("ph") not in ("X", "i"):
            continue
        key = (str(ev.get("cat", "")), str(ev.get("name", "")))
        dur_ms = float(ev.get("dur", 0.0)) / 1e3
        row = agg.setdefault(key, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur_ms
        row[2] = max(row[2], dur_ms)
    out = []
    for (category, name), (count, total_ms, max_ms) in agg.items():
        out.append({"category": category, "name": name, "count": count,
                    "total_ms": total_ms,
                    "mean_ms": total_ms / count if count else 0.0,
                    "max_ms": max_ms})
    out.sort(key=lambda r: (-r["total_ms"], r["category"], r["name"]))
    return out
