"""Shared-memory panels for the process-parallel executor.

The process executor (:mod:`repro.symmetry.procops`) runs the planner's
independent GEMM groups on worker processes.  Its operand panels — the
matricized operands pinned once per contraction, the fused concat panels
and batch stacks, and the disjoint output slices the workers write — live in
``multiprocessing.shared_memory`` segments so the parent and every worker
address the *same* bytes: dispatching a GEMM ships a small descriptor tuple,
never the matrix.

This module owns the segment lifecycle:

* :class:`ShmArena` creates segments, hands out numpy views, and resolves any
  view derived from those segments back to a picklable descriptor
  ``("shm", name, offset, shape, strides, dtype)``.
* :func:`resolve_descriptor` is the worker-side inverse: it attaches the
  named segment (cached per worker) and rebuilds the exact strided view, so
  a worker can read operand panels and write its disjoint output slice in
  place.
* A module-level registry of every segment created by this process backs the
  test suite's leak guard (:func:`live_segment_names`): a segment that was
  never unlinked is a leak, whatever code allocated it.

Unlinking is decoupled from unmapping: ``release_all`` always removes the
segment names from the filesystem (so nothing leaks past process exit), but
tolerates ``BufferError`` from ``close()`` while numpy views of the mapping
are still alive — the memory itself is reclaimed when the last view dies.
"""

from __future__ import annotations

import threading
from multiprocessing import shared_memory as _shm
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["ShmArena", "attach_segment", "live_segment_names",
           "resolve_descriptor"]

#: every segment created (and not yet unlinked) by this process, by name;
#: the session-scoped test guard asserts this is empty at teardown
_LIVE: Dict[str, _shm.SharedMemory] = {}
_LIVE_LOCK = threading.Lock()


def live_segment_names() -> Tuple[str, ...]:
    """Names of shared-memory segments this process created but not unlinked."""
    with _LIVE_LOCK:
        return tuple(sorted(_LIVE))


#: whether :func:`attach_segment` should unregister attached segments from
#: this process's resource tracker.  ``fork``-started workers share the
#: creator's tracker, so their attach registrations are idempotent and must
#: be *kept* (unregistering would drop the creator's own registration);
#: ``spawn``-started workers own a separate tracker that would unlink the
#: creator's segments at worker exit, so there the attach must be untracked.
#: The process executor sets this inside each worker to match its start
#: method.
UNTRACK_ATTACHES = False


def _untrack(segment: _shm.SharedMemory) -> None:
    """Detach a segment from this process's resource tracker.

    Python 3.13 grew ``SharedMemory(track=False)`` for this; on 3.11 an
    attaching process registers the segment with its resource tracker, which
    would unlink it (with a spurious warning) when *that* process exits even
    though the creating process still owns it.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker layout differs per version
        pass


def attach_segment(name: str, untrack: Optional[bool] = None
                   ) -> _shm.SharedMemory:
    """Open an existing segment by name without taking ownership of it."""
    if untrack is None:
        untrack = UNTRACK_ATTACHES
    if untrack:
        try:
            return _shm.SharedMemory(name=name, create=False, track=False)
        except TypeError:  # Python < 3.13: no ``track`` parameter
            segment = _shm.SharedMemory(name=name, create=False)
            _untrack(segment)
            return segment
    return _shm.SharedMemory(name=name, create=False)


def resolve_descriptor(desc, cache: Dict[str, _shm.SharedMemory]) -> np.ndarray:
    """Rebuild the array a descriptor names (worker side).

    ``("arr", ndarray)`` descriptors carry the (pickled) array itself —
    small or private operands travel by value.  ``("shm", ...)`` descriptors
    rebuild a strided view over the named segment; attaches are cached in
    ``cache`` so each worker maps each segment once.
    """
    kind = desc[0]
    if kind == "arr":
        return desc[1]
    _, name, offset, shape, strides, dtype = desc
    segment = cache.get(name)
    if segment is None:
        segment = attach_segment(name)
        cache[name] = segment
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf,
                      offset=offset, strides=strides)


def _root_of(arr: np.ndarray) -> np.ndarray:
    """The top ndarray of a view chain (its base is the raw buffer)."""
    base = arr
    while isinstance(base.base, np.ndarray):
        base = base.base
    return base


class ShmArena:
    """Creates shared-memory segments and maps numpy views onto them.

    Small allocations are carved out of shared *slab* segments with a bump
    pointer; only requests of at least :attr:`SLAB_BYTES` get a dedicated
    segment.  This keeps the segment count (and with it the file-descriptor
    cost — every mapped segment holds an fd open in the parent *and* in each
    worker that attaches it) proportional to bytes allocated, not calls
    made: a long session pinning thousands of tiny operand panels stays at
    a handful of segments.  Any view later derived from a returned array
    (reshape, slice, transpose) can be resolved back to a ``("shm", ...)``
    descriptor through :meth:`describe`.  :meth:`release_all` unlinks every
    segment the arena created.
    """

    #: slab granularity; requests >= this size get their own segment
    SLAB_BYTES = 1 << 20
    #: carve alignment inside a slab (numpy's own allocator alignment)
    SLAB_ALIGN = 64

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: Dict[str, _shm.SharedMemory] = {}
        #: id(root ndarray) -> (segment name, segment base address, byte
        #: offset of the allocation, allocation nbytes): the exact extent of
        #: every panel handle, recorded at carve time so the race detector
        #: reads byte ranges instead of reconstructing them.  The root
        #: arrays are kept referenced so the ids stay valid for the arena's
        #: lifetime.
        self._roots: Dict[int, Tuple[str, int, int, int]] = {}
        self._root_arrays: List[np.ndarray] = []
        #: current slab: (segment, base address, bump offset) or None
        self._slab: Optional[Tuple[_shm.SharedMemory, int, int]] = None
        #: total bytes of segments ever created (for describe()/reports)
        self.total_bytes = 0

    def _new_segment(self, nbytes: int) -> Tuple[_shm.SharedMemory, int]:
        """Create and register a segment; returns it with its base address.

        Caller must hold ``self._lock``.
        """
        segment = _shm.SharedMemory(create=True, size=nbytes)
        base = np.ndarray((segment.size,), dtype=np.uint8,
                          buffer=segment.buf).__array_interface__["data"][0]
        self._segments[segment.name] = segment
        self.total_bytes += nbytes
        with _LIVE_LOCK:
            _LIVE[segment.name] = segment
        return segment, base

    def allocate(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous array of ``shape``/``dtype`` in shared memory."""
        dtype = np.dtype(dtype)
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = max(1, size * dtype.itemsize)
        with self._lock:
            if nbytes >= self.SLAB_BYTES:
                segment, base = self._new_segment(nbytes)
                offset = 0
            else:
                if self._slab is not None:
                    segment, base, used = self._slab
                    if used + nbytes > segment.size:
                        self._slab = None
                if self._slab is None:
                    segment, base = self._new_segment(self.SLAB_BYTES)
                    used = 0
                offset = used
                step = -(-nbytes // self.SLAB_ALIGN) * self.SLAB_ALIGN
                self._slab = (segment, base, used + step)
            if offset < 0 or offset + nbytes > segment.size:
                raise ValueError(
                    f"allocation extent [{offset}, {offset + nbytes}) "
                    f"escapes segment {segment.name!r} of {segment.size} "
                    "bytes")
            root = np.ndarray((size,), dtype=dtype, buffer=segment.buf,
                              offset=offset)
            self._roots[id(root)] = (segment.name, base, offset, nbytes)
            self._root_arrays.append(root)
        return root.reshape(shape)

    def owns(self, arr: np.ndarray) -> bool:
        """Whether ``arr`` is a view into one of this arena's segments."""
        with self._lock:
            return id(_root_of(arr)) in self._roots

    def describe(self, arr: np.ndarray) -> Optional[tuple]:
        """The ``("shm", ...)`` descriptor of an arena-backed view, or None."""
        root = _root_of(arr)
        with self._lock:
            entry = self._roots.get(id(root))
        if entry is None:
            return None
        name, base_addr, _, _ = entry
        offset = arr.__array_interface__["data"][0] - base_addr
        return ("shm", name, int(offset), arr.shape, arr.strides,
                arr.dtype.str)

    def extent_of(self, arr: np.ndarray) -> Optional[Tuple[str, int, int]]:
        """Exact ``(slab_id, offset, nbytes)`` extent of a panel handle.

        The extent of the *allocation* backing ``arr`` (any view of it maps
        to the same extent), recorded and bounds-checked at carve time;
        ``None`` for arrays the arena does not own.
        """
        with self._lock:
            entry = self._roots.get(id(_root_of(arr)))
        if entry is None:
            return None
        name, _, offset, nbytes = entry
        return (name, offset, nbytes)

    def segment_names(self) -> Tuple[str, ...]:
        """Names of the live segments this arena created."""
        with self._lock:
            return tuple(sorted(self._segments))

    def release_all(self) -> None:
        """Unlink every segment (views already handed out stay readable).

        The name always goes away — nothing can leak past process exit —
        but ``close()`` is best-effort: numpy views still referencing the
        mapping raise ``BufferError``, and the pages are freed when the last
        view is garbage-collected instead.
        """
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
            self._roots.clear()
            self._root_arrays = []
            self._slab = None
        for segment in segments:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            with _LIVE_LOCK:
                _LIVE.pop(segment.name, None)
            try:
                segment.close()
            except BufferError:
                pass
