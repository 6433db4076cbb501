"""Tests for the static correctness layer (:mod:`repro.analysis`).

Two groups, one per pass:

* **schedule** — extent-overlap geometry, happens-before replay, seeded
  defects (a traced schedule mutated so two concurrent write extents
  overlap must be reported with the exact job pair), and the online shadow
  checker raising at submit time;
* **lint** — fixture files exercising every rule in the catalogue plus the
  pragma suppression path, and the gate itself: ``src/repro`` lints clean.
"""

from __future__ import annotations

import itertools
import textwrap

import numpy as np
import pytest

from repro.analysis import (Extent, ScheduleRaceError, ScheduleTrace,
                            check_trace, extents_overlap, run_lint)
from repro.analysis.schedule import JobAccess, _payload_extents


# --------------------------------------------------------------------------- #
# schedule: extent geometry
# --------------------------------------------------------------------------- #

def _extent(offset, shape, strides, itemsize=8, segment="seg"):
    return Extent(segment=segment, offset=offset, shape=tuple(shape),
                  strides=tuple(strides), itemsize=itemsize)


class TestExtentOverlap:
    """Exact strided-byte-range intersection."""

    def test_disjoint_row_slices(self):
        # rows [0:2) and [2:4) of a C-contiguous (4, 8) float64 matrix
        a = _extent(0, (2, 8), (64, 8))
        b = _extent(128, (2, 8), (64, 8))
        assert not extents_overlap(a, b)

    def test_same_bytes(self):
        a = _extent(0, (4, 8), (64, 8))
        assert extents_overlap(a, a)

    def test_interleaved_columns_do_not_overlap(self):
        # even vs odd columns of an (8, 8) matrix: spans overlap but the
        # contiguous runs interleave without touching
        even = _extent(0, (8, 4), (64, 16))
        odd = _extent(8, (8, 4), (64, 16))
        assert not extents_overlap(even, odd)

    def test_transposed_view_overlaps_itself(self):
        plain = _extent(0, (4, 8), (64, 8))
        transposed = _extent(0, (8, 4), (8, 64))
        assert extents_overlap(plain, transposed)

    def test_different_segments_never_overlap(self):
        a = _extent(0, (4, 8), (64, 8), segment="s1")
        b = _extent(0, (4, 8), (64, 8), segment="s2")
        assert not extents_overlap(a, b)

    def test_descriptor_roundtrip(self):
        desc = ("shm", "seg", 64, (3, 5), (40, 8), "<f8")
        e = Extent.from_descriptor(desc)
        assert e is not None
        assert e.span() == (64, 64 + 2 * 40 + 4 * 8 + 8)
        assert Extent.from_descriptor(("arr", np.zeros(3))) is None


# --------------------------------------------------------------------------- #
# schedule: happens-before replay + seeded defects
# --------------------------------------------------------------------------- #

def _gemm_access(job_id, out_offset, rows=2, row_bytes=64, segment="seg"):
    """A gemm job writing ``rows`` C-contiguous rows at ``out_offset``."""
    payload = (("arr", None), ("arr", None),
               ("shm", segment, out_offset, (rows, row_bytes // 8),
                (row_bytes, 8), "<f8"))
    reads, writes = _payload_extents("gemm", payload)
    return JobAccess(job_id, "gemm", reads, writes)


class TestScheduleReplay:
    """Offline replay of traced executor schedules."""

    def test_disjoint_group_is_clean(self):
        # a row-split group: three jobs, disjoint output rows, barrier after
        events = [("submit", _gemm_access(1, 0)),
                  ("submit", _gemm_access(2, 128)),
                  ("submit", _gemm_access(3, 256)),
                  ("complete", 1), ("complete", 2), ("complete", 3)]
        report = check_trace(events)
        assert report.ok
        assert report.jobs == 3 and report.pairs_checked == 3

    def test_mutated_overlapping_writes_name_the_exact_pair(self):
        # seeded defect: job 3's write extent mutated to overlap job 2's
        events = [("submit", _gemm_access(1, 0)),
                  ("submit", _gemm_access(2, 128)),
                  ("submit", _gemm_access(3, 160)),
                  ("complete", 1), ("complete", 2), ("complete", 3)]
        report = check_trace(events)
        assert not report.ok
        (finding,) = report.findings
        assert finding.kind == "write-write"
        assert {finding.job_a, finding.job_b} == {2, 3}
        assert "job 2" in finding.render() and "job 3" in finding.render()

    def test_completion_orders_the_same_extent(self):
        # same bytes written twice is fine when the first completion is
        # observed before the second submit (happens-before edge)
        events = [("submit", _gemm_access(1, 0)), ("complete", 1),
                  ("submit", _gemm_access(2, 0)), ("complete", 2)]
        assert check_trace(events).ok

    def test_read_write_conflict(self):
        write = _gemm_access(1, 0)
        reader_payload = (("shm", "seg", 0, (2, 8), (64, 8), "<f8"),
                          ("arr", None), None)
        reads, writes = _payload_extents("gemm", reader_payload)
        events = [("submit", write),
                  ("submit", JobAccess(2, "gemm", reads, writes)),
                  ("complete", 1), ("complete", 2)]
        report = check_trace(events)
        assert not report.ok
        assert report.findings[0].kind == "read-write"

    def test_reuse_in_flight_is_reported(self):
        events = [("submit", _gemm_access(7, 0)),
                  ("reuse", _extent(0, (16,), (8,))),
                  ("complete", 7)]
        report = check_trace(events)
        assert not report.ok
        (finding,) = report.findings
        assert finding.kind == "reuse-in-flight" and finding.job_a == 7

    def test_reuse_after_completion_is_clean(self):
        events = [("submit", _gemm_access(7, 0)), ("complete", 7),
                  ("reuse", _extent(0, (16,), (8,)))]
        assert check_trace(events).ok


class TestShadowChecker:
    """Online mode: conflicts raise at the moment of the bad event."""

    def test_conflicting_submit_raises(self):
        trace = ScheduleTrace(shadow=True)
        a = _gemm_access(1, 0)
        b = _gemm_access(2, 32)  # overlaps job 1's rows
        trace.record_submit(a.job_id, "gemm",
                            (("arr", None), ("arr", None),
                             ("shm", "seg", 0, (2, 8), (64, 8), "<f8")))
        with pytest.raises(ScheduleRaceError, match="job 1"):
            trace.record_submit(b.job_id, "gemm",
                                (("arr", None), ("arr", None),
                                 ("shm", "seg", 32, (2, 8), (64, 8), "<f8")))

    def test_ordered_submits_pass(self):
        trace = ScheduleTrace(shadow=True)
        payload = (("arr", None), ("arr", None),
                   ("shm", "seg", 0, (2, 8), (64, 8), "<f8"))
        trace.record_submit(1, "gemm", payload)
        trace.record_complete(1)
        trace.record_submit(2, "gemm", payload)  # ordered: no raise
        assert trace.snapshot().ok


def test_live_executor_trace_is_race_free():
    """A real traced schedule (workers, row-splits, scratch reuse) is clean."""
    from repro.analysis import trace_executor_schedule

    report = trace_executor_schedule(nsites=6, maxdim=8, applies=2)
    assert report.ok, report.render()
    assert report.shm_jobs > 0 and report.pairs_checked > 0


# --------------------------------------------------------------------------- #
# lint: fixtures for every rule + the pragma path
# --------------------------------------------------------------------------- #

_FIXTURE_SEQ = itertools.count()


def _lint_source(tmp_path, source, name="fixture.py", subdir=None):
    """Write a fixture file into a fresh root and lint it (root-relative)."""
    root = tmp_path / f"pkg{next(_FIXTURE_SEQ)}"
    target = root if subdir is None else root / subdir
    target.mkdir(parents=True, exist_ok=True)
    (target / name).write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint(root=root)


class TestLintRules:
    """One fixture per rule in the catalogue."""

    def test_blockops_route(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np
            def f(a, b):
                np.matmul(a, b)
                np.tensordot(a, b, axes=1)
                np.linalg.svd(a)
                np.linalg.qr(a)
                np.linalg.eigh(a)
        """)
        assert sum(1 for f in report.findings
                   if f.rule == "blockops-route") == 5

    def test_blockops_route_allowed_in_kernel_home(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np
            def f(a, b):
                return np.matmul(a, b)
        """, name="blockops.py", subdir="symmetry")
        assert report.ok

    def test_seeded_rng(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np
            r1 = np.random.default_rng()
            r2 = np.random.RandomState()
            x = np.random.rand(3)
            ok = np.random.default_rng(7)
        """)
        assert sum(1 for f in report.findings
                   if f.rule == "seeded-rng") == 3

    def test_profiler_category(self, tmp_path):
        report = _lint_source(tmp_path, """
            def f(prof):
                prof.add("warp-drive", 1.0)
                prof.add("gemm", 1.0)
                prof.add("warp-drive", 1.0, allow_custom=True)
        """)
        hits = [f for f in report.findings if f.rule == "profiler-category"]
        assert len(hits) == 1 and hits[0].line == 3

    def test_shm_lifecycle(self, tmp_path):
        bad = _lint_source(tmp_path, """
            from multiprocessing.shared_memory import SharedMemory
            def f():
                return SharedMemory(create=True, size=64)
        """)
        assert any(f.rule == "shm-lifecycle" for f in bad.findings)
        good = _lint_source(tmp_path, """
            from multiprocessing.shared_memory import SharedMemory
            def f():
                seg = SharedMemory(create=True, size=64)
                seg.unlink()
                seg.close()
        """)
        assert good.ok

    def test_docstrings_scoped_to_documented_packages(self, tmp_path):
        bad = _lint_source(tmp_path, """
            def public():
                pass
        """, subdir="ctf")
        rules = {f.rule for f in bad.findings}
        assert "docstrings" in rules  # module + function both lack one
        elsewhere = _lint_source(tmp_path, """
            def public():
                pass
        """, subdir="mps")
        assert elsewhere.ok

    def test_pragma_suppresses_with_reason(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np
            def f(a, b):
                return np.matmul(a, b)  # repro-lint: ok(blockops-route): fixture exercising the pragma path
        """)
        assert report.ok and report.suppressed == 1

    def test_pragma_without_reason_is_a_finding(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np
            def f(a, b):
                return np.matmul(a, b)  # repro-lint: ok(blockops-route)
        """)
        assert not report.ok
        assert all(f.rule == "pragma-reason" for f in report.findings)

    def test_pragma_for_wrong_rule_does_not_suppress(self, tmp_path):
        report = _lint_source(tmp_path, """
            import numpy as np
            def f(a, b):
                return np.matmul(a, b)  # repro-lint: ok(seeded-rng): wrong rule on purpose
        """)
        assert any(f.rule == "blockops-route" for f in report.findings)


def test_repo_lints_clean():
    """The gate itself: ``src/repro`` has no unsuppressed violations."""
    report = run_lint()
    assert report.ok, "\n".join(f.render() for f in report.findings)
    assert report.files_checked > 50


def test_profiler_categories_in_sync():
    """The linter's canonical category set tracks the profiler's."""
    from repro.analysis.lint import _CANONICAL_CATEGORIES
    from repro.ctf.profiler import CATEGORIES

    assert tuple(_CANONICAL_CATEGORIES) == tuple(CATEGORIES)


# --------------------------------------------------------------------------- #
# shm extents (satellite: explicit (slab_id, offset, nbytes) handles)
# --------------------------------------------------------------------------- #

class TestShmExtents:
    """Exact allocation extents recorded and bounds-checked at carve time."""

    def test_extent_of_reports_exact_ranges(self):
        from repro.ctf.shm import ShmArena

        arena = ShmArena()
        try:
            a = arena.allocate((16,), np.float64)
            b = arena.allocate((16,), np.float64)
            ea, eb = arena.extent_of(a), arena.extent_of(b)
            assert ea is not None and eb is not None
            assert ea[2] == eb[2] == 16 * 8
            # same slab, disjoint byte ranges
            assert ea[0] == eb[0]
            lo_a, hi_a = ea[1], ea[1] + ea[2]
            lo_b, hi_b = eb[1], eb[1] + eb[2]
            assert hi_a <= lo_b or hi_b <= lo_a
            # any view maps to its root allocation's extent
            assert arena.extent_of(a.reshape(4, 4)[1:, :2]) == ea
            assert arena.extent_of(np.zeros(4)) is None
        finally:
            arena.release_all()

    def test_descriptor_offsets_stay_within_extent(self):
        from repro.analysis.schedule import Extent
        from repro.ctf.shm import ShmArena

        arena = ShmArena()
        try:
            a = arena.allocate((8, 8), np.float64)
            view = a[2:5, ::2]
            desc = arena.describe(view)
            extent = Extent.from_descriptor(desc)
            name, offset, nbytes = arena.extent_of(a)
            lo, hi = extent.span()
            assert extent.segment == name
            assert offset <= lo and hi <= offset + nbytes
        finally:
            arena.release_all()
