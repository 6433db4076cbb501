"""Static correctness layer: analyzers that *prove* executor invariants.

Everything the executor stack guarantees today is checked dynamically — the
conformance suite asserts bit-identity of results, the leak guard asserts no
shared segment survives the session.  This package adds the static half: the
same class of tooling (happens-before race checking, project-rule linting)
that production training/inference stacks ship alongside their executors.

Two passes, surfaced through ``repro analyze`` and ``make analyze``:

:mod:`repro.analysis.schedule`
    **Schedule race detector.**  Extracts per-job read/write byte extents
    from the process executor's job descriptors (shared-memory panel slab +
    offset + strides, :mod:`repro.ctf.shm`), builds the happens-before
    relation implied by the dispatch structure (group barriers, result-pipe
    ordering, refcount-recycled scratch), and reports any pair of
    potentially-concurrent jobs whose accesses conflict.  Runs offline on a
    traced schedule, or online as an opt-in shadow checker
    (``REPRO_ANALYZE=shadow``) that raises the moment a conflicting job is
    submitted.

:mod:`repro.analysis.lint`
    **Repo-invariant linter.**  An AST pass over ``src/repro`` encoding the
    project rules that keep the executor seam sound: dense-block kernels
    route through :class:`~repro.symmetry.blockops.BlockOps`, library rng is
    seeded, custom profiler categories are explicit, shared-memory handles
    have a lifecycle, and the public ``ctf``/``analysis`` surface is
    documented.  Intentional exceptions carry an auditable
    ``# repro-lint: ok(<rule>)`` pragma with a reason.
"""

from .lint import (LintFinding, LintReport, RULES, format_lint_report,
                   run_lint)
from .schedule import (Extent, JobAccess, RaceFinding, ScheduleRaceError,
                       ScheduleReport, ScheduleTrace, check_trace,
                       extents_overlap, trace_executor_schedule)

__all__ = [
    "LintFinding", "LintReport", "RULES", "format_lint_report", "run_lint",
    "Extent", "JobAccess", "RaceFinding", "ScheduleRaceError",
    "ScheduleReport", "ScheduleTrace", "check_trace", "extents_overlap",
    "trace_executor_schedule",
]
