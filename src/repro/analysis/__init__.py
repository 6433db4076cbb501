"""Static correctness layer: the repo-invariant linter.

Some project invariants are properties of the *source*, not of any run, so
no unit test can hold them.  This package checks them statically, surfaced
through ``repro analyze`` and ``make analyze``:

:mod:`repro.analysis.lint`
    **Repo-invariant linter.**  An AST pass over ``src/repro`` encoding the
    project rules that keep the block-ops seam sound: dense-block kernels
    route through :class:`~repro.symmetry.blockops.BlockOps`, library rng is
    seeded, custom profiler categories are explicit, shared-memory handles
    have a lifecycle, and the public ``ctf``/``analysis`` surface is
    documented.  Intentional exceptions carry an auditable
    ``# repro-lint: ok(<rule>)`` pragma with a reason.
"""

from .lint import (LintFinding, LintReport, RULES, format_lint_report,
                   run_lint)

__all__ = [
    "LintFinding", "LintReport", "RULES", "format_lint_report", "run_lint",
]
