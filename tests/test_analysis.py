"""Tests for the static correctness layer (:mod:`repro.analysis`).

The repo-invariant linter: fixture files exercising every rule in the
catalogue plus the pragma suppression path, and the gate itself —
``src/repro`` lints clean.
"""

from __future__ import annotations

import itertools
import textwrap

from repro.analysis import run_lint


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

    def test_blockops_route_flags_panel_writes(self, tmp_path):
        """``np.copyto`` fills GEMM panels: the writes stay in BlockOps."""
        report = _lint_source(tmp_path, """
            import numpy as np
            def f(panel, blk):
                np.copyto(panel[:, :3], blk)
        """)
        assert [(f.rule, f.line) for f in report.findings] == \
            [("blockops-route", 4)]
        assert "np.copyto" in report.findings[0].message
        home = _lint_source(tmp_path, """
            import numpy as np
            def f(panel, blk):
                np.copyto(panel[:, :3], blk)
        """, name="blockops.py", subdir="symmetry")
        assert home.ok

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

    def test_stale_pragma_is_a_finding(self, tmp_path):
        """A pragma whose line no longer trips its rule is reported, so its
        reason cannot outlive the code it excused; pragma text inside a
        string is not a pragma."""
        report = _lint_source(tmp_path, """
            '''Quoted: ``x  # repro-lint: ok(seeded-rng): an example``.'''
            import numpy as np
            def f(a, b):
                return a @ b  # repro-lint: ok(blockops-route): was np.matmul
        """)
        assert [(f.rule, f.line) for f in report.findings] == \
            [("pragma-stale", 5)]


class TestTestOnlyRule:
    """The ``test-only`` rule: a library function no program file uses."""

    def test_flags_functions_only_tests_could_reach(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text('__all__ = ["orphan"]\n')
        (pkg / "lib.py").write_text(textwrap.dedent("""
            class Engine:
                def run(self):
                    return self.step()
                def step(self):
                    return 1
                def spare(self):
                    return self.spare()
                def kept(self):  # repro-lint: ok(test-only): test oracle
                    return 0
                def __len__(self):
                    return 0
            def orphan():
                return 2
            def _resolved():
                return 3
        """), encoding="utf-8")
        tools = tmp_path / "tools"
        tools.mkdir()
        (tools / "cli.py").write_text(textwrap.dedent("""
            from repro.lib import Engine
            Engine().run()
            TARGET = "repro.lib:_resolved"
        """), encoding="utf-8")
        report = run_lint(root=pkg, callers=[tools])
        assert [(f.rule, f.path, f.line) for f in report.findings] == [
            ("test-only", "lib.py", 7), ("test-only", "lib.py", 13)]
        assert report.suppressed == 1
        # without the program around it, the rule does not run
        assert run_lint(root=pkg).ok


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
