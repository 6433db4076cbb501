"""Repo-invariant linter: AST rules that keep the block-ops seam sound.

Several project invariants cannot be expressed as unit tests because they
are properties of the *source*, not of any particular run: a dense-block
numpy call that bypasses :class:`~repro.symmetry.blockops.BlockOps` is
bit-identical under the default implementation and only diverges when the
mixed-precision wrapper (or an injected implementation) is active; an
unseeded rng is deterministic per-process and only breaks reproducibility
across runs.
This pass encodes those rules over ``src/repro`` and fails ``make check``
the moment a violation lands.

Rule catalogue (:data:`RULES`):

``blockops-route``
    ``np.matmul``, ``np.tensordot`` and ``np.linalg.{svd,qr,eigh}`` are
    dense-block kernels and must route through ``BlockOps``; direct calls
    are allowed only in ``symmetry/blockops.py`` (the implementation home).
``seeded-rng``
    Library code must not draw from unseeded numpy generators:
    ``np.random.default_rng()`` / ``RandomState()`` without a seed and
    module-level sampler calls (``np.random.rand`` …) are flagged.
``profiler-category``
    ``Profiler.add`` with a literal category outside the canonical set
    must pass ``allow_custom=True`` — silent typos would vanish from the
    paper-figure accounting.
``shm-lifecycle``
    A module that constructs ``SharedMemory`` handles must also call both
    ``.close()`` and ``.unlink()`` somewhere — segments leak past process
    exit otherwise (``/dev/shm`` is not reclaimed on crash).
``docstrings``
    Public modules, classes, functions and methods under ``ctf/`` and
    ``analysis/`` carry docstrings (subsumes the retired
    ``tools/check_docstrings.py``).
``obs-span``
    Hot-path modules (the DMRG drivers, the matvec chain, the plan
    executor and the modelled-time profiler) acquire timing through the
    observability span API (:func:`repro.obs.trace.span` /
    ``timed_span``) instead of ad-hoc ``time.perf_counter()`` pairs, so
    every measured duration is also a trace span; none of them carries an
    exception.
``pragma-reason``
    Every suppression pragma must state *why* the exception is sound.

Intentional exceptions are suppressed line-by-line with an auditable
pragma::

    mk = np.linalg.eigh(h)  # repro-lint: ok(blockops-route): reason here

A pragma with no reason is itself a finding.  Run via ``repro analyze
--target lint`` or ``make analyze``.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["LintFinding", "LintReport", "RULES", "format_lint_report",
           "run_lint"]

#: rule id -> one-line description (the lint gate's public contract)
RULES: Dict[str, str] = {
    "blockops-route": ("dense-block numpy kernels (matmul/tensordot/"
                       "linalg.{svd,qr,eigh}) must route through BlockOps; "
                       "direct calls live only in symmetry/blockops.py"),
    "seeded-rng": ("library code must not use unseeded np.random "
                   "generators or module-level samplers"),
    "profiler-category": ("Profiler.add with a non-canonical literal "
                          "category requires allow_custom=True"),
    "shm-lifecycle": ("modules constructing SharedMemory must also call "
                      "close() and unlink()"),
    "docstrings": ("public modules/classes/functions under ctf/ and "
                   "analysis/ must carry docstrings"),
    "obs-span": ("hot-path modules must time code through repro.obs.trace "
                 "spans (span/timed_span), not ad-hoc time.perf_counter() "
                 "pairs"),
    "pragma-reason": ("every repro-lint ok(rule) suppression pragma must "
                      "carry a reason after a colon"),
}

#: canonical profiler categories (kept in sync by test_analysis.py)
_CANONICAL_CATEGORIES = ("gemm", "communication", "transposition", "svd",
                         "imbalance")

#: numpy entry points that constitute dense-block kernels
_DENSE_KERNELS = {"matmul", "tensordot"}
_DENSE_LINALG = {"svd", "qr", "eigh"}

#: np.random attributes that draw without an explicit seed
_RNG_SAMPLERS = {"rand", "randn", "randint", "random", "normal", "uniform",
                 "choice", "permutation", "shuffle", "standard_normal"}

#: files where direct dense-kernel numpy calls are the implementation
_KERNEL_HOME = ("symmetry/blockops.py",)

#: hot-path modules where ad-hoc perf_counter timing must be an obs span
#: (the profiler holds modelled seconds only and must never time code)
_OBS_SPAN_MODULES = ("dmrg/sweep.py", "dmrg/single_site.py",
                     "dmrg/excited.py", "dmrg/davidson.py",
                     "symmetry/matvec.py", "symmetry/engine.py",
                     "symmetry/planner.py", "ctf/profiler.py")

#: subpackages whose public surface must be documented
_DOC_ROOTS = ("ctf", "analysis")

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*ok\(([a-z0-9-]+)\)\s*(?::\s*(\S.*))?")


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at an exact source location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        """``path:line: [rule] message`` — editor-clickable."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class LintReport:
    """Aggregated lint outcome over a file set."""

    files_checked: int = 0
    suppressed: int = 0
    findings: List[LintFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no unsuppressed violation remains."""
        return not self.findings

    def counts(self) -> Dict[str, int]:
        """Violation count per rule (zero-filled over :data:`RULES`)."""
        out = {rule: 0 for rule in RULES}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary for the ``repro analyze --json`` artifact."""
        return {"files_checked": self.files_checked,
                "suppressed": self.suppressed,
                "rule_counts": self.counts(),
                "violations": [f.render() for f in self.findings],
                "ok": self.ok}


def _pragmas_for(source: str) -> Dict[int, Tuple[str, Optional[str]]]:
    """Map line number -> (rule, reason) for every suppression pragma."""
    out: Dict[int, Tuple[str, Optional[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _PRAGMA_RE.search(text)
        if m:
            out[lineno] = (m.group(1), m.group(2))
    return out


def _attr_chain(node: ast.AST) -> List[str]:
    """Flatten ``a.b.c`` into ``["a", "b", "c"]`` (empty if not a chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


class _FileLinter(ast.NodeVisitor):
    """Single-file AST walk collecting raw findings (pragmas applied later)."""

    def __init__(self, rel: str) -> None:
        self.rel = rel
        self.findings: List[LintFinding] = []
        self.shm_ctor_lines: List[int] = []
        self.has_close = False
        self.has_unlink = False
        self.kernel_home = rel.endswith(_KERNEL_HOME)
        self.obs_scope = rel.endswith(_OBS_SPAN_MODULES)

    def _flag(self, rule: str, line: int, message: str) -> None:
        self.findings.append(LintFinding(rule, self.rel, line, message))

    # -- per-call rules ----------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        self._check_dense_kernel(node, chain)
        self._check_rng(node, chain)
        self._check_profiler(node)
        self._check_shm(node, chain)
        self._check_obs_span(node, chain)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "close":
            self.has_close = True
        elif node.attr == "unlink":
            self.has_unlink = True
        self.generic_visit(node)

    def _check_dense_kernel(self, node: ast.Call, chain: List[str]) -> None:
        if self.kernel_home or len(chain) < 2 or chain[0] not in ("np",
                                                                  "numpy"):
            return
        name = None
        if len(chain) == 2 and chain[1] in _DENSE_KERNELS:
            name = chain[1]
        elif len(chain) == 3 and chain[1] == "linalg" and \
                chain[2] in _DENSE_LINALG:
            name = f"linalg.{chain[2]}"
        if name:
            self._flag("blockops-route", node.lineno,
                       f"direct np.{name} call bypasses BlockOps")

    def _check_rng(self, node: ast.Call, chain: List[str]) -> None:
        if len(chain) < 3 or chain[0] not in ("np", "numpy") or \
                chain[1] != "random":
            return
        tail = chain[2]
        if tail in ("default_rng", "RandomState") and not node.args and \
                not node.keywords:
            self._flag("seeded-rng", node.lineno,
                       f"np.random.{tail}() without an explicit seed")
        elif tail in _RNG_SAMPLERS:
            self._flag("seeded-rng", node.lineno,
                       f"module-level sampler np.random.{tail} draws from "
                       "unseeded global state")

    def _check_profiler(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Attribute) and
                node.func.attr == "add" and len(node.args) >= 2):
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and
                isinstance(first.value, str)):
            return
        if first.value in _CANONICAL_CATEGORIES:
            return
        for kw in node.keywords:
            if kw.arg == "allow_custom" and \
                    isinstance(kw.value, ast.Constant) and \
                    kw.value.value is True:
                return
        self._flag("profiler-category", node.lineno,
                   f"custom profiler category {first.value!r} without "
                   "allow_custom=True")

    def _check_obs_span(self, node: ast.Call, chain: List[str]) -> None:
        if self.obs_scope and chain == ["time", "perf_counter"]:
            self._flag("obs-span", node.lineno,
                       "ad-hoc time.perf_counter() in a hot-path module; "
                       "acquire timing through repro.obs.trace "
                       "span/timed_span")

    def _check_shm(self, node: ast.Call, chain: List[str]) -> None:
        if (chain and chain[-1] == "SharedMemory") or \
                (isinstance(node.func, ast.Name) and
                 node.func.id == "SharedMemory"):
            self.shm_ctor_lines.append(node.lineno)

    # -- file-level rules --------------------------------------------------
    def finish(self) -> None:
        """Emit rules that need whole-file evidence (shm lifecycle)."""
        if self.shm_ctor_lines and not (self.has_close and self.has_unlink):
            missing = [m for m, ok in (("close()", self.has_close),
                                       ("unlink()", self.has_unlink))
                       if not ok]
            self._flag("shm-lifecycle", self.shm_ctor_lines[0],
                       "SharedMemory constructed here but module never "
                       f"calls {' or '.join(missing)}")


def _check_docstrings(tree: ast.Module, rel: str,
                      linter: _FileLinter) -> None:
    """Docstring presence for the public surface (ctf/ and analysis/)."""
    if not any(f"/{root}/" in f"/{rel}" or rel.startswith(f"{root}/")
               for root in _DOC_ROOTS):
        return
    if ast.get_docstring(tree) is None:
        linter._flag("docstrings", 1, "module lacks a docstring")
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        members = [(node, node.name)]
        if isinstance(node, ast.ClassDef):
            members += [(sub, f"{node.name}.{sub.name}")
                        for sub in node.body
                        if isinstance(sub, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                        and not sub.name.startswith("_")]
        for defn, name in members:
            if ast.get_docstring(defn) is None:
                kind = ("class" if isinstance(defn, ast.ClassDef)
                        else "function")
                linter._flag("docstrings", defn.lineno,
                             f"public {kind} {name!r} lacks a docstring")


def lint_file(path: pathlib.Path, rel: Optional[str] = None
              ) -> Tuple[List[LintFinding], int]:
    """Lint one file; return (surviving findings, suppressed count)."""
    rel = rel if rel is not None else str(path)
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=rel)
    linter = _FileLinter(rel)
    linter.visit(tree)
    linter.finish()
    _check_docstrings(tree, rel, linter)

    pragmas = _pragmas_for(source)
    survived: List[LintFinding] = []
    suppressed = 0
    for f in linter.findings:
        pragma = pragmas.get(f.line)
        if pragma and pragma[0] == f.rule:
            if pragma[1]:
                suppressed += 1
                continue
            survived.append(LintFinding(
                "pragma-reason", rel, f.line,
                f"pragma ok({f.rule}) suppresses a finding but states "
                "no reason"))
            continue
        survived.append(f)
    # pragmas must carry reasons even when they match nothing yet
    for lineno, (rule, reason) in pragmas.items():
        if reason is None and not any(
                s.rule == "pragma-reason" and s.line == lineno
                for s in survived):
            survived.append(LintFinding(
                "pragma-reason", rel, lineno,
                f"pragma ok({rule}) carries no reason"))
    return survived, suppressed


def run_lint(root: Optional[pathlib.Path] = None,
             paths: Optional[Sequence[pathlib.Path]] = None) -> LintReport:
    """Lint the library source tree (or an explicit file list).

    ``root`` defaults to the ``src/repro`` package directory resolved from
    this module's location, so the gate works from any cwd.  ``paths``
    overrides discovery entirely (used by the fixture tests).
    """
    report = LintReport()
    if paths is None:
        base = root if root is not None else \
            pathlib.Path(__file__).resolve().parent.parent
        files = sorted(base.rglob("*.py"))
        rels = [str(f.relative_to(base)) for f in files]
    else:
        files = list(paths)
        rels = [f.name for f in files]
    for f, rel in zip(files, rels):
        findings, suppressed = lint_file(f, rel)
        report.files_checked += 1
        report.suppressed += suppressed
        report.findings.extend(findings)
    report.findings.sort(key=lambda x: (x.path, x.line, x.rule))
    return report


def format_lint_report(report: LintReport) -> str:
    """Human-readable multi-line summary of a :class:`LintReport`."""
    lines = [f.render() for f in report.findings]
    counts = ", ".join(f"{rule}={n}" for rule, n in report.counts().items()
                       if n)
    tail = (f"lint: {report.files_checked} files, "
            f"{report.suppressed} suppressed, "
            f"{'OK' if report.ok else f'{len(report.findings)} violation(s)'}")
    if counts:
        tail += f" ({counts})"
    return "\n".join(lines + [tail])
