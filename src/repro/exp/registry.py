"""Content-addressed, append-only run registry with bench history.

Every campaign run lands in ``benchmarks/results/history/<run-id>/``: the
spec that produced it, the full report JSON (energies, plan-cache hit rates,
layout moves/reuses, modelled seconds — the same artifact ``repro run
--output`` writes), and a meta record with status, wall time and git
metadata.  Records are *append-only*: re-executing a spec appends a new
numbered attempt instead of overwriting, so the bench history across commits
stays diffable mechanically (the ROADMAP's open item on archiving bench
artifacts).

The registry is also the scheduler's memory: a run id with a completed
attempt is skipped on re-execution, and an interrupted run leaves its
``checkpoint.npz`` in the record directory for the next attempt to resume
from.

Layout::

    benchmarks/results/history/<run-id>/
        spec.json            the canonical spec (written once)
        checkpoint.npz       scratch while a run is in flight (removed on
                             success, kept for resume after interrupt)
        attempt-000/
            report.json      full run report (absent for failed attempts)
            meta.json        status, error, seconds, git commit, timestamps
        attempt-001/ ...     appended by later executions (--force, retries)
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import diff_metrics
from .spec import RunSpec

#: default registry location, relative to the working directory
DEFAULT_HISTORY_DIR = Path("benchmarks") / "results" / "history"

META_SCHEMA = "repro-run-meta/1"

#: attempt statuses a record can carry
STATUSES = ("completed", "failed", "timeout", "interrupted")


def git_metadata(cwd: str | Path | None = None) -> Dict[str, object]:
    """Best-effort git commit/branch/dirty metadata (empty outside a repo)."""
    meta: Dict[str, object] = {}
    try:
        def _git(*args: str) -> str:
            return subprocess.run(
                ["git", *args], cwd=cwd, capture_output=True, text=True,
                timeout=5, check=True).stdout.strip()
        meta["commit"] = _git("rev-parse", "HEAD")
        meta["branch"] = _git("rev-parse", "--abbrev-ref", "HEAD")
        meta["dirty"] = bool(_git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        pass
    return meta


@dataclass
class RunRecord:
    """One attempt of one run: spec + report + meta, loaded from disk."""

    run_id: str
    spec: Dict[str, object]
    meta: Dict[str, object]
    report: Optional[Dict[str, object]] = None
    path: Optional[Path] = None

    @property
    def status(self) -> str:
        """The attempt's status (``completed`` / ``failed`` / ...)."""
        return str(self.meta.get("status", "unknown"))

    @property
    def energy(self) -> Optional[float]:
        """Final energy, if the attempt produced a report."""
        if self.report and self.report.get("energies"):
            return float(self.report["energies"][0])
        return None

    @property
    def modelled_seconds(self) -> Optional[float]:
        """Modelled seconds on the simulated machine (``None`` if direct)."""
        if self.report and "modelled_seconds" in self.report:
            return float(self.report["modelled_seconds"])
        return None

    @property
    def seconds(self) -> float:
        """Wall-clock seconds of the attempt."""
        return float(self.meta.get("seconds", 0.0))

    @property
    def metrics(self) -> Dict[str, float]:
        """Flat unified-metrics mapping of the attempt (empty if absent).

        New reports carry ``report["metrics"]`` (see
        :func:`repro.obs.metrics.run_metrics`); records archived before the
        metrics registry existed simply return ``{}`` and diff cleanly.
        """
        if self.report and isinstance(self.report.get("metrics"), dict):
            return {str(k): float(v)
                    for k, v in self.report["metrics"].items()
                    if isinstance(v, (int, float))}
        return {}


@dataclass
class RunDiff:
    """The comparison of two run records (``repro history --diff A B``)."""

    run_a: str
    run_b: str
    spec_changes: Dict[str, Tuple[object, object]] = field(default_factory=dict)
    energy_a: Optional[float] = None
    energy_b: Optional[float] = None
    modelled_seconds_a: Optional[float] = None
    modelled_seconds_b: Optional[float] = None
    seconds_a: float = 0.0
    seconds_b: float = 0.0
    #: human-readable regression findings (empty = no regression)
    regressions: List[str] = field(default_factory=list)
    #: human-readable improvements (informational)
    improvements: List[str] = field(default_factory=list)
    #: every watched metric that moved, mapped to its ``(a, b)`` values
    metric_changes: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def energy_delta(self) -> Optional[float]:
        if self.energy_a is None or self.energy_b is None:
            return None
        return self.energy_b - self.energy_a

    @property
    def modelled_seconds_delta(self) -> Optional[float]:
        if self.modelled_seconds_a is None or self.modelled_seconds_b is None:
            return None
        return self.modelled_seconds_b - self.modelled_seconds_a

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)

    def as_dict(self) -> Dict[str, object]:
        """JSON-native form (for ``repro history --diff ... --json``)."""
        return {
            "run_a": self.run_a, "run_b": self.run_b,
            "spec_changes": {k: list(v) for k, v in self.spec_changes.items()},
            "energy_a": self.energy_a, "energy_b": self.energy_b,
            "energy_delta": self.energy_delta,
            "modelled_seconds_a": self.modelled_seconds_a,
            "modelled_seconds_b": self.modelled_seconds_b,
            "modelled_seconds_delta": self.modelled_seconds_delta,
            "seconds_a": self.seconds_a, "seconds_b": self.seconds_b,
            "regressions": list(self.regressions),
            "improvements": list(self.improvements),
            "metric_changes": {k: list(v)
                               for k, v in self.metric_changes.items()},
            "regressed": self.regressed,
        }


class RunRegistry:
    """The on-disk run store rooted at ``benchmarks/results/history/``."""

    def __init__(self, root: str | Path = DEFAULT_HISTORY_DIR):
        self.root = Path(root)

    # -- paths -------------------------------------------------------------- #
    def record_dir(self, run_id: str) -> Path:
        """The record directory of a run id (not necessarily existing)."""
        return self.root / run_id

    def checkpoint_path(self, run_id: str) -> Path:
        """Where an in-flight run of this id keeps its DMRG checkpoint."""
        return self.record_dir(run_id) / "checkpoint.npz"

    def attempt_dirs(self, run_id: str) -> List[Path]:
        """Existing attempt directories of a run id, oldest first."""
        record = self.record_dir(run_id)
        if not record.is_dir():
            return []
        return sorted(p for p in record.iterdir()
                      if p.is_dir() and p.name.startswith("attempt-"))

    # -- queries ------------------------------------------------------------ #
    def run_ids(self) -> List[str]:
        """Every run id with a record directory."""
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def resolve(self, prefix: str) -> str:
        """Expand a unique run-id prefix to the full id."""
        ids = self.run_ids()
        if prefix in ids:
            return prefix
        matches = [i for i in ids if i.startswith(prefix)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(f"no run matches {prefix!r} in {self.root}")
        raise KeyError(f"ambiguous run id {prefix!r}: matches {matches}")

    def load(self, run_id: str, attempt: int = -1) -> RunRecord:
        """Load one attempt of a run (default: the latest *recorded* one).

        An attempt directory without a readable ``meta.json`` (a worker
        killed mid-record) is skipped when the default latest attempt is
        requested; an explicit ``attempt`` index is honored as-is.
        """
        run_id = self.resolve(run_id)
        attempts = self.attempt_dirs(run_id)
        if not attempts:
            raise KeyError(f"run {run_id} has no recorded attempts")
        path = attempts[attempt]
        meta = self._read_json(path / "meta.json")
        if meta is None and attempt == -1:
            for candidate in reversed(attempts[:-1]):
                meta = self._read_json(candidate / "meta.json")
                if meta is not None:
                    path = candidate
                    break
        spec = self._read_json(self.record_dir(run_id) / "spec.json")
        report_path = path / "report.json"
        report = self._read_json(report_path) if report_path.exists() else None
        return RunRecord(run_id=run_id, spec=spec or {}, meta=meta or {},
                         report=report, path=path)

    def has_completed(self, run_id: str) -> bool:
        """``True`` when any attempt of this run id completed."""
        for path in self.attempt_dirs(run_id):
            meta = self._read_json(path / "meta.json")
            if meta and meta.get("status") == "completed":
                return True
        return False

    def latest(self, spec_or_id: RunSpec | str) -> Optional[RunRecord]:
        """The newest *completed* record of a spec (or run id), else ``None``."""
        run_id = spec_or_id.run_id if isinstance(spec_or_id, RunSpec) \
            else spec_or_id
        try:
            run_id = self.resolve(run_id)
        except KeyError:
            return None
        for path in reversed(self.attempt_dirs(run_id)):
            meta = self._read_json(path / "meta.json")
            if meta and meta.get("status") == "completed":
                spec = self._read_json(self.record_dir(run_id) / "spec.json")
                report_path = path / "report.json"
                report = self._read_json(report_path) \
                    if report_path.exists() else None
                return RunRecord(run_id=run_id, spec=spec or {}, meta=meta,
                                 report=report, path=path)
        return None

    def records(self, limit: Optional[int] = None) -> List[RunRecord]:
        """Latest attempt of every run, newest first (for ``repro history``)."""
        out: List[RunRecord] = []
        for run_id in self.run_ids():
            try:
                out.append(self.load(run_id))
            except KeyError:
                continue
        out.sort(key=lambda r: float(r.meta.get("created_unix", 0.0)),
                 reverse=True)
        return out[:limit] if limit else out

    # -- writes ------------------------------------------------------------- #
    def write(self, spec: RunSpec, *, status: str,
              report: Optional[Dict[str, object]] = None,
              error: Optional[str] = None, seconds: float = 0.0,
              extra_meta: Optional[Dict[str, object]] = None) -> Path:
        """Append one attempt record; returns the attempt directory.

        Never overwrites an existing attempt: a fresh ``attempt-NNN``
        directory is claimed atomically, keeping the store append-only even
        if two processes record the same run id concurrently.
        """
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}; "
                             f"choose from {STATUSES}")
        record = self.record_dir(spec.run_id)
        record.mkdir(parents=True, exist_ok=True)
        spec_path = record / "spec.json"
        if not spec_path.exists():
            self._write_json(spec_path, spec.to_dict())
        attempt = None
        n = len(self.attempt_dirs(spec.run_id))
        while attempt is None:
            candidate = record / f"attempt-{n:03d}"
            try:
                candidate.mkdir()
                attempt = candidate
            except FileExistsError:
                n += 1
        meta: Dict[str, object] = {
            "schema": META_SCHEMA,
            "run_id": spec.run_id,
            "status": status,
            "error": error,
            "seconds": float(seconds),
            "created_unix": time.time(),
            "hostname": socket.gethostname(),
            "pid": os.getpid(),
            "git": git_metadata(),
        }
        if extra_meta:
            meta.update(extra_meta)
        if report is not None:
            self._write_json(attempt / "report.json", report)
        self._write_json(attempt / "meta.json", meta)
        if status == "completed":
            # the checkpoint was scratch for this attempt; a completed run
            # will never resume from it
            ckpt = self.checkpoint_path(spec.run_id)
            if ckpt.exists():
                try:
                    ckpt.unlink()
                except OSError:  # pragma: no cover - best effort cleanup
                    pass
        return attempt

    # -- comparison --------------------------------------------------------- #
    def diff(self, a: RunSpec | str, b: RunSpec | str, *,
             seconds_tolerance: float = 0.05,
             energy_tolerance: float = 1e-8) -> RunDiff:
        """Compare two runs' latest completed records.

        Flags a *regression* when run B's modelled seconds exceed run A's by
        more than ``seconds_tolerance`` (fractional), B's energy is higher
        by more than ``energy_tolerance`` (DMRG is variational: a higher
        energy on the same spec is strictly worse), or any watched
        lower-is-better metric (:data:`repro.obs.metrics.REGRESSION_METRICS`:
        plan-cache misses, layout moves, executor respawns, ...) grew between
        the two reports.
        """
        rec_a = self._require_completed(a)
        rec_b = self._require_completed(b)
        diff = RunDiff(run_a=rec_a.run_id, run_b=rec_b.run_id,
                       energy_a=rec_a.energy, energy_b=rec_b.energy,
                       modelled_seconds_a=rec_a.modelled_seconds,
                       modelled_seconds_b=rec_b.modelled_seconds,
                       seconds_a=rec_a.seconds, seconds_b=rec_b.seconds)
        keys = set(rec_a.spec) | set(rec_b.spec)
        for key in sorted(keys):
            va, vb = rec_a.spec.get(key), rec_b.spec.get(key)
            if va != vb:
                diff.spec_changes[key] = (va, vb)
        ms = diff.modelled_seconds_delta
        if ms is not None and diff.modelled_seconds_a > 0:
            ratio = diff.modelled_seconds_b / diff.modelled_seconds_a
            if ratio > 1.0 + seconds_tolerance:
                diff.regressions.append(
                    f"modelled seconds regressed {ratio:.2f}x "
                    f"({diff.modelled_seconds_a:.4e} -> "
                    f"{diff.modelled_seconds_b:.4e})")
            elif ratio < 1.0 - seconds_tolerance:
                diff.improvements.append(
                    f"modelled seconds improved {1.0 / ratio:.2f}x")
        ed = diff.energy_delta
        if ed is not None:
            if ed > energy_tolerance:
                diff.regressions.append(
                    f"energy regressed by {ed:.3e} "
                    f"({diff.energy_a:+.10f} -> {diff.energy_b:+.10f})")
            elif ed < -energy_tolerance:
                diff.improvements.append(f"energy improved by {-ed:.3e}")
        m_reg, m_imp, m_changes = diff_metrics(rec_a.metrics, rec_b.metrics)
        diff.regressions.extend(m_reg)
        diff.improvements.extend(m_imp)
        diff.metric_changes = m_changes
        return diff

    def _require_completed(self, spec_or_id: RunSpec | str) -> RunRecord:
        rec = self.latest(spec_or_id)
        if rec is None:
            name = spec_or_id.run_id if isinstance(spec_or_id, RunSpec) \
                else spec_or_id
            raise KeyError(f"no completed record for {name!r} in {self.root}")
        return rec

    # -- io helpers --------------------------------------------------------- #
    @staticmethod
    def _read_json(path: Path) -> Optional[Dict[str, object]]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    @staticmethod
    def _write_json(path: Path, payload: Dict[str, object]) -> None:
        # per-writer tmp name: two processes installing the same file (e.g.
        # spec.json of one run id from concurrent campaigns) each replace a
        # complete document instead of interleaving writes in a shared tmp
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        os.replace(tmp, path)
