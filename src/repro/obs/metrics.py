"""Unified metrics registry: counters, gauges, histograms, regressions.

The DMRG stack already counts nearly everything — plan-cache hits, layout
moves, matvec applications — but every subsystem keeps its own ad-hoc dict.
This module gives those numbers one home with namespaced names
(``plan_cache.misses``, ``layout.moves``, ``matvec.traced_applies``, ...), a
uniform snapshot shape, and a regression comparator so ``repro history
--diff`` can flag "this change rebuilds plans every sweep" exactly the way
it already flags modelled-seconds regressions.

Naming convention: ``<subsystem>.<metric>`` with dots, lower-case, no
units in the name (bytes/seconds spelled out in the metric word itself:
``plan_cache.plan_seconds``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Histogram", "MetricsRegistry", "REGRESSION_METRICS", "diff_metrics",
    "run_metrics", "sweep_metrics",
]

#: Lower-is-better metrics whose growth between two attempts of the same
#: spec is a regression, mapped to the fractional slack allowed before the
#: diff flags it.  Counters here are deterministic for a fixed spec and
#: code version, so the slack is zero.
REGRESSION_METRICS: Dict[str, float] = {
    "plan_cache.misses": 0.0,
    "layout.moves": 0.0,
}


#: Report keys of the removed compiled matvec programs, emitted as constant
#: zeros per sweep and per run because ``benchmarks/e2e/run.py::per_layer``
#: indexes them unconditionally (see the pin comment in
#: :mod:`repro.symmetry.matvec`; they go with the placeholders there).
PINNED_ZERO_SWEEP_METRICS: Tuple[str, ...] = (
    "program.compiles", "program.refreshes", "program.retraces",
    "arena.allocated_bytes")
PINNED_ZERO_RUN_METRICS: Tuple[str, ...] = PINNED_ZERO_SWEEP_METRICS + (
    "arena.acquires", "arena.reuses", "matvec.compiled_applies")


@dataclass
class Histogram:
    """Streaming summary of an observed distribution (no buckets kept)."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict summary (count/total/mean/min/max)."""
        return {"count": self.count, "total": self.total, "mean": self.mean,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0}


@dataclass
class MetricsRegistry:
    """Namespaced counters, gauges and histograms with one snapshot shape.

    Counters are monotonic within a run (``inc``), gauges are
    last-value-wins (``gauge``), histograms summarise repeated
    observations (``observe``).  :meth:`flat` collapses everything into a
    single ``name -> number`` mapping — the form stored in run reports and
    compared by :func:`diff_metrics`.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    def inc(self, name: str, value: float = 1) -> float:
        """Add ``value`` to counter ``name`` (created at zero); return it."""
        total = self.counters.get(name, 0) + value
        self.counters[name] = total
        return total

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name`` (created empty)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def absorb(self, prefix: str, mapping: Mapping[str, Any]) -> None:
        """Import numeric entries of ``mapping`` under ``prefix.``.

        Integers and bools land as counters, floats as gauges — matching
        how the source dicts (``snapshot()``/``describe()``) use them.
        Non-numeric values are skipped.
        """
        for key, value in mapping.items():
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, int):
                self.inc(f"{prefix}.{key}", value)
            elif isinstance(value, float):
                self.gauge(f"{prefix}.{key}", value)

    def flat(self) -> Dict[str, float]:
        """One ``name -> number`` mapping over every instrument.

        Histograms expand to ``name.count`` / ``name.total`` /
        ``name.mean`` / ``name.max``.  This is the report/diff form.
        """
        out: Dict[str, float] = dict(self.counters)
        out.update(self.gauges)
        for name, hist in self.histograms.items():
            snap = hist.snapshot()
            for k in ("count", "total", "mean", "max"):
                out[f"{name}.{k}"] = snap[k]
        return out


# -- collection helpers ---------------------------------------------------

def sweep_metrics(record: Any) -> Dict[str, float]:
    """Flatten one ``SweepRecord`` into namespaced per-sweep metrics."""
    return {
        "sweep.seconds": record.seconds,
        "sweep.flops": record.flops,
        "sweep.max_bond_dim": record.max_bond_dim,
        **record.metrics,
        **dict.fromkeys(PINNED_ZERO_SWEEP_METRICS, 0),
    }


def run_metrics(result: Any = None, backend: Any = None,
                world: Any = None) -> MetricsRegistry:
    """Absorb a finished run's scattered statistics into one registry.

    Every source is optional and duck-typed: ``result`` is a
    ``DMRGResult`` (run-total counters plus per-sweep histograms),
    ``backend`` contributes its plan cache and matvec count, ``world`` its
    layout tracker.
    """
    reg = MetricsRegistry()
    for name in PINNED_ZERO_RUN_METRICS:
        reg.inc(name, 0)
    if result is not None:
        # same rule as ``absorb``: integer counts are counters, float
        # accumulators (plan/execute seconds) are gauges
        for name, value in result.metrics.items():
            if isinstance(value, float):
                reg.gauge(name, value)
            else:
                reg.inc(name, value)
        reg.inc("run.sweeps", len(result.sweep_records))
        reg.gauge("run.seconds", result.total_seconds)
        for rec in result.sweep_records:
            reg.observe("sweep.seconds", rec.seconds)
            reg.observe("sweep.max_bond_dim", rec.max_bond_dim)
    if backend is not None:
        cache = getattr(backend, "plan_cache", None)
        if cache is not None:
            reg.gauge("plan_cache.plans", len(cache))
        # the name dates from when some applications were served by
        # compiled programs; it is pinned with the zeros above
        reg.inc("matvec.traced_applies", backend.matvec_applies)
    if world is not None:
        tracker = getattr(world, "layout_tracker", None)
        if tracker is not None:
            reg.absorb("layout_tracker", tracker.snapshot())
    return reg


# -- regression comparison ------------------------------------------------

def diff_metrics(flat_a: Optional[Mapping[str, float]],
                 flat_b: Optional[Mapping[str, float]],
                 *, metrics: Optional[Mapping[str, float]] = None
                 ) -> Tuple[List[str], List[str],
                            Dict[str, Tuple[float, float]]]:
    """Compare two flat metric mappings over the regression metric set.

    Returns ``(regressions, improvements, changes)`` where the string
    lists are human-readable one-liners and ``changes`` maps each metric
    that moved to its ``(a, b)`` values.  Metrics missing from either side
    are skipped — old reports without metrics diff cleanly against new
    ones.
    """
    regressions: List[str] = []
    improvements: List[str] = []
    changes: Dict[str, Tuple[float, float]] = {}
    if not flat_a or not flat_b:
        return regressions, improvements, changes
    watch = REGRESSION_METRICS if metrics is None else metrics
    for name, tolerance in sorted(watch.items()):
        if name not in flat_a or name not in flat_b:
            continue
        a, b = float(flat_a[name]), float(flat_b[name])
        if a == b:
            continue
        changes[name] = (a, b)
        line = f"metric {name}: {_fmt(a)} -> {_fmt(b)} ({_pct(a, b)})"
        if b > a * (1.0 + tolerance):
            regressions.append(line)
        elif b < a:
            improvements.append(line)
    return regressions, improvements, changes


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.4g}"


def _pct(a: float, b: float) -> str:
    if a == 0:
        return f"+{_fmt(b)}"
    delta = (b - a) / a * 100.0
    return f"{delta:+.1f}%"
