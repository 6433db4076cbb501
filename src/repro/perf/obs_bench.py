"""Observability overhead benchmark: the tracer must be (nearly) free.

Two guarantees gate this target (``python -m repro bench --target obs``):

* **disabled = unmeasurable** — with no recorder installed, ``trace.span``
  is one global load, one comparison and a shared no-op context manager.
  The micro benchmark times that path directly (nanoseconds per span) and
  converts it into a fraction of one real Davidson matvec (``heff.apply``)
  using the span count an enabled apply actually produces; that fraction
  must stay below 0.5%.
* **enabled < 5%** — with a recorder installed, the same apply (the hottest
  instrumented path: one ``matvec`` span plus one ``planner/contract`` span
  per chain stage) may cost at most 5% more wall-clock than with tracing
  disabled.

The span micro path is timed best-of-``rounds`` over a fixed-repeat loop.
The apply is timed one call at a time, alternating tracing off and on, and
the overhead is the median of the ``repeats * rounds`` adjacent on/off
ratios: on a shared host the mean of a 30 ms loop moves by +-10% from one
loop to the next, which a 5% gate cannot sit on, while the median of
adjacent pairs repeats within about +-1%.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict

from ..backends.base import DirectBackend
from ..obs import trace
from .microbench import _time_applies, heff_setup
from .report import format_table

#: the disabled span path must cost less than this fraction of one apply
DISABLED_FRACTION_LIMIT = 0.005

#: the enabled tracer may slow the matvec loop by at most this fraction
ENABLED_OVERHEAD_LIMIT = 0.05


def _span_loop_ns(calls: int) -> float:
    """Nanoseconds per ``with trace.span(...)`` under the current recorder."""
    t0 = time.perf_counter()
    for _ in range(calls):
        with trace.span("bench-span", "obs"):
            pass
    return (time.perf_counter() - t0) / calls * 1e9


def run_obs_overhead_benchmark(*, nsites: int = 16, maxdim: int = 32,
                               repeats: int = 20, rounds: int = 3,
                               span_calls: int = 50_000,
                               model: str = "heisenberg"
                               ) -> Dict[str, object]:
    """Measure tracer overhead on the span micro path and the matvec loop."""
    from ..dmrg import EffectiveHamiltonian

    previous = trace.uninstall()
    try:
        # -- micro: ns per span, disabled vs enabled ------------------------ #
        disabled_ns = min(_span_loop_ns(span_calls) for _ in range(rounds))
        trace.install(capacity=4096)
        enabled_ns = min(_span_loop_ns(span_calls) for _ in range(rounds))
        trace.uninstall()

        # -- macro: one Davidson matvec, disabled vs enabled ---------------- #
        left, w1, w2, right, x = heff_setup(nsites, maxdim, model=model)
        heff = EffectiveHamiltonian(left, (w1, w2), right, DirectBackend())
        heff.apply(x)                                  # warm the plan cache
        rec = trace.install(capacity=1 << 20)
        heff.apply(x)                       # count the spans one apply emits
        spans_per_apply = len(rec)
        off, on = [], []
        for _ in range(repeats * rounds):
            trace.uninstall()
            off.append(_time_applies(heff, x, 1, warmup=0))
            trace.install(rec)
            on.append(_time_applies(heff, x, 1, warmup=0))
        trace.uninstall()
        disabled_apply = statistics.median(off)
        enabled_apply = statistics.median(on)

        disabled_fraction = spans_per_apply * disabled_ns * 1e-9 \
            / disabled_apply
        enabled_overhead = statistics.median(
            b / a for a, b in zip(off, on)) - 1.0
        return {
            "model": model, "nsites": nsites, "maxdim": maxdim,
            "repeats": repeats, "rounds": rounds,
            "disabled_ns_per_span": disabled_ns,
            "enabled_ns_per_span": enabled_ns,
            "spans_per_apply": spans_per_apply,
            "disabled_apply_seconds": disabled_apply,
            "enabled_apply_seconds": enabled_apply,
            "disabled_fraction_of_apply": disabled_fraction,
            "disabled_unmeasurable": disabled_fraction
            < DISABLED_FRACTION_LIMIT,
            "enabled_overhead": enabled_overhead,
            "enabled_ok": enabled_overhead < ENABLED_OVERHEAD_LIMIT,
        }
    finally:
        # never leak a benchmark recorder into (or clobber) the caller's
        if previous is not None:
            trace.install(previous)
        else:
            trace.uninstall()


def format_obs_benchmark(stats: Dict[str, object]) -> str:
    """Render the observability overhead benchmark as a fixed-width table."""
    rows = [
        ("system", f"{stats['model']} n={stats['nsites']}, "
                   f"m={stats['maxdim']}"),
        ("disabled span", f"{stats['disabled_ns_per_span']:.0f} ns"),
        ("enabled span", f"{stats['enabled_ns_per_span']:.0f} ns"),
        ("spans per apply", stats["spans_per_apply"]),
        ("apply s (tracing off)", f"{stats['disabled_apply_seconds']:.3e}"),
        ("apply s (tracing on)", f"{stats['enabled_apply_seconds']:.3e}"),
        ("disabled cost / apply",
         f"{100.0 * stats['disabled_fraction_of_apply']:.4f}% "
         f"(limit {100.0 * DISABLED_FRACTION_LIMIT:.1f}%)"),
        ("disabled unmeasurable", stats["disabled_unmeasurable"]),
        ("enabled overhead",
         f"{100.0 * stats['enabled_overhead']:+.2f}% "
         f"(limit {100.0 * ENABLED_OVERHEAD_LIMIT:.0f}%)"),
        ("enabled ok", stats["enabled_ok"]),
    ]
    return format_table(["metric", "value"], rows,
                        title="Span tracer overhead (disabled / enabled)")
