"""Observability layer: runtime span tracing and a unified metrics registry.

Two complementary views of a run:

- :mod:`repro.obs.trace` records *where wall-clock goes* as nested spans
  (sweep > bond > Davidson > matvec > contraction) and exports
  Chrome/Perfetto trace-event JSON.
- :mod:`repro.obs.metrics` records *how much work happened* as counters,
  gauges and histograms, absorbing the statistics scattered across the
  plan cache, layout tracker and sweep records into one namespaced
  registry that run reports and ``repro history --diff`` consume.

Both are disabled by default and designed so the disabled path costs a
global load and a comparison — cheap enough to leave the instrumentation
in the hot loops permanently.
"""

from . import metrics, trace

__all__ = ["metrics", "trace"]
