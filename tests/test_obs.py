"""Tests for the observability layer (:mod:`repro.obs`): tracer + metrics.

Covers the span recorder (nesting, ring-buffer drops, decorator, Chrome
export), the null fast path while tracing is disabled, the unified metrics
registry and its regression comparator, the registry-diff integration
(``repro history --diff`` flags metric regressions), the nesting-safe
profiler sections, and the new CLI surface (``--list-targets``, ``run
--trace``, ``trace summarize|export``).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import main
from repro.exp import RunRegistry, RunSpec, execute_run, run_campaign
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, diff_metrics
from repro.obs.trace import (SpanRecorder, load_trace, merge_traces,
                             summarize_events)


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    """Every test starts and ends with tracing disabled."""
    trace.uninstall()
    yield
    trace.uninstall()


def tiny_spec(**overrides) -> RunSpec:
    fields = {"model": "heisenberg-chain", "params": {"n": 6},
              "maxdim": 12, "nsweeps": 2, "seed": 1}
    fields.update(overrides)
    return RunSpec.from_dict(fields)


# --------------------------------------------------------------------------- #
# span recorder
# --------------------------------------------------------------------------- #
class TestSpanRecorder:
    def test_disabled_span_is_shared_noop(self):
        a = trace.span("x", "t")
        b = trace.span("y", "t")
        assert a is b
        with a:
            pass
        assert a.seconds == 0.0

    def test_nested_spans_record_both(self):
        rec = trace.install(capacity=64)
        with trace.span("outer", "t"):
            with trace.span("inner", "t", depth=1):
                pass
        names = [ev[2] for ev in rec.events()]
        assert names == ["inner", "outer"]  # children complete first

    def test_ring_buffer_drops_oldest_and_counts(self):
        rec = trace.install(SpanRecorder(capacity=4))
        for i in range(10):
            with trace.span(f"s{i}", "t"):
                pass
        assert len(rec) == 4
        assert rec.dropped == 6
        assert [ev[2] for ev in rec.events()] == ["s6", "s7", "s8", "s9"]

    def test_timed_span_measures_while_disabled(self):
        sp = trace.timed_span("work", "t").start()
        time.sleep(0.01)
        dt = sp.stop()
        assert dt >= 0.008
        assert sp.seconds == dt
        assert trace.recorder() is None  # nothing installed, nothing recorded

    def test_tracing_context_exports_valid_chrome_trace(self, tmp_path):
        path = tmp_path / "out.trace.json"
        with trace.tracing(str(path)):
            with trace.span("outer", "t", tag="v"):
                with trace.span("inner", "t"):
                    pass
            trace.recorder().add_event("mark", "t", time.time(), 0.0)
        payload = json.loads(path.read_text())
        assert payload["otherData"]["schema"] == "repro-trace/1"
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in complete} >= {"outer", "inner"}
        assert instants and instants[0]["s"] == "t"
        assert any(m["name"] == "process_name" for m in meta)
        for ev in complete:
            assert ev["ts"] >= 0 and ev["dur"] >= 0
        # restored to disabled afterwards
        assert trace.recorder() is None

    def test_summarize_events_aggregates(self, tmp_path):
        path = tmp_path / "out.trace.json"
        with trace.tracing(str(path)):
            for _ in range(3):
                with trace.span("hot", "t"):
                    pass
        rows = summarize_events(load_trace(str(path)))
        hot = next(r for r in rows if r["name"] == "hot")
        assert hot["count"] == 3
        assert hot["total_ms"] >= hot["max_ms"]

    def test_merge_traces_remaps_colliding_pids(self, tmp_path):
        paths = []
        for i in range(2):
            p = tmp_path / f"t{i}.json"
            with trace.tracing(str(p)):
                with trace.span(f"run{i}", "t"):
                    pass
            paths.append(p)
        merged = merge_traces([load_trace(str(p)) for p in paths])
        pids = {e["pid"] for e in merged["traceEvents"] if e["ph"] == "X"}
        assert len(pids) == 2  # same OS pid, remapped apart


# --------------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counters_gauges_histograms_flat(self):
        reg = MetricsRegistry()
        reg.inc("a.count")
        reg.inc("a.count", 2)
        reg.gauge("b.value", 1.5)
        reg.observe("c.dist", 1.0)
        reg.observe("c.dist", 3.0)
        flat = reg.flat()
        assert flat["a.count"] == 3
        assert flat["b.value"] == 1.5
        assert flat["c.dist.count"] == 2
        assert flat["c.dist.mean"] == 2.0
        assert flat["c.dist.max"] == 3.0
        assert reg.histograms["c.dist"].snapshot()["total"] == 4.0

    def test_absorb_types(self):
        reg = MetricsRegistry()
        reg.absorb("x", {"jobs": 4, "busy": True, "rate": 0.5, "name": "n"})
        assert reg.counters["x.jobs"] == 4
        assert reg.counters["x.busy"] == 1
        assert reg.gauges["x.rate"] == 0.5
        assert "x.name" not in reg.flat()

    def test_diff_metrics_flags_regressions_and_improvements(self):
        a = {"plan_cache.misses": 10, "layout.moves": 8, "other": 1}
        b = {"plan_cache.misses": 14, "layout.moves": 5, "other": 99}
        regs, imps, changes = diff_metrics(a, b)
        assert any("plan_cache.misses" in r for r in regs)
        assert any("layout.moves" in r for r in imps)
        assert changes["plan_cache.misses"] == (10.0, 14.0)
        assert "other" not in changes  # not a watched metric

    def test_diff_metrics_skips_missing_sides(self):
        regs, imps, changes = diff_metrics({"plan_cache.misses": 3}, {})
        assert not regs and not imps and not changes
        regs, imps, changes = diff_metrics(None, {"plan_cache.misses": 3})
        assert not regs and not imps and not changes


# --------------------------------------------------------------------------- #
# run reports carry metrics
# --------------------------------------------------------------------------- #
class TestRunReportMetrics:
    def test_report_has_flat_metrics_and_per_sweep_metrics(self):
        out = execute_run(tiny_spec())
        flat = out.report["metrics"]
        assert flat["plan_cache.hits"] > 0
        assert flat["run.sweeps"] == 2
        assert flat["sweep.seconds.count"] == 2
        for row in out.report["sweeps"]:
            assert row["metrics"]["plan_cache.hits"] == row["plan_hits"]
            assert "plan_cache.misses" in row["metrics"]

    def test_registry_diff_flags_injected_metric_regression(self, tmp_path):
        registry = RunRegistry(tmp_path / "history")
        spec_a, spec_b = tiny_spec(seed=1), tiny_spec(seed=2)
        base = execute_run(spec_a).report
        worse = json.loads(json.dumps(base))
        worse["metrics"]["plan_cache.misses"] = \
            base["metrics"]["plan_cache.misses"] + 7
        registry.write(spec_a, status="completed", report=base)
        registry.write(spec_b, status="completed", report=worse)
        diff = registry.diff(spec_a.run_id, spec_b.run_id)
        assert any("plan_cache.misses" in r for r in diff.regressions)
        assert diff.regressed
        assert diff.metric_changes["plan_cache.misses"][1] == \
            diff.metric_changes["plan_cache.misses"][0] + 7
        # the CLI path renders and gates on it
        code = main(["history", "--history", str(tmp_path / "history"),
                     "--diff", spec_a.run_id, spec_b.run_id,
                     "--fail-on-regression"])
        assert code == 1

    def test_old_reports_without_metrics_diff_cleanly(self, tmp_path):
        registry = RunRegistry(tmp_path / "history")
        spec_a, spec_b = tiny_spec(seed=3), tiny_spec(seed=4)
        base = execute_run(spec_a).report
        legacy = json.loads(json.dumps(base))
        del legacy["metrics"]
        registry.write(spec_a, status="completed", report=legacy)
        registry.write(spec_b, status="completed", report=base)
        diff = registry.diff(spec_a.run_id, spec_b.run_id)
        assert not diff.metric_changes


# --------------------------------------------------------------------------- #
# scheduler / CLI surface
# --------------------------------------------------------------------------- #
class TestSchedulerTracing:
    def test_campaign_writes_per_run_traces(self, tmp_path):
        spec = tiny_spec(seed=5)
        registry = RunRegistry(tmp_path / "history")
        result = run_campaign([spec], registry=registry, workers=0,
                              trace_dir=tmp_path / "traces")
        assert result.ok
        trace_file = tmp_path / "traces" / f"{spec.run_id}.trace.json"
        payload = load_trace(str(trace_file))
        names = {e["name"] for e in payload["traceEvents"]
                 if e["ph"] in ("X", "i")}
        assert {"run", "sweep", "bond", "davidson"} <= names
        # the campaign process itself stays untraced
        assert trace.recorder() is None


class TestCLI:
    BENCH_TARGETS = ["all", "layout", "obs"]

    def test_bench_list_targets(self, capsys):
        assert main(["bench", "--list-targets"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == \
            self.BENCH_TARGETS

    def test_bench_unknown_target_rejected_with_list(self, capsys):
        for gone in ("bogus", "blockops", "executor", "plan-cache",
                     "micro-kernels"):
            assert main(["bench", "--target", gone]) == 2
            err = capsys.readouterr().err
            assert f"unknown bench target {gone!r}" in err
            listed = [line.split()[0] for line in err.splitlines()[1:]]
            assert listed == self.BENCH_TARGETS

    def test_analyze_list_and_unknown_target(self, capsys):
        assert main(["analyze", "--list-targets"]) == 0
        assert "lint" in capsys.readouterr().out
        for gone in ("bogus", "program", "schedule"):
            assert main(["analyze", "--target", gone]) == 2
            err = capsys.readouterr().err
            assert f"unknown analyze target {gone!r}" in err
            assert "lint" in err

    def test_run_trace_produces_expected_spans(self, tmp_path, capsys):
        path = tmp_path / "run.trace.json"
        code = main(["run", "--model", "heisenberg-chain", "--param", "n=6",
                     "--maxdim", "8", "--nsweeps", "2",
                     "--backend", "sparse-dense", "--nodes", "2",
                     "--trace", str(path)])
        assert code == 0
        assert "trace saved" in capsys.readouterr().out
        payload = load_trace(str(path))
        names = {e["name"] for e in payload["traceEvents"]
                 if e["ph"] in ("X", "i")}
        assert {"run", "sweep", "bond", "davidson", "davidson-matvec",
                "svd"} <= names
        assert "matvec" in names

    def test_trace_summarize_and_export(self, tmp_path, capsys):
        paths = []
        for i in range(2):
            p = tmp_path / f"t{i}.json"
            with trace.tracing(str(p)):
                with trace.span("sweep", "dmrg"):
                    pass
            paths.append(str(p))
        assert main(["trace", "summarize"] + paths) == 0
        assert "sweep" in capsys.readouterr().out
        merged = tmp_path / "merged.json"
        assert main(["trace", "export", *paths,
                     "--output", str(merged)]) == 0
        assert len(load_trace(str(merged))["traceEvents"]) > 0

    def test_trace_export_requires_output(self, tmp_path, capsys):
        p = tmp_path / "t.json"
        with trace.tracing(str(p)):
            pass
        assert main(["trace", "export", str(p)]) == 2

    def test_trace_summarize_rejects_non_trace_file(self, tmp_path):
        p = tmp_path / "nope.json"
        p.write_text("{}")
        with pytest.raises(ValueError):
            load_trace(str(p))


# --------------------------------------------------------------------------- #
# overhead benchmark plumbing
# --------------------------------------------------------------------------- #
class TestObsBench:
    def test_obs_benchmark_smoke(self):
        from repro.perf.obs_bench import (format_obs_benchmark,
                                          run_obs_overhead_benchmark)

        stats = run_obs_overhead_benchmark(nsites=10, maxdim=12, repeats=3,
                                           rounds=2, span_calls=5_000)
        assert stats["spans_per_apply"] > 0
        assert stats["disabled_ns_per_span"] > 0
        assert "tracer overhead" in format_obs_benchmark(stats).lower()
        assert trace.recorder() is None  # benchmark restores disabled state
