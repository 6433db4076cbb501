"""Fast, synthetic-only tests of the end-to-end benchmark harness.

They run no benchmark workload: span arithmetic is checked on hand-built span
lists with integer clocks, wrapper installation on whatever the entry table
resolves to, the child's traced/untraced paths on a stubbed ``execute_run``,
and ``BENCHMARK.json`` against the tables in ``workloads.py``/``layers.py``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child      # noqa: E402
import layers     # noqa: E402
import run        # noqa: E402
import workloads  # noqa: E402

NAMES = ["root", "a", "b", "leaf"]


def _recorder(spans, leaves=None):
    """A recorder holding ``(entry, t0, t1, parent)`` spans."""
    rec = layers.Recorder()
    for entry, t0, t1, parent in spans:
        rec.add_span(entry, float(t0), float(t1), parent)
    rec.leaves.update(leaves or {})
    return rec


@pytest.mark.parametrize("spans,leaves,expected", [
    # nested: root > a > b
    ([(0, 0, 100, -1), (1, 10, 60, 0), (2, 20, 30, 1)], {},
     {"root": (1, 100, 50), "a": (1, 50, 40), "b": (1, 10, 10)}),
    # siblings: root > a, a, b
    ([(0, 0, 100, -1), (1, 5, 15, 0), (1, 20, 40, 0), (2, 50, 90, 0)], {},
     {"root": (1, 100, 30), "a": (2, 30, 30), "b": (1, 40, 40)}),
    # recursion: a > a > a counts as one call of the layer
    ([(0, 0, 100, -1), (1, 10, 90, 0), (1, 20, 80, 1), (1, 30, 40, 2)], {},
     {"root": (1, 100, 20), "a": (1, 80, 80)}),
    # indirect recursion: a > b > a
    ([(0, 0, 100, -1), (1, 10, 90, 0), (2, 20, 80, 1), (1, 30, 70, 2)], {},
     {"root": (1, 100, 20), "a": (1, 80, 60), "b": (1, 60, 20)}),
    # leaves are charged to the span that was open
    ([(0, 0, 100, -1), (1, 10, 60, 0)], {(1, 3): [7, 30], (0, 3): [2, 5]},
     {"root": (1, 100, 45), "a": (1, 50, 20), "leaf": (9, 35, 35)}),
])
def test_self_times_sum_to_root_duration(spans, leaves, expected):
    rec = _recorder(spans, leaves)
    table = layers.summarize(rec, NAMES)
    for name, (calls, total, self_s) in expected.items():
        assert table[name] == {"calls": calls, "total_s": total,
                               "self_s": self_s}, name
    assert sum(row["self_s"] for row in table.values()) == 100.0


def test_wrappers_record_parents_and_survive_exceptions():
    ticks = iter(range(1000))
    rec = layers.Recorder(clock=lambda: float(next(ticks)))

    def boom():
        raise KeyError("x")

    inner = rec.span_wrapper(2, boom)
    leaf = rec.leaf_wrapper(3, lambda: None)
    nested_leaf = rec.leaf_wrapper(3, leaf)

    def outer_fn():
        nested_leaf()             # the inner leaf must not count twice
        inner()

    outer = rec.span_wrapper(1, outer_fn)
    with pytest.raises(KeyError):
        outer()
    assert rec.entry == [1, 2] and rec.parent == [-1, 0]
    assert rec.cur == -1 and not rec.in_leaf
    assert rec.leaves == {(0, 3): [1, 1.0]}
    table = layers.summarize(rec, NAMES)
    assert sum(r["self_s"] for r in table.values()) == rec.t1[0] - rec.t0[0]


def _sites():
    sites = [s for e in layers.ENTRIES for t in e.targets
             for s in layers.resolve(t)]
    assert len(sites) > len(layers.ENTRIES)      # imports and subclasses
    return sites


@pytest.mark.parametrize("raises", [False, True])
def test_install_restores_every_original_by_identity(raises):
    pytest.importorskip("repro.exp.runner")
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in _sites()]
    try:
        with layers.installed(layers.Recorder()) as unresolved:
            assert unresolved == []
            for owner, attr, orig in before:
                assert vars(owner)[attr] is not orig
                assert vars(owner)[attr].__wrapped__ is orig
            if raises:
                raise RuntimeError("the wrapped run failed")
    except RuntimeError:
        assert raises
    for owner, attr, orig in before:
        assert vars(owner)[attr] is orig, (owner, attr)


def test_renamed_entry_is_reported_not_raised():
    gone = layers.Entry("x.gone", ("repro.no_such_module:f",), "")
    also = layers.Entry("x.attr", ("repro.exp.runner:no_such_function",), "")
    with layers.installed(layers.Recorder(), (gone, also)) as unresolved:
        assert unresolved == ["x.gone", "x.attr"]


@pytest.mark.parametrize("traced", [False, True])
def test_child_wraps_only_when_traced(monkeypatch, traced):
    runner = pytest.importorskip("repro.exp.runner")
    from repro.symmetry import planner
    seen = {}
    real = runner.execute_run

    def probe(spec, **kwargs):
        seen["wrapped"] = hasattr(planner.build_plan, "__wrapped__")
        return real(spec, **kwargs)

    monkeypatch.setattr(runner, "execute_run", probe)
    record = child.run({"mode": "run", "spec": workloads.WARMUP_SPEC,
                        "trace": traced, "checkpoint": None,
                        "t_spawn": child.clock()})
    assert seen["wrapped"] is traced
    assert not hasattr(planner.build_plan, "__wrapped__")
    assert ("layers" in record) is traced
    assert record["wall_s"] > sum(s["seconds"] for s in record["sweeps"])
    if traced:
        table = record["layers"]
        assert table["symmetry.planner.build_plan"]["calls"] > 0
        assert table["ctf.world.charge"]["calls"] == 0
        total = sum(row["self_s"] for row in table.values())
        assert total == pytest.approx(record["wall_s"], rel=0.01)


def _passing_record(w):
    sweeps = [{"seconds": 1.0, "energy": w.energy + 1e-3 / (i + 1),
               "max_bond_dim": w.max_bond_dimension, "metrics": {}}
              for i in range(w.spec["nsweeps"])]
    sweeps[-1]["energy"] = w.energy
    return {"energies": [w.energy], "sweeps": sweeps,
            "max_bond_dimension": w.max_bond_dimension,
            "modelled_seconds": w.modelled_seconds}


@pytest.mark.parametrize("w", workloads.WORKLOADS, ids=lambda w: w.name)
def test_failure_rules(w):
    good = _passing_record(w)
    assert workloads.check_run(w, good, seed=0) == []
    assert workloads.check_run(w, {"error": "boom"}, 0)
    assert workloads.check_run(w, dict(good, energies=[float("nan")]), 0)
    assert workloads.check_run(w, dict(good, sweeps=good["sweeps"][1:]), 0)
    assert workloads.check_run(w, dict(good, max_bond_dimension=7), 0)
    off = dict(good, energies=[w.energy + 1e-7])
    assert workloads.check_run(w, off, seed=0)
    assert workloads.check_run(w, off, seed=3) == []      # 1e-6 off seed 0
    rising = json.loads(json.dumps(good))
    rising["sweeps"][2]["energy"] = rising["sweeps"][1]["energy"] + 1e-6
    assert workloads.check_run(w, rising, 0)
    if w.modelled_seconds is not None:
        assert workloads.check_run(
            w, dict(good, modelled_seconds=w.modelled_seconds * 1.001), 0)


def test_benchmark_json_agrees_with_the_tables():
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS]
    assert [m["name"] for m in bench["end_to_end"]] == \
        ["wall_s", "tail_sweep_s", "peak_rss_mb", "setup_s"]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == layers.per_layer_metrics()
    assert len(bench["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in bench["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
        assert m["bound"] <= run.END_TO_END["setup_s"]["bound"]
    for w in bench["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_contract_line_has_every_declared_metric():
    end = {n: {"median": 1.5, "min": 1.0, "max": 2.0, "n": 3,
               "unit": m["unit"]} for n, m in run.END_TO_END.items()}
    table = {n: 1.0 for n, _, _ in layers.per_layer_metrics()}
    table["dmrg.checkpoint.save.calls"] = None        # an unresolved entry
    result = {"runs_attempted": 3, "runs_failed": 0, "end_to_end": end,
              "per_layer": table}
    line = json.loads(run.contract_line(result, trace=0))
    assert line["correct"] and line["attempted"] == 3 and line["failed"] == 0
    assert set(line["metrics"]) == set(run.END_TO_END)
    line = json.loads(run.contract_line(result, trace=1))
    assert list(line["metrics"]) == [n for n, _, _ in
                                     layers.per_layer_metrics()]
    assert line["metrics"]["dmrg.checkpoint.save.calls"]["value"] == 0
    failed = dict(result, runs_failed=1)
    assert json.loads(run.contract_line(failed, 0))["correct"] is False
