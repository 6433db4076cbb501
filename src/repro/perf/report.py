"""Plain-text reporting helpers for the benchmark harness.

Each benchmark prints the same rows/series the corresponding paper table or
figure reports and saves them under ``benchmarks/results/``; ``make bench``
regenerates all of them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Render a simple fixed-width table."""
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "  "
    lines.append(sep.join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep.join("-" * w for w in widths))
    for row in rows:
        lines.append(sep.join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_series(series, xlabel: str = "x", ylabel: str = "y") -> str:
    """Render a ScalingSeries as a table."""
    rows = [(x, y, note) for x, y, note in series.as_rows()]
    return format_table([xlabel, ylabel, "note"], rows, title=series.label)


def format_breakdown(breakdown: Dict[str, float], title: str = "") -> str:
    """Render a Fig. 7 style percentage breakdown."""
    rows = [(k, f"{v:.1f}%") for k, v in breakdown.items()]
    return format_table(["category", "share"], rows, title=title)


def format_layout_tracker(snapshot: Dict[str, int],
                          title: str = "Sweep-persistent layouts") -> str:
    """Render layout-tracker counters (first touches / transitions / reuses).

    Accepts the dict produced by
    :meth:`repro.ctf.layout.LayoutTracker.snapshot`.
    """
    observations = int(snapshot.get("observations", 0))
    reuses = int(snapshot.get("reuses", 0))
    reuse_rate = reuses / observations if observations else 0.0
    rows = [
        ("tracked operands", snapshot.get("tracked_operands", 0)),
        ("observations", observations),
        ("first touches (charged)", snapshot.get("first_touches", 0)),
        ("transitions (charged)", snapshot.get("transitions", 0)),
        ("reuses (free)", reuses),
        ("births (free)", snapshot.get("births", 0)),
        ("reuse rate", f"{100.0 * reuse_rate:.1f}%"),
    ]
    return format_table(["metric", "value"], rows, title=title)


def format_sweep_records(records,
                         title: str = "Per-sweep statistics") -> str:
    """Render per-sweep plan-cache and layout-tracker statistics side by side.

    Accepts the :class:`repro.dmrg.config.SweepRecord` list of a
    :class:`~repro.dmrg.config.DMRGResult`; the layout columns show the
    sweep-persistent tracker's charged transitions next to the plan-cache
    hit rates (both stay zero for backends without the corresponding
    machinery).
    """
    rows = [(r.sweep, f"{r.energy:+.10f}", r.max_bond_dim,
             r.metrics["plan_cache.hits"], r.metrics["plan_cache.misses"],
             f"{100.0 * r.plan_hit_rate:.0f}%",
             r.metrics["layout.moves"], r.metrics["layout.reuses"],
             f"{100.0 * r.layout_reuse_rate:.0f}%")
            for r in records]
    return format_table(
        ["sweep", "energy", "m", "plan hits", "plan misses", "hit rate",
         "layout moves", "layout reuses", "reuse rate"], rows, title=title)


def format_layout_comparison(stats: Dict[str, object],
                             title: str = "Layout tracker on vs off") -> str:
    """Render a tracker-on vs tracker-off step comparison side by side.

    Accepts the dict produced by
    :func:`repro.perf.scaling.layout_tracker_comparison`.
    """
    off_bd = stats["tracker_off_breakdown"]
    on_bd = stats["tracker_on_breakdown"]
    rows = [(cat, f"{off_bd.get(cat, 0.0):.2f}%", f"{on_bd.get(cat, 0.0):.2f}%")
            for cat in sorted(set(off_bd) | set(on_bd))]
    rows.append(("modelled seconds",
                 f"{stats['tracker_off_seconds']:.4e}",
                 f"{stats['tracker_on_seconds']:.4e}"))
    header = (f"{title}: {stats.get('system', '?')}, "
              f"{stats.get('algorithm', '?')}, m={stats.get('m', '?')}, "
              f"{stats.get('nodes', '?')} nodes")
    return format_table(["category", "tracker off", "tracker on"], rows,
                        title=header)


def _maybe(value, fmt: str) -> str:
    return fmt.format(value) if value is not None else "-"


def format_campaign(outcomes, records: Dict[str, object],
                    title: str = "Campaign summary") -> str:
    """Render a campaign's per-run outcomes with their archived results.

    ``outcomes`` is the :class:`repro.exp.scheduler.CampaignResult` outcome
    list; ``records`` maps run ids to the corresponding (possibly ``None``)
    :class:`repro.exp.registry.RunRecord`, from which energy and modelled
    seconds are shown for runs that completed now *or* in an earlier
    campaign (status ``skipped``).
    """
    rows = []
    for o in outcomes:
        rec = records.get(o.run_id)
        energy = getattr(rec, "energy", None)
        modelled = getattr(rec, "modelled_seconds", None)
        rows.append((o.run_id, o.summary, o.status,
                     _maybe(energy, "{:+.10f}"),
                     _maybe(modelled, "{:.4e}"),
                     f"{o.seconds:.2f}"))
    return format_table(
        ["run id", "spec", "status", "energy", "modelled s", "wall s"],
        rows, title=title)


def format_history(records, title: str = "Run history") -> str:
    """Render the registry listing of ``repro history``.

    Accepts :class:`repro.exp.registry.RunRecord` objects (latest attempt
    per run id, newest first).
    """
    rows = []
    for rec in records:
        spec = rec.spec or {}
        params = ",".join(f"{k}={v}"
                          for k, v in sorted(dict(spec.get("params",
                                                           {})).items()))
        model = str(spec.get("model", "?")) + (f"({params})" if params else "")
        git = rec.meta.get("git") or {}
        commit = str(git.get("commit", ""))[:8] or "-"
        rows.append((rec.run_id, model, spec.get("engine", "?"),
                     spec.get("backend", "?"), spec.get("maxdim", "?"),
                     rec.status, _maybe(rec.energy, "{:+.10f}"),
                     _maybe(rec.modelled_seconds, "{:.4e}"),
                     f"{rec.seconds:.2f}", commit))
    return format_table(
        ["run id", "model", "engine", "backend", "m", "status", "energy",
         "modelled s", "wall s", "commit"], rows, title=title)


def format_run_diff(diff) -> str:
    """Render a :class:`repro.exp.registry.RunDiff` (``history --diff A B``)."""
    rows = [("energy", _maybe(diff.energy_a, "{:+.10f}"),
             _maybe(diff.energy_b, "{:+.10f}"),
             _maybe(diff.energy_delta, "{:+.3e}")),
            ("modelled seconds", _maybe(diff.modelled_seconds_a, "{:.4e}"),
             _maybe(diff.modelled_seconds_b, "{:.4e}"),
             _maybe(diff.modelled_seconds_delta, "{:+.4e}")),
            ("wall seconds", f"{diff.seconds_a:.2f}", f"{diff.seconds_b:.2f}",
             f"{diff.seconds_b - diff.seconds_a:+.2f}")]
    for key, (va, vb) in sorted(diff.spec_changes.items()):
        rows.append((f"spec.{key}", _fmt(va), _fmt(vb), ""))
    lines = [format_table(["metric", diff.run_a, diff.run_b, "delta"], rows,
                          title="Run diff")]
    for finding in diff.regressions:
        lines.append(f"REGRESSION: {finding}")
    for finding in diff.improvements:
        lines.append(f"improvement: {finding}")
    if not diff.regressions and not diff.improvements:
        lines.append("no significant change")
    return "\n".join(lines)


PRIOR_WORK_TABLE1: List[Dict] = [
    {"system": "Heisenberg J1-J2", "work": "this work",
     "method": "U(1) DMRG", "architecture": "Distributed Memory",
     "max_bond_dim": 32768, "max_nodes": 256},
    {"system": "Heisenberg J1-J2", "work": "Jiang et al. [19]",
     "method": "DMRG", "architecture": "shared memory (assumed)",
     "max_bond_dim": 12000, "max_nodes": 1},
    {"system": "Heisenberg J1-J2", "work": "Wang et al. [20]",
     "method": "DMRG", "architecture": "shared memory (assumed)",
     "max_bond_dim": 12000, "max_nodes": 1},
    {"system": "Triangular Hubbard", "work": "this work",
     "method": "U(1) DMRG", "architecture": "Distributed Memory",
     "max_bond_dim": 32768, "max_nodes": 256},
    {"system": "Triangular Hubbard", "work": "Shirakawa et al. [21]",
     "method": "DMRG", "architecture": "shared memory (assumed)",
     "max_bond_dim": 20000, "max_nodes": 1},
    {"system": "Triangular Hubbard", "work": "Szasz et al. [22]",
     "method": "U(1)+k iDMRG", "architecture": "Shared Memory",
     "max_bond_dim": 11314, "max_nodes": 1},
    {"system": "Hubbard 1D chain", "work": "Rincon et al. [23]",
     "method": "U(1) DMRG", "architecture": "Distributed Memory",
     "max_bond_dim": 1000, "max_nodes": 8},
    {"system": "U-V Hubbard", "work": "Kantian et al. [11,12]",
     "method": "U(1) DMRG", "architecture": "Distributed Memory",
     "max_bond_dim": 18000, "max_nodes": 180},
    {"system": "Square Hubbard", "work": "Yamada et al. [9,24]",
     "method": "s-leg DMRG", "architecture": "Distributed Shared Memory",
     "max_bond_dim": 1200, "max_nodes": 1},
    {"system": "Heisenberg 1D chain", "work": "Vance et al. [10]",
     "method": "U(1) iDMRG", "architecture": "Distributed Memory",
     "max_bond_dim": 2048, "max_nodes": 64},
    {"system": "Heisenberg J1", "work": "Stoudenmire et al. [4]",
     "method": "Parallel U(1) DMRG", "architecture": "Real-Space Parallel",
     "max_bond_dim": 2000, "max_nodes": 10},
]


def format_table1(this_work_bond_dim: int = 32768,
                  this_work_nodes: int = 256) -> str:
    """Render Table I (prior-work comparison), with this work's rows filled
    from the configuration actually exercised by the benchmark harness."""
    rows = []
    for entry in PRIOR_WORK_TABLE1:
        e = dict(entry)
        if e["work"] == "this work":
            e["max_bond_dim"] = this_work_bond_dim
            e["max_nodes"] = this_work_nodes
        rows.append((e["system"], e["work"], e["method"], e["architecture"],
                     e["max_bond_dim"], e["max_nodes"]))
    return format_table(
        ["System", "Work", "Method", "Architecture", "Max m", "Max nodes"],
        rows, title="Table I: comparison with prior parallel DMRG work")
