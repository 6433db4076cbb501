"""Command-line interface for the DMRG library.

The subcommands cover the everyday workflows:

``python -m repro models``
    List the registered model Hamiltonians and their default parameters.

``python -m repro run --model heisenberg-chain --param n=16 --maxdim 64``
    Build a model, run DMRG (two-site by default; ``--engine single-site`` or
    ``--engine excited`` select the variants), optionally on one of the three
    block-sparsity backends mapped to a simulated machine, measure the
    requested observables, and print/save a report.  ``--seed`` makes the
    run (and its registry id) reproducible end to end; ``--checkpoint PATH``
    writes a resumable snapshot after every sweep and ``--resume`` restarts
    from it mid-schedule.

``python -m repro sweep --grid grid.json --workers 4``
    Expand a campaign grid (a JSON file, or a built-in name such as
    ``fig8-weak-scaling-spins`` — see ``--list-grids``) into run specs and
    execute them on a local process pool with per-run timeouts, failure
    isolation and content-hash resume: a spec whose deterministic run id
    already has a completed record is skipped, an interrupted run restarts
    from its checkpoint.  Every run is archived append-only under
    ``benchmarks/results/history/<run-id>/``.

``python -m repro history [--diff A B]``
    Query the run registry: list archived runs, or compare two runs'
    energies and modelled seconds with regression detection.

``python -m repro bench --smoke [--json BENCH_smoke.json]``
    Benchmark invariant gates: the plan-aware cost model's (equal to the
    aggregate model on a dense block, never worse on block-sparse
    structure, ``plan-cost`` target), the sweep-persistent layout
    tracker's (first touch charges, unchanged layouts free, tracked total
    never worse, transposition share strictly shrinks, ``layout`` target)
    and the span tracer's overhead bound (``obs`` target), so the perf
    code cannot silently rot.  Wall-clock performance is measured by
    ``benchmarks/e2e/run.py`` instead.  ``--json PATH`` additionally
    writes every target's machine-readable metrics to one JSON artifact so
    the perf trajectory can be tracked across commits (``make bench-smoke``
    emits ``BENCH_smoke.json``).

``python -m repro analyze [--target lint] [--json PATH]``
    Static correctness gates (:mod:`repro.analysis`): the repo-invariant
    linter over ``src/repro``.  Exit 1 on any finding; ``--json`` writes the
    rule-count artifact ``make analyze`` tracks (``BENCH_analyze.json``).

``python -m repro trace summarize|export FILE...``
    Work with the Chrome trace-event files ``run --trace PATH`` and ``sweep
    --trace DIR`` export (:mod:`repro.obs.trace`): ``summarize`` prints a
    per-span aggregate table, ``export --output`` merges several per-run
    traces into one timeline for chrome://tracing / Perfetto.

The CLI only composes the public library API — everything it does can be done
from a notebook with the same calls — but it gives the benchmark scripts and
the documentation a single reproducible entry point.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, Sequence

from .ctf import MACHINES
from .dmrg import save_mps
from .models import available_models, get_model

#: ``bench --target`` registry: name -> one-line description.  Validated in
#: :func:`cmd_bench` (not via argparse ``choices``) so an unknown target
#: produces a readable list instead of argparse's terse usage error, and so
#: ``--list-targets`` can print the same registry.
BENCH_TARGETS: Dict[str, str] = {
    "all": "every target below, in order",
    "plan-cost": "plan-aware cost model invariants (dense equal, "
                 "block-sparse never worse)",
    "layout": "sweep-persistent layout tracker invariants",
    "obs": "span tracer overhead (disabled unmeasurable, enabled < 5%)",
}

#: ``analyze --target`` registry, same contract as :data:`BENCH_TARGETS`.
ANALYZE_TARGETS: Dict[str, str] = {
    "all": "every pass below, in order",
    "lint": "repo-invariant linter over src/repro",
}


def _check_target(target: str, registry: Dict[str, str],
                  command: str) -> bool:
    """Print the valid-target list and return ``False`` on unknown names."""
    if target in registry:
        return True
    print(f"error: unknown {command} target {target!r}; valid targets:",
          file=sys.stderr)
    for name, description in registry.items():
        print(f"  {name:15s} {description}", file=sys.stderr)
    return False


def _print_targets(registry: Dict[str, str]) -> None:
    for name, description in registry.items():
        print(f"{name:15s} {description}")


def _parse_params(pairs: Sequence[str]) -> Dict[str, object]:
    """Parse ``key=value`` model parameters with numeric coercion."""
    out: Dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        out[key.strip()] = value
    return out


def cmd_models(_args: argparse.Namespace) -> int:
    """List registered models."""
    for name, description in available_models().items():
        defaults = get_model(name).defaults
        params = ", ".join(f"{k}={v}" for k, v in defaults.items())
        print(f"{name:20s} {description}")
        print(f"{'':20s}   defaults: {params}")
    return 0


def _spec_from_args(args: argparse.Namespace):
    """The declarative :class:`~repro.exp.spec.RunSpec` a ``run`` invocation
    describes (the same spec a grid entry would carry)."""
    from .exp import RunSpec
    return RunSpec.from_dict({
        "model": args.model,
        "params": _parse_params(args.param or []),
        "engine": args.engine,
        "backend": args.backend,
        "machine": args.machine,
        "nodes": args.nodes,
        "procs_per_node": args.procs_per_node,
        "maxdim": args.maxdim,
        "nsweeps": args.nsweeps,
        "cutoff": args.cutoff,
        "nstates": args.nstates,
        "seed": args.seed,
        "initial_state": args.initial_state,
        "initial_bond_dim": args.initial_bond_dim,
        "observables": args.measure or [],
    })


def cmd_run(args: argparse.Namespace) -> int:
    """Build a model and run DMRG on it."""
    from .exp import execute_run
    spec = _spec_from_args(args)
    if args.resume and not args.checkpoint:
        raise ValueError("--resume needs --checkpoint PATH")
    out = execute_run(spec, checkpoint_path=args.checkpoint,
                      resume=args.resume, verbose=args.verbose,
                      trace_path=args.trace)
    world, psi, result = out.world, out.psi, out.result
    energies = out.energies

    print(f"run id      : {spec.run_id}  (seed {spec.seed})")
    print(f"model       : {spec.model} ({len(psi)} sites)")
    print(f"engine      : {spec.engine}, backend: {spec.backend}"
          + (f" on {world.nodes}x{world.procs_per_node} ranks "
             f"({world.machine.name})" if world else ""))
    if out.resumed_sweeps:
        print(f"resumed     : {out.resumed_sweeps} sweeps from "
              f"{args.checkpoint}")
    print(f"energy      : {energies[0]:+.10f}")
    if len(energies) > 1:
        for k, e in enumerate(energies[1:], start=1):
            print(f"  level {k}   : {e:+.10f}  (gap {e - energies[0]:.6f})")
    print(f"bond dim    : {psi.max_bond_dimension()}")
    print(f"wall time   : {out.seconds:.2f} s")
    for line in out.extra_lines:
        print(line)

    # per-sweep statistics: plan-cache hit rates next to the layout
    # tracker's transition counts (ROADMAP: surface the tracker in `run`)
    if getattr(result, "sweep_records", None):
        from .perf.report import format_sweep_records
        print(format_sweep_records(result.sweep_records))
    if world is not None:
        from .perf.report import format_layout_tracker
        print(f"modelled time on {world.machine.name}: "
              f"{out.report['modelled_seconds']:.3f} s")
        print(format_layout_tracker(world.layout_tracker.snapshot()))

    if args.checkpoint and not out.resumed_sweeps:
        print(f"checkpoint  : {args.checkpoint}")
    if args.trace:
        print(f"trace saved : {args.trace}")
    if args.save_state:
        save_mps(args.save_state, psi, extra={"energy": energies[0]})
        print(f"state saved : {args.save_state}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(out.report, fh, indent=2, sort_keys=True, default=float)
        print(f"report saved: {args.output}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Execute a campaign grid on the local process-pool scheduler."""
    import pathlib

    from .exp import (RunRegistry, available_campaigns, builtin_specs,
                      load_specs, run_campaign)
    from .perf.report import format_campaign

    if args.list_grids:
        for name, description in available_campaigns().items():
            print(f"{name:30s} {description}")
        return 0
    if not args.grid:
        print("error: --grid PATH-or-NAME is required (see --list-grids)",
              file=sys.stderr)
        return 2
    if pathlib.Path(args.grid).exists():
        name, specs = load_specs(args.grid)
    else:
        name, specs = builtin_specs(args.grid)
    registry = RunRegistry(args.history) if args.history else RunRegistry()
    print(f"campaign    : {name} ({len(specs)} runs, {args.workers} workers"
          + (f", timeout {args.timeout:.0f}s/run" if args.timeout else "")
          + f") -> {registry.root}")
    if args.dry_run:
        for spec in specs:
            done = registry.has_completed(spec.run_id)
            marker = "skip (archived)" if done and not args.force else "run"
            print(f"  {spec.run_id:45s} {marker:16s} {spec.summary()}")
        return 0

    def _progress(outcome) -> None:
        print(f"  {outcome.run_id:45s} {outcome.status:12s} "
              f"{outcome.seconds:7.2f} s"
              + (f"  ({outcome.error})" if outcome.error else ""))

    result = run_campaign(specs, registry=registry, name=name,
                          workers=args.workers, timeout=args.timeout,
                          force=args.force,
                          use_checkpoints=not args.no_checkpoint,
                          progress=_progress, trace_dir=args.trace)
    if args.trace:
        print(f"per-run traces in {args.trace}/ "
              "(merge with `repro trace export`)")
    records = {}
    for outcome in result.outcomes:
        records[outcome.run_id] = registry.latest(outcome.run_id)
    print(format_campaign(result.outcomes, records,
                          title=f"Campaign summary: {name}"))
    print(f"completed {result.completed}, skipped {result.skipped}, "
          f"failed {result.failed} in {result.seconds:.1f} s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.as_dict(), fh, indent=2, sort_keys=True,
                      default=float)
        print(f"campaign result saved: {args.json}")
    return 0 if result.ok else 1


def cmd_history(args: argparse.Namespace) -> int:
    """Query the run registry (list records or diff two runs)."""
    from .exp import RunRegistry
    from .perf.report import format_history, format_run_diff

    registry = RunRegistry(args.history) if args.history else RunRegistry()
    if args.diff:
        run_a, run_b = args.diff
        diff = registry.diff(run_a, run_b,
                             seconds_tolerance=args.seconds_tolerance)
        print(format_run_diff(diff))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(diff.as_dict(), fh, indent=2, sort_keys=True,
                          default=float)
            print(f"diff saved: {args.json}")
        return 1 if (args.fail_on_regression and diff.regressed) else 0
    records = registry.records()
    if args.model:
        records = [r for r in records
                   if (r.spec or {}).get("model") == args.model]
    if args.limit:
        records = records[:args.limit]
    if not records:
        print(f"no runs recorded under {registry.root}")
        return 0
    print(format_history(records,
                         title=f"Run history ({registry.root})"))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the benchmark invariant gates (modelled cost + tracer overhead)."""
    if args.list_targets:
        _print_targets(BENCH_TARGETS)
        return 0
    if not _check_target(args.target, BENCH_TARGETS, "bench"):
        return 2
    rc = 0
    emitted: Dict[str, object] = {}
    if args.target in ("all", "plan-cost"):
        from .perf.plan_bench import (format_plan_cost_check,
                                      run_plan_cost_check)
        if args.full:
            stats = run_plan_cost_check(m=2048, nodes=64)
        else:
            stats = run_plan_cost_check()
        print(format_plan_cost_check(stats))
        emitted["plan_cost"] = stats
        if not (stats["dense_equal"] and stats["block_not_worse"]
                and stats["redis_strictly_less"]):
            print("error: plan-aware cost model violated an invariant "
                  "(see table above)", file=sys.stderr)
            rc = 1
    if args.target in ("all", "layout"):
        from .perf.plan_bench import format_layout_check, run_layout_check
        if args.full:
            stats = run_layout_check(m=1024, nodes=64)
        else:
            stats = run_layout_check()
        print(format_layout_check(stats))
        emitted["layout"] = stats
        if not (stats["first_touch_charges"] and stats["unchanged_free"]
                and stats["tracked_not_worse"]
                and stats["transposition_share_decreases"]):
            print("error: sweep-persistent layout tracker violated an "
                  "invariant (see table above)", file=sys.stderr)
            rc = 1
    if args.target in ("all", "obs"):
        from .perf.obs_bench import (format_obs_benchmark,
                                     run_obs_overhead_benchmark)
        if args.full:
            stats = run_obs_overhead_benchmark(nsites=24, maxdim=48,
                                               repeats=40, rounds=5,
                                               span_calls=200_000)
        else:
            stats = run_obs_overhead_benchmark()
        print(format_obs_benchmark(stats))
        emitted["obs"] = stats
        if not stats["disabled_unmeasurable"] or not stats["enabled_ok"]:
            print("error: span tracer overhead out of bounds (disabled "
                  f"cost {100.0 * stats['disabled_fraction_of_apply']:.4f}% "
                  "of one apply, enabled overhead "
                  f"{100.0 * stats['enabled_overhead']:+.2f}%)",
                  file=sys.stderr)
            rc = 1
    if args.json:
        artifact = {
            "schema": "repro-bench/1",
            "created_unix": time.time(),
            "mode": "full" if args.full else "smoke",
            "target": args.target,
            "ok": rc == 0,
            "targets": emitted,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            # numpy scalars degrade to plain floats; everything else in the
            # stats dicts is already JSON-native
            json.dump(artifact, fh, indent=2, sort_keys=True, default=float)
        print(f"bench metrics saved: {args.json}")
    return rc


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run the static correctness passes (the repo-invariant linter)."""
    if args.list_targets:
        _print_targets(ANALYZE_TARGETS)
        return 0
    if not _check_target(args.target, ANALYZE_TARGETS, "analyze"):
        return 2
    # ``all`` and ``lint`` name the same (only) pass
    from .analysis import format_lint_report, run_lint
    report = run_lint()
    print(format_lint_report(report))
    rc = 0 if report.ok else 1
    if args.json:
        artifact = {
            "schema": "repro-analyze/1",
            "created_unix": time.time(),
            "target": args.target,
            "ok": report.ok,
            "passes": {"lint": report.as_dict()},
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True, default=float)
        print(f"analysis report saved: {args.json}")
    return rc


def cmd_trace(args: argparse.Namespace) -> int:
    """Inspect or merge exported Chrome trace files."""
    from .obs.trace import (load_trace, merge_traces, summarize_events,
                            write_trace)
    from .perf.report import format_table

    payloads = [load_trace(path) for path in args.files]
    payload = payloads[0] if len(payloads) == 1 else merge_traces(payloads)
    if args.action == "export":
        if not args.output:
            print("error: trace export needs --output PATH", file=sys.stderr)
            return 2
        write_trace(args.output, payload)
        events = len(payload.get("traceEvents", []))
        print(f"merged {len(payloads)} trace(s), {events} events "
              f"-> {args.output}")
        return 0
    rows = summarize_events(payload)
    if not rows:
        print("no span events in the given trace(s)")
        return 0
    if args.limit:
        rows = rows[:args.limit]
    table = [(r["category"], r["name"], r["count"], f"{r['total_ms']:.3f}",
              f"{r['mean_ms']:.3f}", f"{r['max_ms']:.3f}") for r in rows]
    title = ", ".join(args.files) if len(args.files) <= 3 \
        else f"{len(args.files)} trace files"
    print(format_table(["category", "span", "count", "total ms", "mean ms",
                        "max ms"], table, title=f"Trace summary: {title}"))
    dropped = sum(int((p.get("otherData") or {}).get("dropped_events", 0))
                  for p in payloads)
    if dropped:
        print(f"warning: {dropped} events dropped at capture time "
              "(raise the recorder capacity)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed-memory DMRG reproduction (SC'20) — CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p_models = sub.add_parser("models", help="list registered models")
    p_models.set_defaults(func=cmd_models)

    p_run = sub.add_parser("run", help="run DMRG on a registered model")
    p_run.add_argument("--model", required=True,
                       help="registered model name (see `repro models`)")
    p_run.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="override a model parameter (repeatable)")
    p_run.add_argument("--engine", default="two-site",
                       choices=["two-site", "single-site", "excited"])
    p_run.add_argument("--nstates", type=int, default=2,
                       help="number of states for --engine excited")
    p_run.add_argument("--maxdim", type=int, default=64)
    p_run.add_argument("--nsweeps", type=int, default=8)
    p_run.add_argument("--cutoff", type=float, default=1e-10)
    p_run.add_argument("--backend", default="direct",
                       choices=["direct", "list", "sparse-dense",
                                "sparse-sparse"])
    p_run.add_argument("--machine", default="blue-waters",
                       choices=sorted(MACHINES))
    p_run.add_argument("--nodes", type=int, default=1)
    p_run.add_argument("--procs-per-node", type=int, default=16)
    p_run.add_argument("--measure", nargs="*", default=None, metavar="OP",
                       help="local operators to profile (e.g. Sz Ntot)")
    p_run.add_argument("--seed", type=int, default=0,
                       help="seed for the initial MPS and the Davidson "
                            "randomization (part of the registry run id)")
    p_run.add_argument("--initial-state", default="product",
                       choices=["product", "random"],
                       help="start from the model's product state or a "
                            "seeded random block-sparse MPS")
    p_run.add_argument("--initial-bond-dim", type=int, default=8,
                       help="bond dimension of --initial-state random")
    p_run.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="write a resumable checkpoint here after every "
                            "sweep (two-site / single-site engines)")
    p_run.add_argument("--resume", action="store_true",
                       help="restart from an existing --checkpoint file "
                            "instead of the initial state")
    p_run.add_argument("--save-state", default=None,
                       help="write the optimized MPS to this .npz file")
    p_run.add_argument("--output", default=None,
                       help="write a JSON report to this file")
    p_run.add_argument("--trace", default=None, metavar="PATH",
                       help="record runtime spans and export a Chrome "
                            "trace-event JSON file here (open in "
                            "chrome://tracing or Perfetto)")
    p_run.add_argument("--verbose", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="execute a campaign grid on a local process pool")
    p_sweep.add_argument("--grid", default=None, metavar="PATH-or-NAME",
                         help="grid JSON file, or a built-in campaign name "
                              "(see --list-grids)")
    p_sweep.add_argument("--workers", type=int, default=2,
                         help="worker processes (0 = run inline)")
    p_sweep.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-run wall-clock limit (pool mode)")
    p_sweep.add_argument("--history", default=None,
                         help="registry directory (default "
                              "benchmarks/results/history)")
    p_sweep.add_argument("--force", action="store_true",
                         help="re-execute runs that already completed "
                              "(appends a new attempt)")
    p_sweep.add_argument("--no-checkpoint", action="store_true",
                         help="disable per-sweep checkpoints in the "
                              "registry record directories")
    p_sweep.add_argument("--dry-run", action="store_true",
                         help="print the expanded grid and exit")
    p_sweep.add_argument("--list-grids", action="store_true",
                         help="list the built-in campaign grids and exit")
    p_sweep.add_argument("--json", default=None, metavar="PATH",
                         help="write the campaign outcome summary to this "
                              "JSON file")
    p_sweep.add_argument("--trace", default=None, metavar="DIR",
                         help="export one Chrome trace per executed run "
                              "into this directory "
                              "(<run-id>.trace.json each)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_hist = sub.add_parser(
        "history", help="query the content-addressed run registry")
    p_hist.add_argument("--history", default=None,
                        help="registry directory (default "
                             "benchmarks/results/history)")
    p_hist.add_argument("--limit", type=int, default=None,
                        help="show only the newest N runs")
    p_hist.add_argument("--model", default=None,
                        help="only show runs of this model")
    p_hist.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                        help="compare two runs (ids or unique prefixes)")
    p_hist.add_argument("--seconds-tolerance", type=float, default=0.05,
                        help="fractional modelled-seconds change treated as "
                             "a regression by --diff (default 0.05)")
    p_hist.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when --diff flags a regression")
    p_hist.add_argument("--json", default=None, metavar="PATH",
                        help="write the diff as JSON to this file")
    p_hist.set_defaults(func=cmd_history)

    p_bench = sub.add_parser(
        "bench", help="run benchmark smoke targets (tiny sizes)")
    p_bench.add_argument("--target", default="all", metavar="NAME",
                         help="benchmark target to run (see --list-targets; "
                              "default: all)")
    p_bench.add_argument("--list-targets", action="store_true",
                         help="list the valid bench targets and exit")
    p_bench.add_argument("--json", default=None, metavar="PATH",
                         help="write every target's machine-readable metrics "
                              "to this JSON artifact (e.g. BENCH_smoke.json)")
    size = p_bench.add_mutually_exclusive_group()
    size.add_argument("--full", action="store_true",
                      help="full benchmark sizes instead of the smoke run")
    size.add_argument("--smoke", action="store_true",
                      help="tiny smoke sizes (the default; the flag makes "
                           "the intent explicit in scripts/CI)")
    p_bench.set_defaults(func=cmd_bench)

    p_analyze = sub.add_parser(
        "analyze", help="run the static correctness passes (lint)")
    p_analyze.add_argument("--target", default="all", metavar="NAME",
                           help="analysis pass to run (see --list-targets; "
                                "default: all)")
    p_analyze.add_argument("--list-targets", action="store_true",
                           help="list the valid analysis passes and exit")
    p_analyze.add_argument("--json", default=None, metavar="PATH",
                           help="write the rule counts to this JSON "
                                "artifact (e.g. BENCH_analyze.json)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_trace = sub.add_parser(
        "trace", help="summarize or merge exported Chrome trace files")
    p_trace.add_argument("action", choices=["summarize", "export"],
                         help="summarize: per-span aggregate table; "
                              "export: merge several traces into one file")
    p_trace.add_argument("files", nargs="+", metavar="TRACE.json",
                         help="trace files written by --trace / "
                              "repro.obs.trace")
    p_trace.add_argument("--output", default=None, metavar="PATH",
                         help="destination of the merged trace "
                              "(export only)")
    p_trace.add_argument("--limit", type=int, default=None,
                         help="show only the top N rows of the summary")
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout consumer (e.g. `... | head`) went away mid-report
        try:
            sys.stdout.close()
        except OSError:  # pragma: no cover - double-broken pipe
            pass
        return 0
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
