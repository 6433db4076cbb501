"""End-to-end DMRG benchmark driver.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--repeats N]
                                  [--seed S] [--json OUT] [--self-check]
    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

Closed loop, one client: this process spawns one child interpreter
(``child.py``) at a time per (workload, repeat) and never two concurrently,
so peak RSS, page faults and allocator state belong to one run.  End-to-end
metrics are medians over the *untraced* children; the per-layer table comes
from one extra *traced* child per workload (see ``layers.py``).  The driver
itself imports neither numpy nor the program.

Without ``--trace`` every workload is run ``--repeats`` times untraced
(interleaved A B C D, A B C D, ...) and once traced, and every metric is
printed by name with its unit.  With ``--trace 0|1`` (the form the benchmark
contract in ``BENCHMARK.json`` uses) one workload is measured for about
``--seconds`` seconds and the last line of output is one JSON object holding
the end-to-end (``0``) or the per-layer (``1``) metrics.  The exit code is
non-zero when any run failed a check of ``workloads.check_run``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import layers
import workloads
from child import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SCRATCH = HERE / ".scratch"           # checkpoints; removed after each child

#: one BLAS thread: same wall at m=128, tighter spread, and electrons-ramp is
#: faster pinned than with two threads fighting the Python driver loop
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
#: knobs of the program that would silently change what is measured
CLEARED_ENV = ("REPRO_BLOCK_OPS", "REPRO_ANALYZE",
               "REPRO_PROCESS_MIN_DISPATCH")
CHILD_TIMEOUT_S = 150.0
#: a difference in ``setup_s`` below this many seconds is never a regression
SETUP_FLOOR_S = 0.05
MIN_COVERAGE = 0.85
MAX_TRACE_OVERHEAD = 0.20

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else {}
END_TO_END = {m["name"]: m for m in BENCHMARK.get("end_to_end", ())}


# --------------------------------------------------------------------------- #
# children
# --------------------------------------------------------------------------- #
def child_env() -> Dict[str, str]:
    """The environment every child runs in."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(job: Dict[str, object]) -> Dict[str, object]:
    """Run one child to completion and return the record it printed."""
    job = dict(job, t_spawn=clock())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"child exceeded {CHILD_TIMEOUT_S:g} s"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"child exited {proc.returncode}: {tail[0]}"}


def run_workload(workload: workloads.Workload, seed: int, traced: bool
                 ) -> Dict[str, object]:
    """One measured child of ``workload``; ``record["failures"]`` says why
    the run counts as failed (empty when it passed)."""
    job = {"mode": "run", "spec": workload.run_spec(seed), "trace": traced,
           "checkpoint": None}
    scratch = None
    if workload.checkpoint:
        SCRATCH.mkdir(exist_ok=True)
        scratch = tempfile.mkdtemp(prefix=workload.name + "-", dir=SCRATCH)
        job["checkpoint"] = os.path.join(scratch, "checkpoint.npz")
    try:
        record = spawn(job)
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    record["failures"] = workloads.check_run(workload, record, seed)
    if not record["failures"]:
        secs = [s["seconds"] for s in record["sweeps"]]
        record["tail_sweep_s"] = statistics.median(
            secs[-workload.tail_sweeps:])
        record["setup_s"] = record["wall_s"] - sum(secs)
    return record


# --------------------------------------------------------------------------- #
# host
# --------------------------------------------------------------------------- #
def fingerprint(versions: Dict[str, str]) -> Dict[str, object]:
    """Where and on what these numbers were taken."""
    try:
        def git(*args: str) -> str:
            return subprocess.run(["git", *args], cwd=ROOT, check=True,
                                  capture_output=True, text=True,
                                  timeout=10).stdout.strip()
        sha = git("rev-parse", "HEAD") + \
            ("+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"               # a plain checkout is not a repository
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
            "versions": versions, "env": dict(PINNED_ENV),
            "cleared_env": list(CLEARED_ENV),
            "loadavg_start": list(os.getloadavg())}


def warn_if_loaded(host: Dict[str, object]) -> None:
    """Noise warning (never a failure): someone else is using the cores.

    Checked before the first measured child only: afterwards the harness's
    own single client accounts for a load of about one.
    """
    load = host["loadavg_start"][0]
    if load > host["nproc"] - 1:
        print(f"warning: 1-minute load average {load:.2f} exceeds "
              f"nproc - 1 = {host['nproc'] - 1}; timings may be noisy",
              file=sys.stderr)


# --------------------------------------------------------------------------- #
# measuring
# --------------------------------------------------------------------------- #
def measure(selected: Sequence[workloads.Workload], seed: int, *,
            repeats: Optional[int], seconds: Optional[float], traced: bool
            ) -> Dict[str, Dict[str, list]]:
    """``{workload: {"untraced": [records], "traced": [record]}}``.

    With ``repeats`` the untraced children are interleaved over the
    workloads.  With ``seconds`` each workload in turn is repeated while
    another child is expected to finish inside the budget, but at least twice
    so that a median exists.  A workload's traced child directly follows its
    last untraced one, so a slow spell of the host hits both sides of
    ``harness.trace_overhead_frac``.
    """
    runs = {w.name: {"untraced": [], "traced": []} for w in selected}

    def untraced_child(w: workloads.Workload) -> int:
        runs[w.name]["untraced"].append(run_workload(w, seed, False))
        return len(runs[w.name]["untraced"])

    def traced_child(w: workloads.Workload) -> None:
        if traced:
            runs[w.name]["traced"].append(run_workload(w, seed, True))

    if seconds is None:
        for i in range(repeats):
            for w in selected:
                untraced_child(w)
                if i == repeats - 1:
                    traced_child(w)
    else:
        for w in selected:
            start = clock()
            while True:
                t = clock()
                done = untraced_child(w)
                elapsed, last = clock() - start, clock() - t
                if done >= 2 and elapsed + last > seconds:
                    break
            traced_child(w)
    return runs


def _stat(values: List[float]) -> Dict[str, float]:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def end_to_end(untraced: List[Dict[str, object]]) -> Dict[str, Dict]:
    """Median / min / max / n of each end-to-end metric over passed runs."""
    good = [r for r in untraced if not r["failures"]]
    if not good:
        return {}
    return {name: dict(_stat([r[name] for r in good]), unit=m["unit"])
            for name, m in END_TO_END.items()}


def per_layer(workload: workloads.Workload, untraced: List[Dict],
              traced: Dict[str, object], calib: Dict[str, float]
              ) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one traced run (``None``: unresolved).

    Called only when every run of the workload passed its checks.
    """
    out: Dict[str, Optional[float]] = {}
    table = traced["layers"]
    for name in layers.entry_names():
        row = table[name]
        for key in ("calls", "total_s", "self_s"):
            out[f"{name}.{key}"] = None if row is None else row[key]
    m = traced["metrics"]
    tail = [s["metrics"] for s in traced["sweeps"][-workload.tail_sweeps:]]

    def ratio(a: float, b: float) -> float:
        return a / (a + b) if a + b else 0.0

    wall = statistics.median(r["wall_s"] for r in untraced)
    flops = traced["flops"]
    matmul_s = (table["symmetry.blockops.matmul"] or {}).get("total_s", 0.0)
    named = sum(row["self_s"] for name, row in table.items()
                if row is not None and name not in
                ("dmrg.sweep.dmrg", "exp.runner.execute_run"))
    out.update(traced["counts"])
    out.update({
        "symmetry.matvec.compiles": m["program.compiles"],
        "symmetry.matvec.refreshes": m["program.refreshes"],
        "symmetry.matvec.retraces": m["program.retraces"],
        "symmetry.matvec.refresh_ratio":
            ratio(m["program.refreshes"], m["program.compiles"]),
        "symmetry.matvec.compiled_applies": m["matvec.compiled_applies"],
        "symmetry.matvec.traced_applies": m["matvec.traced_applies"],
        "symmetry.matvec.tail.compiles":
            sum(t["program.compiles"] for t in tail),
        "symmetry.matvec.tail.refreshes":
            sum(t["program.refreshes"] for t in tail),
        "symmetry.matvec.tail.retraces":
            sum(t["program.retraces"] for t in tail),
        "symmetry.matvec.arena.acquires": m["arena.acquires"],
        "symmetry.matvec.arena.reuses": m["arena.reuses"],
        "symmetry.matvec.arena.allocated_bytes": m["arena.allocated_bytes"],
        "symmetry.matvec.arena.reuse_ratio":
            m["arena.reuses"] / m["arena.acquires"]
            if m["arena.acquires"] else 0.0,
        "symmetry.matvec.arena.tail.allocated_bytes":
            sum(t["arena.allocated_bytes"] for t in tail),
        "symmetry.planner.hits": m["plan_cache.hits"],
        "symmetry.planner.misses": m["plan_cache.misses"],
        "symmetry.planner.hit_ratio":
            ratio(m["plan_cache.hits"], m["plan_cache.misses"]),
        "dmrg.sweep.bonds":
            (table["dmrg.davidson.davidson"] or {}).get("calls"),
        "perf.flops.gemm": flops["gemm"],
        "perf.flops.svd": flops["svd"],
        "perf.flops.other": flops["other"],
        # total flops over the *untraced* wall: the paper's processing rate.
        # Reported, never gated: doing fewer flops is allowed
        "perf.flops.rate_gflops": flops["total"] / wall / 1e9,
        "ctf.world.modelled_s": traced["modelled_seconds"] or 0.0,
        "ctf.layout.moves": m["layout.moves"],
        "ctf.layout.reuses": m["layout.reuses"],
        "host.cpu_user_s": statistics.median(r["cpu_user_s"] for r in untraced),
        "host.cpu_sys_s": statistics.median(r["cpu_sys_s"] for r in untraced),
        "host.minor_faults":
            statistics.median(r["minor_faults"] for r in untraced),
        "host.gemm_peak_gflops": calib["host.gemm_peak_gflops"],
        "host.mem_bw_gbs": calib["host.mem_bw_gbs"],
        "symmetry.blockops.matmul.frac_of_peak":
            flops["gemm"] / matmul_s / 1e9 / calib["host.gemm_peak_gflops"]
            if matmul_s else 0.0,
        "harness.coverage": named / traced["wall_s"],
        "harness.trace_overhead_frac": traced["wall_s"] / wall - 1.0,
        "harness.unresolved_entries": len(traced["unresolved"]),
    })
    return out


def summarize(runs: Dict[str, Dict[str, list]], calib: Optional[Dict]
              ) -> Dict[str, Dict[str, object]]:
    """Per workload: failure accounting, end-to-end stats, per-layer table."""
    results = {}
    for name, group in runs.items():
        w = workloads.BY_NAME[name]
        every = group["untraced"] + group["traced"]
        result = {
            "why": w.why,
            "runs_attempted": len(every),
            "runs_failed": sum(1 for r in every if r["failures"]),
            "failures": [f for r in every for f in r["failures"]],
            "end_to_end": end_to_end(group["untraced"]),
        }
        traced = group["traced"]
        if traced and not result["runs_failed"]:
            result["per_layer"] = per_layer(w, group["untraced"], traced[0],
                                            calib)
            result["traced_wall_s"] = traced[0]["wall_s"]
        results[name] = result
    return results


# --------------------------------------------------------------------------- #
# printing
# --------------------------------------------------------------------------- #
def self_time_sum(table: Dict[str, Optional[float]]) -> float:
    """Sum of every entry's ``self_s``: equals the traced wall."""
    return sum(v for k, v in table.items()
               if k.endswith(".self_s") and v is not None)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def print_results(results: Dict[str, Dict[str, object]]) -> None:
    """Every metric by name with its unit, one block per workload."""
    for name, res in results.items():
        print(f"\n== {name}: {res['runs_attempted']} runs, "
              f"{res['runs_failed']} failed ==")
        for failure in res["failures"]:
            print(f"  FAILED: {failure}")
        for metric, st in res["end_to_end"].items():
            print(f"  {metric:<14} {st['median']:>12.4f} {st['unit']:<3} "
                  f"(min {st['min']:.4f}  max {st['max']:.4f}  n {st['n']})")
        table = res.get("per_layer")
        if table is None:
            continue
        wall = res["traced_wall_s"]
        print(f"  traced run: wall {wall:.3f} s, self times sum to "
              f"{self_time_sum(table):.3f} s")
        print(f"  {'layer entry':<34}{'calls':>10}{'total_s':>10}"
              f"{'self_s':>10}{'self/wall':>10}")
        for entry in layers.entry_names():
            calls, total, self_s = (table[f"{entry}.{k}"]
                                    for k in ("calls", "total_s", "self_s"))
            if calls is None:
                print(f"  {entry:<34}{'null':>10}{'null':>10}{'null':>10}"
                      f"{'':>10}  (unresolved)")
                continue
            print(f"  {entry:<34}{calls:>10d}{total:>10.3f}{self_s:>10.3f}"
                  f"{self_s / wall:>10.1%}")
        for counter, unit, _ in layers.COUNTERS:
            print(f"  {counter:<46}{_fmt(table[counter]):>16} {unit}")
        if table["harness.unresolved_entries"]:
            print(f"warning: {name}: "
                  f"{table['harness.unresolved_entries']} layer entries no "
                  f"longer resolve and are reported as null",
                  file=sys.stderr)


def contract_line(result: Dict[str, object], trace: int) -> str:
    """The benchmark contract's result object for one workload."""
    if trace:
        units = {n: u for n, u, _ in layers.per_layer_metrics()}
        table = result.get("per_layer") or {}
        # the contract wants a number for every name: an unresolved entry
        # reads 0 here and is counted in harness.unresolved_entries
        metrics = {n: {"value": table.get(n) or 0, "unit": u}
                   for n, u in units.items()}
    else:
        metrics = {n: {"value": st["median"], "unit": st["unit"]}
                   for n, st in result["end_to_end"].items()}
    return json.dumps({"correct": result["runs_failed"] == 0,
                       "attempted": result["runs_attempted"],
                       "failed": result["runs_failed"], "metrics": metrics})


# --------------------------------------------------------------------------- #
# self-check
# --------------------------------------------------------------------------- #
def self_check(a: Dict[str, Dict], b: Dict[str, Dict]) -> List[str]:
    """A/A comparison of two result sets of the same code; returns problems."""
    problems: List[str] = []
    exact = [n for n, unit, _ in layers.per_layer_metrics()
             if unit in ("count", "bytes", "flop") and
             not n.startswith("host.")] + ["ctf.world.modelled_s"]
    print(f"\n{'workload':<16}{'metric':<14}{'A':>11}{'B':>11}{'diff':>9}"
          f"{'bound':>8}")
    for name in a:
        ra, rb = a[name], b[name]
        if ra["runs_failed"] or rb["runs_failed"]:
            problems.append(f"{name}: runs failed: "
                            f"{ra['failures'] + rb['failures']}")
            continue
        for metric, spec in END_TO_END.items():
            va = ra["end_to_end"][metric]["median"]
            vb = rb["end_to_end"][metric]["median"]
            diff = abs(vb - va) / va
            within = diff <= spec["bound"] or \
                (metric == "setup_s" and abs(vb - va) <= SETUP_FLOOR_S)
            print(f"{name:<16}{metric:<14}{va:>11.4f}{vb:>11.4f}"
                  f"{diff:>9.2%}{spec['bound']:>8.0%}"
                  f"{'' if within else '  EXCEEDED'}")
            if not within:
                problems.append(f"{name}: {metric} differs by {diff:.2%} "
                                f"between two sets of the same code")
        for metric in exact:
            if ra["per_layer"][metric] != rb["per_layer"][metric]:
                problems.append(
                    f"{name}: counter {metric} differs: "
                    f"{ra['per_layer'][metric]} vs {rb['per_layer'][metric]}")
        for res in (ra, rb):
            table = res["per_layer"]
            for entry in layers.ENTRIES:
                calls = table[f"{entry.name}.calls"]
                reached = entry.reach == layers.ALL or name in entry.reach
                if calls is None:
                    problems.append(f"{name}: {entry.name} is unresolved")
                elif reached and calls < 1:
                    problems.append(f"{name}: {entry.name} was never called")
                elif entry.exclusive and not reached and calls:
                    problems.append(f"{name}: {entry.name} was called "
                                    f"{calls} times, expected 0")
            if table["harness.coverage"] < MIN_COVERAGE:
                problems.append(f"{name}: harness.coverage "
                                f"{table['harness.coverage']:.3f} < "
                                f"{MIN_COVERAGE}")
            if table["harness.trace_overhead_frac"] > MAX_TRACE_OVERHEAD:
                problems.append(f"{name}: harness.trace_overhead_frac "
                                f"{table['harness.trace_overhead_frac']:.3f}"
                                f" > {MAX_TRACE_OVERHEAD}")
            if abs(self_time_sum(table) / res["traced_wall_s"] - 1) > 0.01:
                problems.append(f"{name}: self times sum to "
                                f"{self_time_sum(table):.3f} s, traced "
                                f"wall is {res['traced_wall_s']:.3f} s")
    return problems


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, run the children one at a time, report."""
    names = [w.name for w in workloads.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="passed only into RunSpec.seed")
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced runs per workload (default 3; 1 with "
                             "--trace 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="repeat each workload for about this long "
                             "instead of --repeats times")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract mode: 0 = untraced runs only and the "
                             "end-to-end metrics as the last output line; "
                             "1 = one traced run more and the per-layer "
                             "metrics")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the full record to this file")
    parser.add_argument("--self-check", action="store_true",
                        help="run two full sets and compare them (A/A)")
    args = parser.parse_args(argv)
    if args.trace is not None and (args.workload is None or
                                   len(args.workload) != 1):
        parser.error("--trace needs exactly one --workload")
    if args.self_check and args.trace is not None:
        parser.error("--self-check runs full sets; drop --trace")
    if not (SRC / "repro" / "exp" / "runner.py").is_file() or not END_TO_END:
        print(f"error: {SRC}/repro or {ROOT}/BENCHMARK.json is missing: "
              f"nothing to measure", file=sys.stderr)
        return 2

    selected = [workloads.BY_NAME[n] for n in (args.workload or names)]
    traced = args.trace != 0
    seconds = args.seconds
    repeats = args.repeats
    if repeats is not None or args.trace == 1:
        seconds = None                # an explicit count wins over a budget
        repeats = repeats if repeats is not None else 1
    elif seconds is None:
        repeats = 3

    warm = spawn({"mode": "run", "spec": workloads.WARMUP_SPEC,
                  "trace": False, "checkpoint": None})
    if warm.get("error"):
        print(f"error: warm-up child failed: {warm['error']}",
              file=sys.stderr)
        return 2
    host = fingerprint(warm["versions"])
    warn_if_loaded(host)
    calib = spawn({"mode": "calibrate"}) if traced else None
    if calib is not None and calib.get("error"):
        print(f"error: calibration failed: {calib['error']}", file=sys.stderr)
        return 2

    def one_set() -> Dict[str, Dict[str, object]]:
        return summarize(measure(selected, args.seed, repeats=repeats,
                                 seconds=seconds, traced=traced), calib)

    results = one_set()
    print_results(results)
    problems: List[str] = []
    second = None
    if args.self_check:
        second = one_set()
        print_results(second)
        problems = self_check(results, second)
        for problem in problems:
            print(f"SELF-CHECK FAILED: {problem}")
        if not problems:
            print("self-check passed")
    host["loadavg_end"] = list(os.getloadavg())

    if args.json:
        record = {"host": host, "seed": args.seed, "calibration": calib,
                  "workloads": results}
        if second is not None:
            record["second_set"] = second
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    failed = sum(r["runs_failed"] for r in results.values()) + \
        sum(r["runs_failed"] for r in (second or {}).values())
    if args.trace is not None:
        print(contract_line(results[selected[0].name], args.trace))
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
