#!/usr/bin/env python
"""Campaign-smoke gate: a tiny grid through the scheduler, layout asserted.

Runs the built-in 2x2 ``campaign-smoke`` grid (two chain lengths x two bond
dimensions) on the process-pool scheduler with two workers, into the
repository's real run registry (``benchmarks/results/history/``), and fails
— exit code 1, one line per violation — unless:

* every run of the grid ends up with a completed registry record,
* each record directory follows the registry layout
  (``spec.json`` + ``attempt-NNN/{report.json,meta.json}``),
* the archived spec round-trips to the same content-hash run id,
* each report carries energies and the spec it was produced from,
* a completed record leaves no residue: no ``checkpoint.npz`` (in-flight
  scratch) and no ``*.tmp`` file of an interrupted atomic write,
* a second scheduler pass skips every run via the content-hash lookup
  (re-executing a campaign is idempotent).

Usage::

    python tools/check_campaign.py [history-dir]

Part of ``make check`` via ``make campaign-smoke``; keeps the experiment
orchestration subsystem (specs -> scheduler -> registry) from silently
rotting.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.exp import (RunRegistry, RunSpec, builtin_specs,  # noqa: E402
                       run_campaign)


def check_record_layout(registry: RunRegistry, spec: RunSpec) -> list[str]:
    """Layout violations of one run's registry record (empty = ok)."""
    problems: list[str] = []
    record = registry.record_dir(spec.run_id)
    if not (record / "spec.json").is_file():
        problems.append(f"{spec.run_id}: missing spec.json")
        return problems
    attempts = registry.attempt_dirs(spec.run_id)
    if not attempts:
        problems.append(f"{spec.run_id}: no attempt directories")
        return problems
    rec = registry.latest(spec)
    if rec is None:
        problems.append(f"{spec.run_id}: no completed attempt")
        return problems
    for name in ("report.json", "meta.json"):
        if not (rec.path / name).is_file():
            problems.append(f"{spec.run_id}: {rec.path.name}/{name} missing")
    # the archived spec must hash back to the directory it lives in
    round_trip = RunSpec.from_dict(rec.spec)
    if round_trip.run_id != spec.run_id:
        problems.append(f"{spec.run_id}: archived spec hashes to "
                        f"{round_trip.run_id}")
    if not rec.report or not rec.report.get("energies"):
        problems.append(f"{spec.run_id}: report has no energies")
    # compared as specs, not dicts: a record archived before a spec field
    # was retired still carries that field
    archived = (rec.report or {}).get("spec")
    if rec.report and (archived is None
                       or RunSpec.from_dict(archived) != spec):
        problems.append(f"{spec.run_id}: report spec differs from spec.json")
    residue = [p for p in record.rglob("*")
               if p.name == "checkpoint.npz" or p.name.endswith(".tmp")]
    for path in sorted(residue):
        problems.append(f"{spec.run_id}: completed record holds "
                        f"{path.relative_to(record)}")
    return problems


def main(argv: list[str]) -> int:
    """Run the smoke campaign twice and verify records + idempotence."""
    root = argv[1] if len(argv) > 1 else None
    registry = RunRegistry(root) if root else RunRegistry()
    name, specs = builtin_specs("campaign-smoke")
    print(f"campaign-smoke: {len(specs)} runs, 2 workers -> {registry.root}")
    first = run_campaign(specs, registry=registry, name=name, workers=2,
                         timeout=120.0)
    for outcome in first.outcomes:
        print(f"  {outcome.run_id:45s} {outcome.status:10s} "
              f"{outcome.seconds:6.2f} s")

    problems: list[str] = []
    if not first.ok:
        problems.append(f"first pass had {first.failed} failed/timed-out runs")
    for spec in specs:
        problems.extend(check_record_layout(registry, spec))

    second = run_campaign(specs, registry=registry, name=name, workers=2)
    if second.skipped != len(specs):
        problems.append(
            f"second pass should skip all {len(specs)} runs via the "
            f"content hash; skipped {second.skipped}, "
            f"completed {second.completed}, failed {second.failed}")

    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    print(f"campaign-smoke ok: {len(specs)} records under {registry.root}, "
          "re-execution skipped via content hash")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
