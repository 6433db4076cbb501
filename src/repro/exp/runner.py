"""Execute one :class:`~repro.exp.spec.RunSpec`: the campaign unit of work.

This module is the single execution core behind ``python -m repro run``, the
sweep scheduler's worker processes and the tests: it builds the model,
constructs the seeded initial MPS, selects the engine/backend, runs the
sweeps with optional per-sweep checkpointing, and condenses everything into
the JSON-native report dict the run registry archives.

Checkpoint/resume semantics
---------------------------
With ``checkpoint_path`` set, a :func:`~repro.dmrg.checkpoint.save_checkpoint`
snapshot is written after every completed sweep (the spec's ``run_id`` is
stored in the checkpoint metadata, so a stale file from a different spec is
rejected instead of silently resumed).  With ``resume=True`` an existing
checkpoint restarts the run mid-schedule via
:func:`~repro.dmrg.checkpoint.resume_sweep_schedule`; energies recorded
before the interruption are prepended so the archived report covers the whole
schedule.  The ``excited`` engine optimizes several states in turn and has no
single resumable wavefunction, so checkpointing is not supported there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..backends import make_backend
from ..backends.base import ContractionBackend
from ..ctf import MACHINES, SimWorld
from ..dmrg import (DMRGConfig, DMRGResult, Sweeps, dmrg, find_lowest_states,
                    load_checkpoint, measure, save_checkpoint,
                    single_site_dmrg)
from ..models import build_model
from ..mps import MPS, build_mpo
from ..obs import metrics as obs_metrics
from ..obs import trace
from .spec import RunSpec


class RunInterrupted(Exception):
    """Raised by the test-only ``interrupt_after_sweeps`` hook.

    The checkpoint for the interrupting sweep is already on disk when this
    propagates, exactly like a run killed between sweeps by a queue limit.
    """


@dataclass
class RunOutput:
    """Everything one executed run produced."""

    spec: RunSpec
    report: Dict[str, object]
    psi: MPS
    result: Optional[DMRGResult]
    energies: List[float]
    states: List[MPS]
    backend: ContractionBackend
    world: Optional[SimWorld]
    seconds: float
    resumed_sweeps: int = 0
    extra_lines: List[str] = field(default_factory=list)


def build_schedule(spec: RunSpec) -> Sweeps:
    """The spec's sweep schedule (``ramp`` doubles up to ``maxdim``)."""
    if spec.schedule == "fixed":
        return Sweeps.fixed(spec.maxdim, spec.nsweeps, cutoff=spec.cutoff)
    return Sweeps.ramp(spec.maxdim, spec.nsweeps, cutoff=spec.cutoff)


def build_backend(spec: RunSpec):
    """``(backend, world)`` for the spec's backend/machine shape."""
    if spec.backend == "direct":
        return make_backend("direct", None), None
    try:
        machine = MACHINES[spec.machine]
    except KeyError:
        raise ValueError(f"unknown machine {spec.machine!r}; "
                         f"choose from {sorted(MACHINES)}") from None
    world = SimWorld(nodes=spec.nodes, procs_per_node=spec.procs_per_node,
                     machine=machine)
    return make_backend(spec.backend, world), world


def build_initial_state(spec: RunSpec, sites, config_state,
                        rng: np.random.Generator) -> MPS:
    """The seeded initial MPS (product state or random block-sparse MPS)."""
    if spec.initial_state == "random":
        return MPS.random(sites, total_charge=sites.total_charge(config_state),
                          bond_dim=spec.initial_bond_dim, rng=rng)
    return MPS.product_state(sites, config_state)


def execute_run(spec: RunSpec, *, checkpoint_path: str | Path | None = None,
                resume: bool = False, interrupt_after_sweeps: int | None = None,
                verbose: bool = False,
                trace_path: str | Path | None = None) -> RunOutput:
    """Run one spec end to end and return its report.

    Parameters
    ----------
    spec:
        The declarative run description.
    checkpoint_path:
        Write a resumable checkpoint here after every completed sweep
        (two-site and single-site engines only).
    resume:
        Restart from an existing checkpoint at ``checkpoint_path`` instead of
        the initial state; a missing checkpoint silently starts fresh, a
        checkpoint from a *different* spec raises ``ValueError``.
    interrupt_after_sweeps:
        Test hook: raise :class:`RunInterrupted` once this many sweeps
        completed (after their checkpoint is written), simulating a run
        killed mid-schedule.
    trace_path:
        Install a fresh span recorder for the duration of the run and export
        a Chrome trace-event JSON file here on exit (also on failure, so
        partial traces of crashed runs survive).
    """
    if trace_path is not None:
        with trace.tracing(str(trace_path)):
            return execute_run(spec, checkpoint_path=checkpoint_path,
                               resume=resume,
                               interrupt_after_sweeps=interrupt_after_sweeps,
                               verbose=verbose)

    run_span = trace.timed_span("run", "exp", run_id=spec.run_id,
                                engine=spec.engine, model=spec.model).start()
    rng = np.random.default_rng(spec.seed)
    overrides = dict(spec.params)
    with trace.span("model-build", "exp", model=spec.model):
        lattice, sites, opsum, config_state = build_model(spec.model,
                                                          **overrides)
        mpo = build_mpo(opsum, sites)
    psi0 = build_initial_state(spec, sites, config_state, rng)
    backend, world = build_backend(spec)

    full_schedule = build_schedule(spec)
    schedule = full_schedule
    completed_before = 0
    prior_energies: List[float] = []
    checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
    if checkpoint_path is not None and spec.engine == "excited":
        raise ValueError("checkpointing is not supported for the excited "
                         "engine (several states, no single resumable MPS)")
    if resume and checkpoint_path is not None and checkpoint_path.exists():
        try:
            ckpt = load_checkpoint(checkpoint_path, sites)
        except Exception as exc:  # noqa: BLE001 - unreadable snapshot
            # a run killed mid-write (queue limit, scheduler timeout) must
            # not wedge its run id forever: an unreadable checkpoint means
            # "start from sweep zero", not "fail every retry" — except for
            # a checkpoint that loads fine but belongs to another run,
            # which is a caller error and re-raised below
            try:
                checkpoint_path.unlink()
            except OSError:  # pragma: no cover - best effort cleanup
                pass
            ckpt = None
            if verbose:  # pragma: no cover - console output
                print(f"discarding unreadable checkpoint "
                      f"{checkpoint_path}: {exc}")
        if ckpt is not None:
            ckpt_run_id = ckpt.metadata.get("run_id")
            if ckpt_run_id not in (None, spec.run_id):
                raise ValueError(
                    f"checkpoint {checkpoint_path} belongs to run "
                    f"{ckpt_run_id!r}, not {spec.run_id!r}")
            from ..dmrg import resume_sweep_schedule
            completed_before = min(ckpt.completed_sweeps, len(full_schedule))
            prior_energies = list(ckpt.energies)
            schedule = resume_sweep_schedule(full_schedule, ckpt)
            psi0 = ckpt.psi

    sweep_hook = None
    if checkpoint_path is not None:
        checkpoint_path.parent.mkdir(parents=True, exist_ok=True)

        def sweep_hook(sweep_index: int, psi: MPS, result: DMRGResult) -> None:
            done = completed_before + sweep_index + 1
            save_checkpoint(
                checkpoint_path, psi, completed_sweeps=done,
                energies=prior_energies + result.energies,
                metadata={"run_id": spec.run_id,
                          "total_sweeps": len(full_schedule)})
            if (interrupt_after_sweeps is not None
                    and sweep_index + 1 >= interrupt_after_sweeps):
                raise RunInterrupted(
                    f"interrupted after sweep {done}/{len(full_schedule)}")

    config = DMRGConfig(sweeps=schedule, sweep_hook=sweep_hook,
                        verbose=verbose)

    result: Optional[DMRGResult] = None
    if len(schedule) == 0:
        # the checkpoint already covers the whole schedule: nothing to run
        psi = psi0.copy()
        energies = [prior_energies[-1]] if prior_energies else [float("nan")]
        states = [psi]
    elif spec.engine == "two-site":
        result, psi = dmrg(mpo, psi0, config, backend=backend, rng=rng)
        energies = [result.energy]
        states = [psi]
    elif spec.engine == "single-site":
        result, psi = single_site_dmrg(mpo, psi0, config, backend=backend,
                                       rng=rng)
        energies = [result.energy]
        states = [psi]
    elif spec.engine == "excited":
        pairs = find_lowest_states(mpo, psi0, spec.nstates, config=config,
                                   backend=backend, rng=rng)
        energies = [e for e, _ in pairs]
        states = [s for _, s in pairs]
        psi = states[0]
    else:  # pragma: no cover - RunSpec validates engines
        raise ValueError(f"unknown engine {spec.engine!r}")
    seconds = run_span.stop()

    report = build_report(spec, result, psi, energies, backend, world,
                          seconds, prior_energies=prior_energies,
                          resumed_sweeps=completed_before)
    out = RunOutput(spec=spec, report=report, psi=psi, result=result,
                    energies=energies, states=states, backend=backend,
                    world=world, seconds=seconds,
                    resumed_sweeps=completed_before)

    if spec.observables:
        m = measure(psi, mpo, profile_ops=list(spec.observables))
        report["variance"] = m.variance
        report["profiles"] = {k: [float(x) for x in v]
                              for k, v in m.profiles.items()}
        out.extra_lines.append(m.summary())
    return out


def build_report(spec: RunSpec, result: Optional[DMRGResult], psi: MPS,
                 energies: List[float], backend: ContractionBackend,
                 world: Optional[SimWorld], seconds: float, *,
                 prior_energies: List[float] | None = None,
                 resumed_sweeps: int = 0) -> Dict[str, object]:
    """The JSON-native report the registry archives for one run.

    The same shape ``repro run --output`` always wrote, extended with the
    spec, run id and resume provenance so history records are
    self-describing.
    """
    report: Dict[str, object] = {
        "schema": "repro-run-report/1",
        "run_id": spec.run_id,
        "spec": spec.to_dict(),
        "model": spec.model,
        "engine": spec.engine,
        "backend": spec.backend,
        "maxdim": spec.maxdim,
        "nsweeps": spec.nsweeps,
        "seed": spec.seed,
        "energies": [float(e) for e in energies],
        "seconds": float(seconds),
        "max_bond_dimension": psi.max_bond_dimension(),
        "resumed_sweeps": int(resumed_sweeps),
    }
    if prior_energies:
        report["prior_sweep_energies"] = [float(e) for e in prior_energies]
    if result is not None and result.sweep_records:
        report["sweeps"] = [
            {"sweep": r.sweep, "energy": r.energy,
             "max_bond_dim": r.max_bond_dim, "seconds": r.seconds,
             "plan_hits": r.metrics["plan_cache.hits"],
             "plan_misses": r.metrics["plan_cache.misses"],
             "layout_moves": r.metrics["layout.moves"],
             "layout_reuses": r.metrics["layout.reuses"],
             "metrics": obs_metrics.sweep_metrics(r)}
            for r in result.sweep_records]
        report["plan_cache_hit_rate"] = result.plan_cache_hit_rate
        report["layout_reuse_rate"] = result.layout_reuse_rate
    if world is not None:
        report["modelled_seconds"] = world.profiler.total_seconds()
        report["layout_tracker"] = world.layout_tracker.snapshot()
    report["metrics"] = obs_metrics.run_metrics(
        result=result, backend=backend, world=world).flat()
    return report
