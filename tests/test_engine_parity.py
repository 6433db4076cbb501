"""The three DMRG drivers on all four backends against a pinned golden.

``tests/data/engine_parity_golden.json`` was generated at commit 361355a, the
last one with compiled matvec programs, with them switched off: on the planned
chain that is now the only Davidson matvec (CHANGES.md, PR 20, has the exact
collector edits and command); PR 21 deleted the two constant-zero keys of the
removed executors (``executor.parallel``, ``shm.live_segments``) from each
case's ``run_metrics`` by editing the file, not by regenerating it.  Every
case must reproduce its energies, per-bond records, counters, modelled seconds
and the exact order of recorded spans.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.backends import make_backend
from repro.ctf import MACHINES, SimWorld
from repro.dmrg import (DMRGConfig, Sweeps, dmrg, excited_dmrg,
                        single_site_dmrg)
from repro.models import build_model
from repro.mps import MPS, build_mpo
from repro.obs import metrics as obs_metrics
from repro.obs import trace

GOLDEN = Path(__file__).parent / "data" / "engine_parity_golden.json"

MODELS = {"heisenberg-chain": {"n": 8}, "hubbard-chain": {"n": 4}}
ENGINES = ("two-site", "single-site", "excited")
BACKENDS = ("direct", "list", "sparse-dense", "sparse-sparse")
CASES = [(model, engine, backend) for model in MODELS for engine in ENGINES
         for backend in BACKENDS]


def _case_id(case) -> str:
    return "/".join(case)


def _counts(flat):
    """The count-type entries of a flat metrics mapping (no wall-clock)."""
    return {k: v for k, v in flat.items() if "seconds" not in k}


def _problem(case):
    """``(mpo, psi0, previous)``; excited cases penalize the ground state."""
    model, engine, _ = case
    _, sites, opsum, state = build_model(model, **MODELS[model])
    mpo = build_mpo(opsum, sites)
    psi0 = MPS.product_state(sites, state)
    previous = []
    if engine == "excited":
        previous = [dmrg(mpo, psi0, DMRGConfig(sweeps=Sweeps.ramp(16, 4)))[1]]
    return mpo, psi0, previous


def _run(case, problem, backend=None, **config_kwargs):
    """One driver run with its default rng; ``(result, world, backend)``."""
    _, engine, backend_name = case
    mpo, psi0, previous = problem
    config = DMRGConfig(sweeps=Sweeps.ramp(16, 4), **config_kwargs)
    world = None
    if backend_name != "direct":
        world = SimWorld(nodes=2, procs_per_node=4,
                         machine=MACHINES["blue-waters"])
    if backend is None:
        backend = make_backend(backend_name, world)
    if engine == "two-site":
        result, _ = dmrg(mpo, psi0, config, backend=backend)
    elif engine == "single-site":
        result, _ = single_site_dmrg(mpo, psi0, config, backend=backend)
    else:
        result, _ = excited_dmrg(mpo, psi0, previous, config, backend=backend)
    return result, world, backend


def collect(case):
    """Everything the golden pins for one case, as JSON-native values."""
    problem = _problem(case)
    with trace.tracing(capacity=1 << 20) as rec:
        result, world, backend = _run(case, problem)
    assert rec.dropped == 0
    labels = []
    by_name = {}
    for _ts, _dur, name, category, _pid, _lane, args in rec.events():
        label = f"{category}/{name}"
        by_name[label] = by_name.get(label, 0) + 1
        if category == "dmrg" and args:
            label += "".join(f" {k}={args[k]}" for k in sorted(args))
        labels.append(label)
    # the ordered list (driver spans with their annotations) is pinned by
    # digest; the per-name counts are there to read when it differs
    spans = {"count": len(labels), "by_name": by_name,
             "sha256": hashlib.sha256("\n".join(labels).encode()).hexdigest()}
    return {
        "energies": [float(e) for e in result.energies],
        "site_records": [[r.site, r.direction, r.bond_dim,
                          r.davidson_iterations, r.matvecs, r.flops]
                         for r in result.site_records],
        "sweep_metrics": [_counts(obs_metrics.sweep_metrics(r))
                          for r in result.sweep_records],
        "run_metrics": _counts(obs_metrics.run_metrics(
            result=result, backend=backend, world=world).flat()),
        "modelled_seconds": (world.profiler.total_seconds()
                             if world is not None else None),
        "spans": spans,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_matches_pre_refactor_golden(case, golden):
    want = golden[_case_id(case)]
    got = collect(case)
    assert got["energies"] == pytest.approx(want["energies"], rel=1e-12)
    # flops are differences of a process-wide running total: equal up to the
    # rounding of wherever that total stood
    assert [r[:5] for r in got["site_records"]] == \
        [r[:5] for r in want["site_records"]]
    assert [r[5] for r in got["site_records"]] == pytest.approx(
        [r[5] for r in want["site_records"]], rel=1e-9)
    assert len(got["sweep_metrics"]) == len(want["sweep_metrics"])
    for got_sweep, want_sweep in zip(got["sweep_metrics"],
                                     want["sweep_metrics"]):
        assert got_sweep.pop("sweep.flops") == pytest.approx(
            want_sweep.pop("sweep.flops"), rel=1e-9)
        assert got_sweep == want_sweep
    assert got["run_metrics"] == want["run_metrics"]
    if want["modelled_seconds"] is None:
        assert got["modelled_seconds"] is None
    else:
        assert got["modelled_seconds"] == pytest.approx(
            want["modelled_seconds"], rel=1e-12)
    assert got["spans"] == want["spans"]


@pytest.mark.parametrize("engine", ENGINES)
def test_sweep_hook_fires_once_per_completed_sweep(engine):
    calls = []

    def hook(sweep_id, psi, result):
        # records of the finished sweep are already appended
        assert len(result.sweep_records) == sweep_id + 1
        assert len(result.energies) == sweep_id + 1
        assert result.energy == result.energies[-1]
        assert np.isfinite(result.energy)
        calls.append(sweep_id)

    case = ("heisenberg-chain", engine, "direct")
    result, _, _ = _run(case, _problem(case), sweep_hook=hook)
    assert calls == list(range(len(result.sweep_records))) == [0, 1, 2, 3]


@pytest.mark.parametrize("engine, touched", [
    ("two-site", {2, 3, 4}), ("single-site", {2, 3, 4, 5}),
    ("excited", {2, 3, 4})])
def test_site_ranges_restrict_the_optimized_sites(engine, touched):
    case = ("heisenberg-chain", engine, "direct")
    mpo, psi0, previous = _problem(case)
    result, _, _ = _run(case, (mpo, psi0, previous), site_ranges=[(2, 5)])
    assert {r.site for r in result.site_records} == touched
    assert len(result.site_records) == 4 * 2 * 3
    assert np.isfinite(result.energy)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_engine_parity.py --regenerate")
    GOLDEN.parent.mkdir(exist_ok=True)
    rows = [f"{json.dumps(_case_id(c))}: "
            f"{json.dumps(collect(c), sort_keys=True)}" for c in CASES]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
