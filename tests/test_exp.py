"""Tests for the experiment orchestration subsystem (:mod:`repro.exp`)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.exp import (BUILTIN_GRIDS, GridSpec, RunInterrupted, RunRegistry,
                       RunSpec, builtin_specs, execute_and_record,
                       execute_run, load_specs, run_campaign)


def tiny_spec(**overrides) -> RunSpec:
    fields = {"model": "heisenberg-chain", "params": {"n": 6},
              "maxdim": 12, "nsweeps": 2, "seed": 1}
    fields.update(overrides)
    return RunSpec.from_dict(fields)


# --------------------------------------------------------------------------- #
# spec hashing
# --------------------------------------------------------------------------- #
class TestSpecHashing:
    def test_dict_ordering_irrelevant(self):
        a = RunSpec.from_dict({"model": "heisenberg-chain", "maxdim": 32,
                               "nsweeps": 3, "params": {"n": 8, "j2": 0.5}})
        b = RunSpec.from_dict({"params": {"j2": 0.5, "n": 8}, "nsweeps": 3,
                               "maxdim": 32, "model": "heisenberg-chain"})
        assert a.run_id == b.run_id
        assert a.canonical_json() == b.canonical_json()

    def test_numeric_coercion_hashes_equal(self):
        a = RunSpec.from_dict({"model": "tfim", "maxdim": 64})
        b = RunSpec.from_dict({"model": "tfim", "maxdim": 64.0})
        assert a.run_id == b.run_id

    def test_content_changes_the_id(self):
        base = tiny_spec()
        assert tiny_spec(maxdim=16).run_id != base.run_id
        assert tiny_spec(seed=2).run_id != base.run_id
        assert tiny_spec(params={"n": 8}).run_id != base.run_id
        assert tiny_spec(backend="list").run_id != base.run_id

    def test_run_id_names_model_and_engine(self):
        spec = tiny_spec(engine="single-site")
        assert spec.run_id.startswith("heisenberg-chain-single-site-")

    def test_label_is_cosmetic_not_identity(self):
        """Relabelling the same physics keeps the same run id."""
        plain = tiny_spec()
        labelled = tiny_spec(label="fig8 leftmost point")
        assert labelled.run_id == plain.run_id
        assert labelled.to_dict()["label"] == "fig8 leftmost point"

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown spec field"):
            RunSpec.from_dict({"model": "tfim", "maxdmi": 32})

    def test_invalid_choices_rejected(self):
        with pytest.raises(ValueError):
            RunSpec.from_dict({"model": "tfim", "engine": "three-site"})
        with pytest.raises(ValueError):
            RunSpec.from_dict({"model": "tfim", "backend": "mpi"})

    def test_run_ids_survive_the_removed_compile_matvec_field(self):
        # literal computed at 361355a, where the field still existed
        default = RunSpec(model="heisenberg-chain")
        assert default.run_id == "heisenberg-chain-two-site-01bf3471f6b1"
        assert "compile_matvec" not in default.to_dict()
        legacy = dict(tiny_spec().to_dict(), compile_matvec=True)
        assert RunSpec.from_dict(legacy).run_id == tiny_spec().run_id
        with pytest.raises(ValueError, match="was removed"):
            RunSpec.from_dict(dict(legacy, compile_matvec=False))

    def test_stable_across_process_boundary(self):
        """The same spec hashed in a fresh interpreter gives the same id."""
        spec = tiny_spec(params={"n": 8, "j2": 0.25}, maxdim=48)
        code = (
            "import json, sys\n"
            "from repro.exp import RunSpec\n"
            "fields = json.loads(sys.argv[1])\n"
            "print(RunSpec.from_dict(fields).run_id)\n")
        # reversed key order on top of the process boundary
        scrambled = dict(reversed(list(spec.to_dict().items())))
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(scrambled)],
            capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == spec.run_id


class TestGrids:
    def test_cartesian_expansion(self):
        grid = GridSpec(base={"model": "heisenberg-chain", "nsweeps": 2},
                        axes={"params.n": [6, 8], "maxdim": [12, 16]})
        specs = grid.expand()
        assert len(specs) == 4
        assert {(dict(s.params)["n"], s.maxdim) for s in specs} == \
            {(6, 12), (6, 16), (8, 12), (8, 16)}
        assert len({s.run_id for s in specs}) == 4

    def test_zip_axes_vary_together(self):
        grid = GridSpec(base={"model": "heisenberg-chain", "backend": "list"},
                        zips=[{"params.n": [6, 8], "nodes": [1, 4]}])
        specs = grid.expand()
        assert [(dict(s.params)["n"], s.nodes) for s in specs] == \
            [(6, 1), (8, 4)]

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            GridSpec(base={"model": "tfim"},
                     zips=[{"params.n": [6, 8], "nodes": [1]}])

    def test_expansion_order_deterministic(self):
        a = GridSpec(base={"model": "tfim"},
                     axes={"maxdim": [8, 16], "seed": [0, 1]}).expand()
        b = GridSpec(base={"model": "tfim"},
                     axes={"seed": [0, 1], "maxdim": [8, 16]}).expand()
        assert [s.run_id for s in a] == [s.run_id for s in b]

    def test_load_specs_grid_file(self, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({
            "name": "file-campaign",
            "base": {"model": "heisenberg-chain", "nsweeps": 2},
            "axes": {"maxdim": [12, 16]},
        }))
        name, specs = load_specs(grid_file)
        assert name == "file-campaign"
        assert [s.maxdim for s in specs] == [12, 16]

    def test_load_specs_explicit_runs(self, tmp_path):
        grid_file = tmp_path / "runs.json"
        grid_file.write_text(json.dumps({
            "base": {"model": "heisenberg-chain", "params": {"n": 6}},
            "runs": [{"maxdim": 12}, {"maxdim": 16, "params": {"n": 8}}],
        }))
        _, specs = load_specs(grid_file)
        assert [(s.maxdim, dict(s.params)["n"]) for s in specs] == \
            [(12, 6), (16, 8)]

    def test_builtin_grids_all_expand(self):
        for name in BUILTIN_GRIDS:
            campaign, specs = builtin_specs(name)
            assert campaign == name
            assert specs, name
            assert len({s.run_id for s in specs}) == len(specs)

    def test_campaign_smoke_is_2x2(self):
        _, specs = builtin_specs("campaign-smoke")
        assert len(specs) == 4


# --------------------------------------------------------------------------- #
# scheduler + registry
# --------------------------------------------------------------------------- #
class TestScheduler:
    def test_inline_campaign_records_and_skips(self, tmp_path):
        registry = RunRegistry(tmp_path)
        specs = [tiny_spec(), tiny_spec(maxdim=16)]
        result = run_campaign(specs, registry=registry, workers=0)
        assert result.completed == 2 and result.ok
        # registry layout: spec + one attempt with report and meta
        for spec in specs:
            record = registry.record_dir(spec.run_id)
            assert (record / "spec.json").is_file()
            assert (record / "attempt-000" / "report.json").is_file()
            assert (record / "attempt-000" / "meta.json").is_file()
            rec = registry.load(spec.run_id)
            assert rec.status == "completed"
            assert rec.report["run_id"] == spec.run_id
            assert rec.report["spec"] == spec.to_dict()
        # re-execution is skipped via the content-hash lookup
        again = run_campaign(specs, registry=registry, workers=0)
        assert again.skipped == 2 and again.completed == 0
        assert len(registry.attempt_dirs(specs[0].run_id)) == 1

    def test_campaign_check_flags_residue_of_completed_record(self,
                                                              tmp_path):
        import importlib.util
        path = Path(__file__).resolve().parents[1] / "tools" / \
            "check_campaign.py"
        loader = importlib.util.spec_from_file_location("check_campaign",
                                                        path)
        check = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(check)
        registry = RunRegistry(tmp_path)
        spec = tiny_spec()
        run_campaign([spec], registry=registry, workers=0)
        assert check.check_record_layout(registry, spec) == []
        record = registry.record_dir(spec.run_id)
        registry.checkpoint_path(spec.run_id).write_bytes(b"")
        (record / "attempt-000" / "report.json.123.tmp").write_bytes(b"")
        problems = check.check_record_layout(registry, spec)
        assert len(problems) == 2
        assert any("checkpoint.npz" in p for p in problems)
        assert any("report.json.123.tmp" in p for p in problems)

    def test_force_appends_a_new_attempt(self, tmp_path):
        registry = RunRegistry(tmp_path)
        spec = tiny_spec()
        run_campaign([spec], registry=registry, workers=0)
        run_campaign([spec], registry=registry, workers=0, force=True)
        assert len(registry.attempt_dirs(spec.run_id)) == 2

    def test_pool_campaign_with_two_workers(self, tmp_path):
        registry = RunRegistry(tmp_path)
        _, specs = builtin_specs("campaign-smoke")
        result = run_campaign(specs, registry=registry, workers=2)
        assert result.completed == 4 and result.ok
        for spec in specs:
            assert registry.has_completed(spec.run_id)

    def test_worker_failure_is_isolated(self, tmp_path):
        """A raising run is recorded as failed; the campaign continues."""
        registry = RunRegistry(tmp_path)
        good = [tiny_spec(), tiny_spec(maxdim=16)]
        bad = tiny_spec(params={"n": 6, "does_not_exist": 1})
        result = run_campaign(good + [bad], registry=registry, workers=2)
        assert result.completed == 2
        assert result.count("failed") == 1
        assert not result.ok
        rec = registry.load(bad.run_id)
        assert rec.status == "failed"
        assert "does_not_exist" in rec.meta["error"]
        # good runs are untouched by the failure
        for spec in good:
            assert registry.has_completed(spec.run_id)

    def test_duplicate_specs_collapse(self, tmp_path):
        registry = RunRegistry(tmp_path)
        result = run_campaign([tiny_spec(), tiny_spec()], registry=registry,
                              workers=0)
        assert len(result.outcomes) == 1

    def test_per_run_timeout_terminates_and_records(self, tmp_path):
        registry = RunRegistry(tmp_path)
        slow = RunSpec.from_dict({"model": "heisenberg-chain",
                                  "params": {"n": 16}, "maxdim": 64,
                                  "nsweeps": 8, "seed": 1})
        result = run_campaign([slow], registry=registry, workers=1,
                              timeout=0.3)
        outcome = result.outcomes[0]
        assert outcome.status == "timeout"
        assert not result.ok
        rec = registry.load(slow.run_id)
        assert rec.status == "timeout"
        assert "timed out" in rec.meta["error"]
        assert not registry.has_completed(slow.run_id)


class TestResume:
    def test_interrupted_run_resumes_to_identical_energy(self, tmp_path):
        """Interrupt mid-schedule, resume from checkpoint, match at 1e-10."""
        spec = RunSpec.from_dict({"model": "heisenberg-chain",
                                  "params": {"n": 8}, "maxdim": 64,
                                  "nsweeps": 8, "cutoff": 1e-12, "seed": 3})
        reference = execute_run(spec)

        registry = RunRegistry(tmp_path)
        outcome = execute_and_record(spec, registry,
                                     interrupt_after_sweeps=4)
        assert outcome.status == "interrupted"
        assert registry.checkpoint_path(spec.run_id).exists()
        assert not registry.has_completed(spec.run_id)

        # the next campaign invocation resumes from the checkpoint
        result = run_campaign([spec], registry=registry, workers=0)
        assert result.completed == 1
        rec = registry.load(spec.run_id)
        assert rec.status == "completed"
        assert rec.report["resumed_sweeps"] == 4
        assert rec.energy == pytest.approx(reference.energies[0], abs=1e-10)
        # the scratch checkpoint is cleaned up after completion
        assert not registry.checkpoint_path(spec.run_id).exists()

    def test_runner_interrupt_raises_after_checkpoint(self, tmp_path):
        spec = tiny_spec(nsweeps=3)
        ckpt = tmp_path / "ck.npz"
        with pytest.raises(RunInterrupted):
            execute_run(spec, checkpoint_path=ckpt, resume=True,
                        interrupt_after_sweeps=1)
        assert ckpt.exists()

    def test_checkpoint_of_other_run_rejected(self, tmp_path):
        ckpt = tmp_path / "ck.npz"
        with pytest.raises(RunInterrupted):
            execute_run(tiny_spec(nsweeps=3), checkpoint_path=ckpt,
                        resume=True, interrupt_after_sweeps=1)
        with pytest.raises(ValueError, match="belongs to run"):
            execute_run(tiny_spec(nsweeps=3, seed=9), checkpoint_path=ckpt,
                        resume=True)

    def test_corrupt_checkpoint_restarts_instead_of_failing(self, tmp_path):
        """A checkpoint truncated by a mid-write kill must not wedge the run."""
        spec = tiny_spec(nsweeps=3)
        reference = execute_run(spec)
        registry = RunRegistry(tmp_path)
        ckpt = registry.checkpoint_path(spec.run_id)
        ckpt.parent.mkdir(parents=True)
        ckpt.write_bytes(b"PK\x03\x04 truncated mid-write")
        result = run_campaign([spec], registry=registry, workers=0)
        assert result.completed == 1
        rec = registry.load(spec.run_id)
        assert rec.status == "completed"
        assert rec.report["resumed_sweeps"] == 0
        assert rec.energy == pytest.approx(reference.energies[0], abs=1e-12)

    def test_excited_engine_rejects_checkpointing(self, tmp_path):
        spec = tiny_spec(engine="excited")
        with pytest.raises(ValueError, match="excited"):
            execute_run(spec, checkpoint_path=tmp_path / "ck.npz")

    def test_single_site_checkpoint_resume(self, tmp_path):
        spec = tiny_spec(engine="single-site", maxdim=24, nsweeps=6)
        reference = execute_run(spec)
        registry = RunRegistry(tmp_path)
        execute_and_record(spec, registry, interrupt_after_sweeps=3)
        result = run_campaign([spec], registry=registry, workers=0)
        assert result.completed == 1
        rec = registry.load(spec.run_id)
        assert rec.energy == pytest.approx(reference.energies[0], abs=1e-10)


class TestSeededRuns:
    def test_seed_part_of_run_id_and_reproducible(self):
        a = execute_run(tiny_spec(initial_state="random", seed=5, nsweeps=3))
        b = execute_run(tiny_spec(initial_state="random", seed=5, nsweeps=3))
        c = execute_run(tiny_spec(initial_state="random", seed=6, nsweeps=3))
        assert a.spec.run_id == b.spec.run_id != c.spec.run_id
        assert a.energies[0] == b.energies[0]
        # the random initial state actually depends on the seed
        av = a.psi.to_dense_vector()
        bv = b.psi.to_dense_vector()
        assert av == pytest.approx(bv)


class TestReportKeysTheBenchmarkReads:
    def test_report_has_every_key_per_layer_indexes(self):
        """``benchmarks/e2e/run.py::per_layer`` indexes these unconditionally
        (via ``child.py``'s copy of the report); a missing one is a KeyError
        in every ``--trace 1`` run."""
        report = execute_run(tiny_spec()).report
        run_keys = ("program.compiles", "program.refreshes",
                    "program.retraces", "matvec.compiled_applies",
                    "matvec.traced_applies", "arena.acquires", "arena.reuses",
                    "arena.allocated_bytes", "plan_cache.hits",
                    "plan_cache.misses", "layout.moves", "layout.reuses")
        sweep_keys = ("program.compiles", "program.refreshes",
                      "program.retraces", "arena.allocated_bytes")
        assert not [k for k in run_keys if k not in report["metrics"]]
        assert len(report["sweeps"]) == 2
        for row in report["sweeps"]:
            assert not [k for k in sweep_keys if k not in row["metrics"]]
            assert {"seconds", "energy", "max_bond_dim"} <= set(row)
        assert {"energies", "max_bond_dimension"} <= set(report)
        # the one live count among the matvec keys
        assert report["metrics"]["matvec.traced_applies"] > 0
        assert report["metrics"]["matvec.compiled_applies"] == 0


class TestExcitedRunsFollowTheSpec:
    def test_fixed_schedule_runs_every_sweep_at_maxdim(self):
        from repro.obs import trace

        spec = tiny_spec(engine="excited", nstates=2, schedule="fixed",
                         maxdim=12, nsweeps=3)
        with trace.tracing() as rec:
            execute_run(spec)
        sweeps = [args for _ts, _dur, name, _cat, _pid, _lane, args
                  in rec.events() if name == "sweep"]
        assert len(sweeps) == spec.nstates * spec.nsweeps
        assert {a["maxdim"] for a in sweeps} == {12}
        assert {a["engine"] for a in sweeps} == {"excited"}


# --------------------------------------------------------------------------- #
# registry queries and diff
# --------------------------------------------------------------------------- #
def _fake_record(registry, spec, *, modelled_seconds, energy,
                 status="completed"):
    report = {"run_id": spec.run_id, "spec": spec.to_dict(),
              "energies": [energy], "modelled_seconds": modelled_seconds}
    registry.write(spec, status=status, report=report, seconds=1.0)


class TestRegistryDiff:
    def test_injected_modelled_seconds_regression_flagged(self, tmp_path):
        registry = RunRegistry(tmp_path)
        a = tiny_spec(seed=1)
        b = tiny_spec(seed=2)
        _fake_record(registry, a, modelled_seconds=1.0, energy=-3.0)
        _fake_record(registry, b, modelled_seconds=1.5, energy=-3.0)
        diff = registry.diff(a, b)
        assert diff.regressed
        assert any("modelled seconds regressed" in r
                   for r in diff.regressions)
        assert diff.modelled_seconds_delta == pytest.approx(0.5)
        # the reverse direction is an improvement, not a regression
        back = registry.diff(b, a)
        assert not back.regressed
        assert any("improved" in s for s in back.improvements)

    def test_energy_regression_flagged(self, tmp_path):
        registry = RunRegistry(tmp_path)
        a, b = tiny_spec(seed=1), tiny_spec(seed=2)
        _fake_record(registry, a, modelled_seconds=1.0, energy=-3.37)
        _fake_record(registry, b, modelled_seconds=1.0, energy=-3.30)
        diff = registry.diff(a, b)
        assert diff.regressed
        assert any("energy regressed" in r for r in diff.regressions)
        assert diff.spec_changes["seed"] == (1, 2)

    def test_within_tolerance_is_quiet(self, tmp_path):
        registry = RunRegistry(tmp_path)
        a, b = tiny_spec(seed=1), tiny_spec(seed=2)
        _fake_record(registry, a, modelled_seconds=1.00, energy=-3.0)
        _fake_record(registry, b, modelled_seconds=1.02, energy=-3.0)
        diff = registry.diff(a, b)
        assert not diff.regressed and not diff.improvements

    def test_latest_skips_failed_attempts(self, tmp_path):
        registry = RunRegistry(tmp_path)
        spec = tiny_spec()
        registry.write(spec, status="failed", error="boom", seconds=0.1)
        assert registry.latest(spec) is None
        _fake_record(registry, spec, modelled_seconds=1.0, energy=-3.0)
        rec = registry.latest(spec)
        assert rec is not None and rec.status == "completed"
        assert len(registry.attempt_dirs(spec.run_id)) == 2

    def test_prefix_resolution(self, tmp_path):
        registry = RunRegistry(tmp_path)
        spec = tiny_spec()
        _fake_record(registry, spec, modelled_seconds=1.0, energy=-3.0)
        assert registry.resolve(spec.run_id[:20]) == spec.run_id
        with pytest.raises(KeyError):
            registry.resolve("nope")


# --------------------------------------------------------------------------- #
# CLI front ends
# --------------------------------------------------------------------------- #
class TestSweepCLI:
    def test_sweep_grid_file_and_history(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({
            "name": "cli-campaign",
            "base": {"model": "heisenberg-chain", "params": {"n": 6},
                     "nsweeps": 2},
            "axes": {"maxdim": [12, 16]},
        }))
        history = tmp_path / "history"
        code = main(["sweep", "--grid", str(grid_file), "--workers", "0",
                     "--history", str(history)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Campaign summary: cli-campaign" in out
        assert "completed 2, skipped 0, failed 0" in out
        # second invocation skips both runs via the content hash
        code = main(["sweep", "--grid", str(grid_file), "--workers", "0",
                     "--history", str(history)])
        assert code == 0
        assert "completed 0, skipped 2" in capsys.readouterr().out
        # history lists both runs
        code = main(["history", "--history", str(history)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("heisenberg-chain-two-site-") >= 2

    def test_sweep_dry_run_and_list_grids(self, tmp_path, capsys):
        assert main(["sweep", "--list-grids"]) == 0
        assert "campaign-smoke" in capsys.readouterr().out
        assert main(["sweep", "--grid", "campaign-smoke", "--dry-run",
                     "--history", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("run") >= 4

    def test_history_model_filter_applies_before_limit(self, tmp_path,
                                                       capsys):
        registry = RunRegistry(tmp_path)
        _fake_record(registry, tiny_spec(), modelled_seconds=1.0, energy=-3.0)
        _fake_record(registry, RunSpec.from_dict({"model": "tfim"}),
                     modelled_seconds=1.0, energy=-9.0)
        code = main(["history", "--history", str(tmp_path), "--limit", "1",
                     "--model", "heisenberg-chain"])
        out = capsys.readouterr().out
        assert code == 0
        assert "heisenberg-chain-two-site-" in out

    def test_history_diff_cli(self, tmp_path, capsys):
        registry = RunRegistry(tmp_path)
        a, b = tiny_spec(seed=1), tiny_spec(seed=2)
        _fake_record(registry, a, modelled_seconds=1.0, energy=-3.0)
        _fake_record(registry, b, modelled_seconds=2.0, energy=-3.0)
        code = main(["history", "--history", str(tmp_path),
                     "--diff", a.run_id, b.run_id])
        out = capsys.readouterr().out
        assert code == 0
        assert "REGRESSION" in out
        code = main(["history", "--history", str(tmp_path),
                     "--diff", a.run_id, b.run_id, "--fail-on-regression"])
        capsys.readouterr()
        assert code == 1

    def test_run_checkpoint_resume_cli(self, tmp_path, capsys):
        ckpt = tmp_path / "ck.npz"
        args = ["run", "--model", "heisenberg-chain", "--param", "n=6",
                "--maxdim", "16", "--nsweeps", "3", "--seed", "4",
                "--checkpoint", str(ckpt)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "checkpoint" in first
        assert ckpt.exists()
        assert main(args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "resumed" in resumed

        def energy(text):
            for line in text.splitlines():
                if line.startswith("energy"):
                    return float(line.split(":")[1])
            raise AssertionError("no energy line")

        assert energy(resumed) == pytest.approx(energy(first), abs=1e-10)
