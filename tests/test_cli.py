"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _parse_params, build_parser, main
from repro.dmrg import load_mps
from repro.ed import ground_state_energy
from repro.models import build_model


class TestParamParsing:
    def test_numeric_coercion(self):
        params = _parse_params(["n=12", "j2=0.5", "label=test"])
        assert params == {"n": 12, "j2": 0.5, "label": "test"}

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            _parse_params(["n12"])


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--model", "tfim"])
        assert args.engine == "two-site"
        assert args.backend == "direct"
        assert args.maxdim == 64
        # the executor selector is gone, not defaulted
        assert not hasattr(args, "block_ops")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--model", "tfim",
                                       "--block-ops", "numpy"])

    def test_models_subcommand(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "spins" in out
        assert "electrons" in out


class TestRunCommand:
    def test_ground_state_run_matches_ed(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        state_file = tmp_path / "state.npz"
        code = main(["run", "--model", "heisenberg-chain", "--param", "n=8",
                     "--maxdim", "48", "--nsweeps", "6",
                     "--measure", "Sz",
                     "--output", str(out_json),
                     "--save-state", str(state_file)])
        assert code == 0
        report = json.loads(out_json.read_text())
        _, sites, opsum, config = build_model("heisenberg-chain", n=8)
        exact = ground_state_energy(opsum, sites,
                                    charge=sites.total_charge(config))
        assert report["energies"][0] == pytest.approx(exact, abs=1e-6)
        assert "Sz" in report["profiles"]
        assert "block_ops" not in report and "block_ops" not in report["spec"]
        # the saved state reloads onto the same site set
        psi = load_mps(state_file, sites)
        assert len(psi) == 8

    def test_single_site_engine(self, capsys):
        code = main(["run", "--model", "heisenberg-chain", "--param", "n=6",
                     "--engine", "single-site", "--maxdim", "32",
                     "--nsweeps", "8"])
        assert code == 0
        assert "energy" in capsys.readouterr().out

    def test_excited_engine_reports_gap(self, capsys):
        code = main(["run", "--model", "heisenberg-chain", "--param", "n=6",
                     "--engine", "excited", "--nstates", "2",
                     "--maxdim", "32", "--nsweeps", "6"])
        assert code == 0
        assert "gap" in capsys.readouterr().out

    def test_distributed_backend_reports_modelled_time(self, capsys):
        code = main(["run", "--model", "heisenberg-chain", "--param", "n=6",
                     "--backend", "list", "--nodes", "2",
                     "--procs-per-node", "4", "--maxdim", "24",
                     "--nsweeps", "4"])
        assert code == 0
        assert "modelled time" in capsys.readouterr().out

    def test_unknown_model_fails_gracefully(self, capsys):
        assert main(["run", "--model", "does-not-exist"]) == 2
        assert "error" in capsys.readouterr().err
