"""Tests for MPS serialization and DMRG checkpointing."""

import numpy as np
import pytest

from repro.dmrg import (Checkpoint, DMRGConfig, Sweeps, dmrg, load_checkpoint,
                        load_mps, resume_sweep_schedule, run_dmrg,
                        save_checkpoint, save_mps)
from repro.ed import ground_state_energy
from repro.models import heisenberg_chain_model, hubbard_chain_model
from repro.mps import MPS, build_mpo, overlap


@pytest.fixture(scope="module")
def spin_problem():
    _, sites, opsum, config = heisenberg_chain_model(8)
    mpo = build_mpo(opsum, sites)
    psi0 = MPS.product_state(sites, config)
    return sites, opsum, mpo, psi0, config


class TestMPSRoundTrip:
    def test_random_state_round_trip(self, spin_problem, tmp_path):
        sites, _, _, _, config = spin_problem
        rng = np.random.default_rng(2)
        psi = MPS.random(sites, total_charge=sites.total_charge(config),
                         bond_dim=12, rng=rng)
        path = save_mps(tmp_path / "psi.npz", psi)
        loaded = load_mps(path, sites)
        assert len(loaded) == len(psi)
        assert loaded.center == psi.center
        assert loaded.bond_dimensions() == psi.bond_dimensions()
        assert np.allclose(loaded.to_dense_vector(), psi.to_dense_vector())

    def test_product_state_round_trip(self, spin_problem, tmp_path):
        sites, _, _, psi0, _ = spin_problem
        loaded = load_mps(save_mps(tmp_path / "p.npz", psi0), sites)
        assert abs(overlap(loaded, psi0)) == pytest.approx(1.0)

    def test_block_structure_preserved(self, spin_problem, tmp_path):
        sites, _, _, _, config = spin_problem
        rng = np.random.default_rng(7)
        psi = MPS.random(sites, total_charge=sites.total_charge(config),
                         bond_dim=10, rng=rng)
        loaded = load_mps(save_mps(tmp_path / "b.npz", psi), sites)
        for a, b in zip(psi.tensors, loaded.tensors):
            assert set(a.blocks) == set(b.blocks)
            assert a.indices[0].sectors == b.indices[0].sectors
            assert a.flux == b.flux

    def test_wrong_site_count_rejected(self, spin_problem, tmp_path):
        sites, _, _, psi0, _ = spin_problem
        path = save_mps(tmp_path / "x.npz", psi0)
        _, small_sites, _, _ = heisenberg_chain_model(4)
        with pytest.raises(ValueError):
            load_mps(path, small_sites)

    def test_wrong_kind_rejected(self, spin_problem, tmp_path):
        sites, _, _, psi0, _ = spin_problem
        path = save_checkpoint(tmp_path / "c.npz", psi0, completed_sweeps=0)
        with pytest.raises(ValueError):
            load_mps(path, sites)

    def test_fermionic_state_round_trip(self, tmp_path):
        _, sites, _, config = hubbard_chain_model(4, u=4.0)
        rng = np.random.default_rng(5)
        psi = MPS.random(sites, total_charge=sites.total_charge(config),
                         bond_dim=8, rng=rng)
        loaded = load_mps(save_mps(tmp_path / "e.npz", psi), sites)
        assert np.allclose(loaded.to_dense_vector(), psi.to_dense_vector())


class TestCheckpointResume:
    def test_checkpoint_round_trip(self, spin_problem, tmp_path):
        sites, _, mpo, psi0, _ = spin_problem
        result, psi = run_dmrg(mpo, psi0, maxdim=32, nsweeps=4)
        path = save_checkpoint(tmp_path / "ckpt.npz", psi, completed_sweeps=4,
                               energies=result.energies,
                               metadata={"maxdim": 32})
        ckpt = load_checkpoint(path, sites)
        assert isinstance(ckpt, Checkpoint)
        assert ckpt.completed_sweeps == 4
        assert ckpt.energy == pytest.approx(result.energy)
        assert ckpt.metadata["maxdim"] == 32
        assert np.allclose(ckpt.psi.to_dense_vector(), psi.to_dense_vector())

    def test_resume_reaches_same_energy(self, spin_problem, tmp_path):
        """Interrupt after half the sweeps, resume, and match the full run."""
        sites, opsum, mpo, psi0, config = spin_problem
        exact = ground_state_energy(opsum, sites,
                                    charge=sites.total_charge(config))
        full_schedule = Sweeps.ramp(64, 8, cutoff=1e-12)

        # uninterrupted reference run
        ref_result, _ = dmrg(mpo, psi0, DMRGConfig(sweeps=full_schedule))

        # first half
        half = Sweeps(full_schedule.maxdims[:4], full_schedule.cutoffs[:4],
                      full_schedule.davidson_iterations[:4])
        res_a, psi_a = dmrg(mpo, psi0, DMRGConfig(sweeps=half))
        path = save_checkpoint(tmp_path / "half.npz", psi_a,
                               completed_sweeps=4, energies=res_a.energies)

        # resume second half from disk
        ckpt = load_checkpoint(path, sites)
        remaining = resume_sweep_schedule(full_schedule, ckpt)
        assert len(remaining) == 4
        res_b, _ = dmrg(mpo, ckpt.psi, DMRGConfig(sweeps=remaining))

        assert res_b.energy == pytest.approx(ref_result.energy, abs=1e-8)
        assert res_b.energy == pytest.approx(exact, abs=1e-7)

    def test_resume_schedule_empty_when_done(self, spin_problem, tmp_path):
        sites, _, _, psi0, _ = spin_problem
        schedule = Sweeps.fixed(16, 3)
        path = save_checkpoint(tmp_path / "done.npz", psi0, completed_sweeps=3)
        ckpt = load_checkpoint(path, sites)
        remaining = resume_sweep_schedule(schedule, ckpt)
        assert len(remaining) == 0
