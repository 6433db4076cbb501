"""Tests for MPS serialization and DMRG checkpointing."""

import json

import numpy as np
import pytest

from repro.dmrg import (Checkpoint, DMRGConfig, Sweeps, dmrg, load_checkpoint,
                        load_mps, resume_sweep_schedule, run_dmrg,
                        save_checkpoint, save_mps)
from repro.dmrg.checkpoint import tensor_from_arrays, tensor_to_arrays
from repro.ed import ground_state_energy
from repro.exp import RunInterrupted, RunSpec, execute_run
from repro.models import heisenberg_chain_model, hubbard_chain_model
from repro.mps import MPS, build_mpo, overlap
from repro.symmetry import BlockSparseTensor


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


def _per_block_archive(path, psi, kind, **fields):
    """Write ``psi`` in the earlier layout: two members per block, no stamp."""
    arrays = {"kind": np.asarray(kind),
              "nsites": np.asarray(len(psi), dtype=np.int64),
              "center": np.asarray(-1 if psi.center is None else psi.center,
                                   dtype=np.int64)}
    arrays.update(fields)
    for j, t in enumerate(psi.tensors):
        p = f"t{j}"
        arrays[f"{p}.ndim"] = np.asarray(t.ndim, dtype=np.int64)
        arrays[f"{p}.flux"] = np.asarray(t.flux, dtype=np.int64)
        arrays[f"{p}.nblocks"] = np.asarray(t.num_blocks, dtype=np.int64)
        for k, ix in enumerate(t.indices):
            arrays[f"{p}.ix{k}.sectors"] = np.asarray(ix.sectors,
                                                      dtype=np.int64)
            arrays[f"{p}.ix{k}.dims"] = np.asarray(ix.dims, dtype=np.int64)
            arrays[f"{p}.ix{k}.flow"] = np.asarray(ix.flow, dtype=np.int64)
            arrays[f"{p}.ix{k}.tag"] = np.asarray(ix.tag)
        for b, (key, blk) in enumerate(sorted(t.blocks.items())):
            arrays[f"{p}.b{b}.key"] = np.asarray(key, dtype=np.int64)
            arrays[f"{p}.b{b}.data"] = blk
    np.savez_compressed(path, **arrays)
    return path


def _assert_bit_identical(a: MPS, b: MPS) -> None:
    assert a.center == b.center
    for ta, tb in zip(a.tensors, b.tensors):
        assert ta.flux == tb.flux
        assert tb.dtype == ta.dtype
        for ia, ib in zip(ta.indices, tb.indices):
            assert (ia.sectors, ia.dims, ia.flow, ia.tag) == \
                (ib.sectors, ib.dims, ib.flow, ib.tag)
        assert set(ta.blocks) == set(tb.blocks)
        for key, blk in ta.blocks.items():
            got = tb.blocks[key]
            assert got.dtype == blk.dtype
            assert got.flags.c_contiguous
            assert np.array_equal(got, blk)


class TestFlatFormat:
    """Each tensor is a fixed set of arrays: tables, keys, one data array."""

    def test_member_count_independent_of_bond_dimension(self, spin_problem,
                                                         tmp_path):
        # MPS.random keeps every sector at any bond dimension, so the states
        # are DMRG-truncated from one: maxdim 4 drops sectors (fewer blocks)
        sites, _, mpo, _, config = spin_problem
        start = MPS.random(sites, total_charge=sites.total_charge(config),
                           bond_dim=8, rng=np.random.default_rng(1))
        counts, nblocks = [], []
        for chi in (4, 32):
            _, psi = run_dmrg(mpo, start, maxdim=chi, nsweeps=2)
            path = save_mps(tmp_path / f"m{chi}.npz", psi)
            with np.load(path) as data:
                counts.append(len(data.files))
            nblocks.append(sum(t.num_blocks for t in psi.tensors))
        assert nblocks[0] < nblocks[1]
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("case", ["real", "complex128", "fermionic"])
    def test_round_trip_is_bit_identical(self, case, tmp_path):
        if case == "fermionic":
            _, sites, _, config = hubbard_chain_model(4, u=4.0)
        else:
            _, sites, _, config = heisenberg_chain_model(8)
        dtype = np.complex128 if case == "complex128" else np.float64
        psi = MPS.random(sites, total_charge=sites.total_charge(config),
                         bond_dim=12, rng=np.random.default_rng(3),
                         dtype=dtype)
        assert all(t.dtype == dtype for t in psi.tensors)
        _assert_bit_identical(psi, load_mps(save_mps(tmp_path / "s.npz", psi),
                                            sites))
        ckpt = load_checkpoint(save_checkpoint(tmp_path / "c.npz", psi,
                                               completed_sweeps=1), sites)
        _assert_bit_identical(psi, ckpt.psi)

    def test_zero_block_tensor_round_trip(self, spin_problem):
        t = spin_problem[3].tensors[1]
        empty = BlockSparseTensor(t.indices, {}, flux=t.flux,
                                  dtype=np.complex128)
        back = tensor_from_arrays("z", tensor_to_arrays(empty, "z"))
        assert back.num_blocks == 0
        assert back.dtype == np.complex128
        assert back.flux == t.flux
        assert [ix.sectors for ix in back.indices] == \
            [ix.sectors for ix in t.indices]


class TestTamperedArchives:
    def test_per_block_archive_rejected(self, spin_problem, tmp_path):
        sites, _, _, psi0, _ = spin_problem
        old_mps = _per_block_archive(tmp_path / "m.npz", psi0, "mps",
                                     extra=np.asarray("{}"))
        with pytest.raises(ValueError, match="format"):
            load_mps(old_mps, sites)
        old_ckpt = _per_block_archive(
            tmp_path / "c.npz", psi0, "checkpoint",
            completed_sweeps=np.asarray(1, dtype=np.int64),
            energies=np.asarray([-1.0]), metadata=np.asarray("{}"))
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(old_ckpt, sites)

    def _tampered(self, src, dst, edit):
        with np.load(src) as data:
            arrays = dict(data)
        edit(arrays)
        np.savez(dst, **arrays)
        return dst

    def test_short_data_rejected(self, spin_problem, tmp_path):
        sites, _, _, _, config = spin_problem
        psi = MPS.random(sites, total_charge=sites.total_charge(config),
                         bond_dim=8, rng=np.random.default_rng(1))
        good = save_checkpoint(tmp_path / "c.npz", psi, completed_sweeps=1)

        def drop_last(arrays):
            arrays["t2.data"] = arrays["t2.data"][:-1]
        bad = self._tampered(good, tmp_path / "short.npz", drop_last)
        with pytest.raises(ValueError, match="t2"):
            load_checkpoint(bad, sites)

    def test_key_outside_sectors_rejected(self, spin_problem, tmp_path):
        sites, _, _, _, config = spin_problem
        psi = MPS.random(sites, total_charge=sites.total_charge(config),
                         bond_dim=8, rng=np.random.default_rng(1))
        good = save_mps(tmp_path / "m.npz", psi)

        def bad_key(arrays):
            arrays["t3.keys"][0, 1] = arrays["t3.modes"][1, 1]
        bad = self._tampered(good, tmp_path / "key.npz", bad_key)
        with pytest.raises(ValueError, match="t3"):
            load_mps(bad, sites)

    def test_resume_discards_per_block_checkpoint(self, tmp_path):
        spec = RunSpec.from_dict({"model": "heisenberg-chain",
                                  "params": {"n": 6}, "maxdim": 12,
                                  "nsweeps": 3, "seed": 1})
        reference = execute_run(spec)
        ckpt = tmp_path / "ck.npz"
        with pytest.raises(RunInterrupted):
            execute_run(spec, checkpoint_path=ckpt, interrupt_after_sweeps=1)
        done = load_checkpoint(ckpt, reference.psi.sites)
        _per_block_archive(
            ckpt, done.psi, "checkpoint",
            completed_sweeps=np.asarray(done.completed_sweeps, dtype=np.int64),
            energies=np.asarray(done.energies, dtype=np.float64),
            metadata=np.asarray(json.dumps(done.metadata)))
        out = execute_run(spec, checkpoint_path=ckpt, resume=True)
        assert out.resumed_sweeps == 0
        assert out.energies[0] == pytest.approx(reference.energies[0],
                                                abs=1e-12)
