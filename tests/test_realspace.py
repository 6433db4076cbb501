"""Tests for the real-space block-parallel DMRG baseline."""

import pytest

from repro.baseline import (RealSpaceParallelDMRG, RealSpaceResult,
                            partition_sites)
from repro.dmrg import run_dmrg
from repro.ed import ground_state_energy
from repro.models import heisenberg_chain_model
from repro.mps import MPS, build_mpo


@pytest.fixture(scope="module")
def heisenberg10():
    _, sites, opsum, config = heisenberg_chain_model(10)
    mpo = build_mpo(opsum, sites)
    psi0 = MPS.product_state(sites, config)
    exact = ground_state_energy(opsum, sites,
                                charge=sites.total_charge(config))
    return sites, opsum, mpo, psi0, exact


class TestPartition:
    def test_covers_all_sites(self):
        ranges = partition_sites(20, 4)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 19
        covered = set()
        for lo, hi in ranges:
            covered.update(range(lo, hi + 1))
        assert covered == set(range(20))

    def test_each_block_has_two_sites(self):
        for nworkers in (1, 2, 3, 5):
            for offset in (0, 1, 2):
                for lo, hi in partition_sites(20, nworkers, offset=offset):
                    assert hi - lo >= 1

    def test_offset_moves_boundaries(self):
        r0 = partition_sites(20, 4, offset=0)
        r1 = partition_sites(20, 4, offset=2)
        assert r0 != r1

    def test_too_many_workers_rejected(self):
        with pytest.raises(ValueError):
            partition_sites(6, 4)
        with pytest.raises(ValueError):
            partition_sites(6, 0)


class TestRealSpaceDMRG:
    def test_single_worker_matches_standard_dmrg(self, heisenberg10):
        _, _, mpo, psi0, exact = heisenberg10
        result, _ = RealSpaceParallelDMRG(mpo, psi0, 1).run(
            maxdim=64, iterations=4)
        assert result.energy == pytest.approx(exact, abs=1e-6)

    def test_two_workers_with_shifting_converge(self, heisenberg10):
        _, _, mpo, psi0, exact = heisenberg10
        result, psi = RealSpaceParallelDMRG(mpo, psi0, 2).run(
            maxdim=64, iterations=8, shift_boundaries=True)
        assert result.energy == pytest.approx(exact, abs=1e-4)
        assert psi.max_bond_dimension() <= 64
        assert len(result.energies) == 8

    def test_boundary_shifting_not_worse(self, heisenberg10):
        _, _, mpo, psi0, _ = heisenberg10
        res_shift, _ = RealSpaceParallelDMRG(mpo, psi0, 2).run(
            maxdim=48, iterations=6, shift_boundaries=True)
        res_fixed, _ = RealSpaceParallelDMRG(mpo, psi0, 2).run(
            maxdim=48, iterations=6, shift_boundaries=False)
        assert res_shift.energy <= res_fixed.energy + 1e-8

    def test_blocked_sweeps_less_accurate_per_iteration(self, heisenberg10):
        """At matched sweep counts the blocked algorithm trails full DMRG."""
        _, _, mpo, psi0, exact = heisenberg10
        full_result, _ = run_dmrg(mpo, psi0, maxdim=48, nsweeps=4)
        blocked, _ = RealSpaceParallelDMRG(mpo, psi0, 3).run(
            maxdim=48, iterations=2, shift_boundaries=False, warmup_sweeps=1)
        assert full_result.energy <= blocked.energy + 1e-8
        assert full_result.energy == pytest.approx(exact, abs=1e-5)

    def test_worker_energy_records(self, heisenberg10):
        _, _, mpo, psi0, _ = heisenberg10
        result, _ = RealSpaceParallelDMRG(mpo, psi0, 2).run(
            maxdim=32, iterations=3)
        assert isinstance(result, RealSpaceResult)
        for record in result.records:
            assert len(record.worker_energies) == 2
            assert record.max_bond_dimension >= 1
        assert result.is_monotonic(tol=1e-2) in (True, False)  # well-defined

    def test_invalid_inputs(self, heisenberg10):
        _, _, mpo, psi0, _ = heisenberg10
        with pytest.raises(ValueError):
            RealSpaceParallelDMRG(mpo, psi0, 0)
        _, small_sites, small_os, small_cfg = heisenberg_chain_model(4)
        small_psi = MPS.product_state(small_sites, small_cfg)
        with pytest.raises(ValueError):
            RealSpaceParallelDMRG(mpo, small_psi, 1)
