"""Sweep-persistent matvec program cache: refresh and invalidate.

The cache (:class:`repro.symmetry.matvec.SweepProgramCache`) keeps every
bond's compiled program alive across sweep re-visits and refreshes the
static operands in place when the :func:`stage_signature` is unchanged.
These tests pin the invalidation contract — bond-dimension growth, a
mixed-precision dtype promotion and structure-changing environment
rewrites must each retrace (never serve a stale refresh) — plus the
steady-state guarantee (sweeps after warm-up are refresh-only with zero
fresh arena allocations) and the bit-identical cost accounting with the
cache on or off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.base import DirectBackend
from repro.dmrg import DMRGConfig, EffectiveHamiltonian, Sweeps, dmrg
from repro.models import heisenberg_chain_model
from repro.mps import MPS, build_mpo
from repro.perf.matvec_bench import heff_setup
from repro.symmetry.matvec import SweepProgramCache, stage_signature


def _dmrg_problem(nsites: int = 8):
    """A small Heisenberg chain: (mpo, product-state psi0)."""
    _, sites, opsum, state = heisenberg_chain_model(nsites)
    mpo = build_mpo(opsum, sites, compress=True)
    return mpo, MPS.product_state(sites, state)


def _run(mpo, psi0, *, sweeps, rng_seed: int = 11, **config_kwargs):
    """One deterministic DMRG run; returns the result record."""
    res, _ = dmrg(mpo, psi0, DMRGConfig(sweeps=sweeps, **config_kwargs),
                  backend=DirectBackend(),
                  rng=np.random.default_rng(rng_seed))
    return res


class TestRefreshCorrectness:
    """Re-visits refresh in place and compute with the *new* operands."""

    def test_revisit_is_refresh_not_retrace(self):
        left, w1, w2, right, x = heff_setup(8, 12)
        backend = DirectBackend()
        cache = SweepProgramCache.for_backend(backend)
        for _ in range(3):
            heff = EffectiveHamiltonian(left, (w1, w2), right, backend,
                                        compile=True, programs=cache)
            heff.apply(x)
            heff.apply(x)
            heff.release()
        assert cache.compiles >= 1
        assert cache.refreshes >= 2 * cache.compiles
        assert cache.retraces == 0

    def test_refresh_uses_new_environment_values(self):
        # an environment rewrite that keeps the block structure must be
        # served by a refresh whose GEMMs see the *new* matrices
        left, w1, w2, right, x = heff_setup(8, 12)
        backend = DirectBackend()
        cache = SweepProgramCache.for_backend(backend)
        heff = EffectiveHamiltonian(left, (w1, w2), right, backend,
                                    compile=True, programs=cache)
        y_old = heff.apply(x)
        heff.release()

        new_left = left * 1.7
        revisit = EffectiveHamiltonian(new_left, (w1, w2), right, backend,
                                       compile=True, programs=cache)
        revisit.apply(x)             # traced visit is itself exact
        y_new = revisit.apply(x)     # compiled through the refreshed panels
        revisit.release()
        assert cache.refreshes > 0 and cache.retraces == 0

        reference = EffectiveHamiltonian(new_left, (w1, w2), right,
                                         DirectBackend(), compile=False)
        y_ref = reference.apply(x)
        assert (y_new - y_ref).norm() < 1e-10 * max(y_ref.norm(), 1.0)
        assert (y_new - y_old).norm() > 1e-3 * y_old.norm()

    def test_structure_change_triggers_retrace(self):
        # the same bond re-visited with different block structure (a grown
        # bond dimension) must release the stale programs and recompile
        small = heff_setup(8, 8)
        grown = heff_setup(8, 16)
        backend = DirectBackend()
        cache = SweepProgramCache.for_backend(backend)
        for (left, w1, w2, right, x) in (small, grown):
            heff = EffectiveHamiltonian(left, (w1, w2), right, backend,
                                        compile=True, programs=cache)
            heff.apply(x)
            heff.apply(x)
            heff.release()
        assert cache.retraces > 0
        assert cache.refreshes == 0

    def test_signature_tracks_dtype(self):
        # the cache key must distinguish float32 from float64 operands so
        # the mixed-precision promotion cannot serve a stale program
        from repro.symmetry.blockops import (MixedPrecisionOps,
                                             resolve_block_ops)

        left, w1, w2, right, x = heff_setup(8, 8)
        heff = EffectiveHamiltonian(left, (w1, w2), right, DirectBackend())
        stages = heff.stages()
        base = resolve_block_ops(None)
        full = stage_signature(stages, base)
        mixed = stage_signature(stages, MixedPrecisionOps(base, np.float32))
        assert full != mixed


class TestInvalidation:
    """End-to-end: every invalidation source recompiles, energies agree."""

    def test_growing_maxdim_retraces_and_matches_uncompiled(self):
        mpo, psi0 = _dmrg_problem()
        sweeps = Sweeps.ramp(32, 6, cutoff=1e-10)
        res_cached = _run(mpo, psi0, sweeps=sweeps)
        res_plain = _run(mpo, psi0, sweeps=sweeps, compile_matvec=False)
        # the ramp grows bond signatures between sweeps: stale programs
        # must be invalidated (retraced), not refreshed
        assert res_cached.metrics["program.retraces"] > 0
        assert abs(res_cached.energy - res_plain.energy) < 1e-10

    def test_precision_promotion_retraces_and_matches_uncompiled(self):
        mpo, psi0 = _dmrg_problem()
        sweeps = Sweeps.fixed(16, 5, cutoff=1e-10)
        kwargs = dict(warmup_dtype="float32", warmup_sweeps=2)
        res_cached = _run(mpo, psi0, sweeps=sweeps, **kwargs)
        res_plain = _run(mpo, psi0, sweeps=sweeps, compile_matvec=False,
                         **kwargs)
        assert abs(res_cached.energy - res_plain.energy) < 1e-10
        # the float32 -> float64 switch lands at the start of sweep 2:
        # every cached warm-up program is stale there
        promotion = res_cached.sweep_records[2]
        assert promotion.metrics["program.retraces"] > 0

    def test_kill_switches(self):
        mpo, psi0 = _dmrg_problem()
        sweeps = Sweeps.fixed(16, 4, cutoff=1e-10)
        res = _run(mpo, psi0, sweeps=sweeps, program_cache=False)
        assert res.metrics["program.compiles"] == 0
        assert res.metrics["program.refreshes"] == 0
        res = _run(mpo, psi0, sweeps=sweeps, compile_matvec=False)
        assert res.metrics["program.compiles"] == 0
        assert res.metrics["program.refreshes"] == 0


class TestSteadyState:
    """After warm-up, sweeps are refresh-only and allocation-free."""

    def test_steady_sweeps_zero_retraces_zero_allocations(self):
        mpo, psi0 = _dmrg_problem()
        res = _run(mpo, psi0, sweeps=Sweeps.fixed(16, 5, cutoff=1e-10))
        steady = res.sweep_records[3:]
        assert steady, "smoke run too short to reach steady state"
        for rec in steady:
            assert rec.metrics["program.retraces"] == 0
            assert rec.metrics["program.compiles"] == 0
            assert rec.metrics["program.refreshes"] > 0
            assert rec.metrics["arena.allocated_bytes"] == 0
            assert rec.metrics["arena.acquires"] == 0
            assert rec.metrics["arena.reuses"] == 0
            assert rec.program_refresh_rate == 1.0

    def test_stats_bit_identical_cache_on_off(self):
        mpo, psi0 = _dmrg_problem()
        sweeps = Sweeps.fixed(16, 4, cutoff=1e-10)
        res_on = _run(mpo, psi0, sweeps=sweeps)
        res_off = _run(mpo, psi0, sweeps=sweeps, program_cache=False)
        # energies agree to 1e-10 (a re-visit's first apply runs compiled
        # instead of chained, so the arithmetic differs at machine epsilon)
        # while every cost-model statistic is bit-identical
        assert len(res_on.energies) == len(res_off.energies)
        for e_on, e_off in zip(res_on.energies, res_off.energies):
            assert abs(e_on - e_off) < 1e-10
        for name in ("plan_cache.hits", "plan_cache.misses", "layout.moves",
                     "layout.reuses"):
            assert res_on.metrics[name] == res_off.metrics[name]


class TestResultRecords:
    """The new statistics surface in SweepRecord, DMRGResult and reports."""

    def test_sweep_records_and_result_totals_agree(self):
        mpo, psi0 = _dmrg_problem()
        res = _run(mpo, psi0, sweeps=Sweeps.fixed(16, 4, cutoff=1e-10))
        for name in ("program.compiles", "program.refreshes",
                     "program.retraces"):
            assert res.metrics[name] == sum(r.metrics[name]
                                            for r in res.sweep_records)
        assert res.metrics["program.refreshes"] > 0
        assert 0.0 < res.program_refresh_rate < 1.0

    def test_format_sweep_records_shows_program_columns(self):
        from repro.perf.report import format_sweep_records

        mpo, psi0 = _dmrg_problem()
        res = _run(mpo, psi0, sweeps=Sweeps.fixed(16, 4, cutoff=1e-10))
        table = format_sweep_records(res.sweep_records)
        for col in ("compiles", "refreshes", "retraces", "refresh rate",
                    "arena bytes"):
            assert col in table
