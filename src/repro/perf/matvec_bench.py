"""Matvec-compile benchmark: compiled pipeline vs planned per-contraction path.

The compiled Davidson matvec (:mod:`repro.symmetry.matvec`) must beat the
PR-1 planned per-contraction path on the measured sizes while reproducing it
exactly: same energies, same plan-cache statistics, same layout-tracker
traffic.  This module measures all of that in one place; it is used by
``benchmarks/bench_matvec_compile.py`` and the CLI smoke/JSON targets
(``python -m repro bench --target matvec [--json ...]``).
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from ..backends.base import DirectBackend
from .report import format_table


def heff_setup(nsites: int, maxdim: int, *, model: str = "heisenberg",
               seed: int = 7):
    """Mid-chain effective-Hamiltonian operands at bond dimension ``maxdim``.

    Builds the named model, a random symmetric MPS canonicalized to the
    middle bond, and returns ``(left_env, w1, w2, right_env, x)`` — the four
    static operands of the two-site effective Hamiltonian plus the two-site
    tensor.  The single setup recipe shared by the matvec/micro-kernel
    benchmarks and the matvec test suite.
    """
    from ..dmrg import EnvironmentCache, two_site_tensor
    from ..models import heisenberg_chain_model, hubbard_chain_model
    from ..mps import MPS, build_mpo

    builder = {"heisenberg": heisenberg_chain_model,
               "hubbard": hubbard_chain_model}[model]
    lattice, sites, opsum, config = builder(nsites)
    mpo = build_mpo(opsum, sites)
    psi = MPS.random(sites, total_charge=sites.total_charge(config),
                     bond_dim=maxdim, rng=np.random.default_rng(seed))
    psi.canonicalize(nsites // 2)
    envs = EnvironmentCache(psi, mpo)
    j = nsites // 2
    return (envs.left(j), mpo.tensors[j], mpo.tensors[j + 1],
            envs.right(j + 1), two_site_tensor(psi, j))


def _time_applies(heff, x, repeats: int, warmup: int = 3) -> float:
    for _ in range(warmup):
        heff.apply(x)
    t0 = time.perf_counter()
    for _ in range(repeats):
        y = heff.apply(x)
    dt = (time.perf_counter() - t0) / repeats
    assert y.norm() > 0
    return dt


def run_matvec_compile_benchmark(*, nsites: int = 32, maxdim: int = 64,
                                 repeats: int = 40, model: str = "heisenberg",
                                 dmrg_nsites: int = 10, dmrg_maxdim: int = 24,
                                 dmrg_nsweeps: int = 4) -> Dict[str, float]:
    """Measure the compiled matvec against the planned per-contraction path.

    Two measurements:

    * **steady-state matvec** — repeated applications of one mid-chain
      effective Hamiltonian (the Davidson inner loop), planned-chained vs
      compiled, at the measured micro-kernel sizes;
    * **end-to-end equivalence** — a small DMRG run with the compiled path
      on and off: energies must agree to 1e-10 and the plan-cache statistics
      must be identical (the compiled path accounts its cached plans exactly
      like the chained lookups it replaces).
    """
    from ..dmrg import DMRGConfig, EffectiveHamiltonian, Sweeps, dmrg
    from ..models import heisenberg_chain_model
    from ..mps import MPS, build_mpo

    left, w1, w2, right, x = heff_setup(nsites, maxdim, model=model)
    heff_plain = EffectiveHamiltonian(left, (w1, w2), right, DirectBackend(),
                                      compile=False)
    backend = DirectBackend()
    heff_comp = EffectiveHamiltonian(left, (w1, w2), right, backend,
                                     compile=True)
    planned_seconds = _time_applies(heff_plain, x, repeats)
    compiled_seconds = _time_applies(heff_comp, x, repeats)
    delta = (heff_plain.apply(x) - heff_comp.apply(x)).norm()
    heff_comp.release()
    # the next bond's compile recycles the released panels and stacks: the
    # arena's reuse counter is the "zero large allocations" evidence
    heff_next = EffectiveHamiltonian(left, (w1, w2), right, backend,
                                     compile=True)
    heff_next.apply(x)
    heff_next.apply(x)
    heff_next.release()
    arena = backend.workspace_arena.snapshot()

    # end-to-end: compiled on/off must agree bit-for-bit in the statistics
    lattice, sites, opsum, config_state = heisenberg_chain_model(dmrg_nsites)
    mpo = build_mpo(opsum, sites, compress=True)
    psi0 = MPS.product_state(sites, config_state)
    sweeps = Sweeps.fixed(dmrg_maxdim, dmrg_nsweeps, cutoff=1e-10)
    res_off, _ = dmrg(mpo, psi0,
                      DMRGConfig(sweeps=sweeps, compile_matvec=False),
                      backend=DirectBackend(),
                      rng=np.random.default_rng(11))
    res_on, _ = dmrg(mpo, psi0, DMRGConfig(sweeps=sweeps),
                     backend=DirectBackend(),
                     rng=np.random.default_rng(11))

    return {
        "model": model, "nsites": nsites, "maxdim": maxdim,
        "repeats": repeats,
        "planned_seconds_per_matvec": planned_seconds,
        "compiled_seconds_per_matvec": compiled_seconds,
        "speedup": planned_seconds / compiled_seconds
        if compiled_seconds > 0 else float("inf"),
        "matvec_delta_norm": float(delta),
        "arena_reuses": arena["reuses"],
        "arena_allocated_bytes": arena["allocated_bytes"],
        "dmrg_energy_compiled": float(res_on.energy),
        "dmrg_energy_planned": float(res_off.energy),
        "dmrg_energy_delta": abs(float(res_on.energy) -
                                 float(res_off.energy)),
        "plan_hits_compiled": res_on.metrics["plan_cache.hits"],
        "plan_hits_planned": res_off.metrics["plan_cache.hits"],
        "plan_misses_compiled": res_on.metrics["plan_cache.misses"],
        "plan_misses_planned": res_off.metrics["plan_cache.misses"],
        "plan_stats_equal": all(
            res_on.metrics[name] == res_off.metrics[name]
            for name in ("plan_cache.hits", "plan_cache.misses")),
    }


def run_matvec_layout_check(*, nsites: int = 8, maxdim: int = 16,
                            nsweeps: int = 3) -> Dict[str, object]:
    """Layout-tracker equivalence of the compiled and chained matvec paths.

    Runs the same small DMRG on the sparse-sparse backend with the compiled
    matvec on and off; the sweep-persistent layout tracker and the modelled
    profiler must end in the identical state (the compiled path replays the
    exact charging sequence).
    """
    from ..backends import SparseSparseBackend
    from ..ctf import BLUE_WATERS, SimWorld
    from ..dmrg import DMRGConfig, Sweeps, dmrg
    from ..models import heisenberg_chain_model
    from ..mps import MPS, build_mpo

    lattice, sites, opsum, config_state = heisenberg_chain_model(nsites)
    mpo = build_mpo(opsum, sites, compress=True)
    psi0 = MPS.product_state(sites, config_state)
    sweeps = Sweeps.fixed(maxdim, nsweeps, cutoff=1e-10)

    snaps = {}
    for compile_matvec in (False, True):
        world = SimWorld(nodes=4, procs_per_node=16, machine=BLUE_WATERS)
        res, _ = dmrg(mpo, psi0,
                      DMRGConfig(sweeps=sweeps,
                                 compile_matvec=compile_matvec),
                      backend=SparseSparseBackend(world),
                      rng=np.random.default_rng(5))
        snaps[compile_matvec] = {
            "tracker": world.layout_tracker.snapshot(),
            "modelled_seconds": world.modelled_seconds(),
            "energy": float(res.energy),
            "layout_moves": res.metrics["layout.moves"],
            "layout_reuses": res.metrics["layout.reuses"],
        }
    on, off = snaps[True], snaps[False]
    return {
        "tracker_equal": on["tracker"] == off["tracker"],
        "modelled_seconds_delta": abs(on["modelled_seconds"]
                                      - off["modelled_seconds"]),
        "energy_delta": abs(on["energy"] - off["energy"]),
        "layout_moves": on["layout_moves"],
        "layout_reuses": on["layout_reuses"],
        "tracker_on": on["tracker"],
        "tracker_off": off["tracker"],
    }


def run_program_cache_benchmark(*, nsites: int = 8, maxdim: int = 16,
                                nsweeps: int = 5, repeats: int = 5,
                                warmup_sweeps: int = 3,
                                model: str = "heisenberg",
                                sim_nsites: int = 8, sim_maxdim: int = 16,
                                sim_nsweeps: int = 3) -> Dict[str, object]:
    """Measure the sweep-persistent program cache against per-visit compiles.

    Three measurements:

    * **whole-sweep comparison** — the same DMRG run with the program cache
      on and off (compiled matvec on in both): wall-clock per run, energies
      to 1e-10, identical plan-cache statistics, and the cached run's
      steady-state sweeps (index ``warmup_sweeps`` and later, once the
      truncation has settled the bond signatures) must show zero retraces
      and zero fresh arena allocations (``acquires == reuses``);
    * **refresh vs retrace** — repeated visits of one mid-chain bond,
      cached (in-place static refresh) vs uncached (full trace + lower per
      visit); the refresh path must win;
    * **modelled-cost equivalence** — a sparse-sparse SimWorld run with the
      cache on and off: layout tracker and modelled seconds bit-identical.
    """
    from ..backends import SparseSparseBackend
    from ..ctf import BLUE_WATERS, SimWorld
    from ..dmrg import DMRGConfig, EffectiveHamiltonian, Sweeps, dmrg
    from ..models import heisenberg_chain_model
    from ..mps import MPS, build_mpo
    from ..symmetry.matvec import SweepProgramCache

    # -- whole-sweep: per-visit compile vs persistent cache ----------------- #
    lattice, sites, opsum, config_state = heisenberg_chain_model(nsites)
    mpo = build_mpo(opsum, sites, compress=True)
    psi0 = MPS.product_state(sites, config_state)
    sweeps = Sweeps.fixed(maxdim, nsweeps, cutoff=1e-10)

    runs = {}
    for cached in (False, True):
        t0 = time.perf_counter()
        res, _ = dmrg(mpo, psi0,
                      DMRGConfig(sweeps=sweeps, program_cache=cached),
                      backend=DirectBackend(),
                      rng=np.random.default_rng(11))
        runs[cached] = (time.perf_counter() - t0, res)
    seconds_uncached, res_uncached = runs[False]
    seconds_cached, res_cached = runs[True]
    steady = res_cached.sweep_records[warmup_sweeps:]

    def steady_total(name: str) -> float:
        return sum(r.metrics[name] for r in steady)

    steady_acquires = steady_total("arena.acquires")
    steady_reuses = steady_total("arena.reuses")

    # -- refresh vs retrace at one bond ------------------------------------- #
    left, w1, w2, right, x = heff_setup(nsites, maxdim, model=model)

    def visit(backend, programs) -> float:
        """One bond visit: build, apply twice, release; returns seconds."""
        t0 = time.perf_counter()
        heff = EffectiveHamiltonian(left, (w1, w2), right, backend,
                                    compile=True, programs=programs)
        heff.apply(x)
        heff.apply(x)
        heff.release()
        return time.perf_counter() - t0

    cached_backend = DirectBackend()
    cache = SweepProgramCache.for_backend(cached_backend)
    visit(cached_backend, cache)                      # warm-up: compile
    arena_before = dict(cache.arena.snapshot())
    refresh_seconds = min(visit(cached_backend, cache)
                          for _ in range(repeats))
    arena_after = dict(cache.arena.snapshot())
    cache.release_all()

    retrace_backend = DirectBackend()
    visit(retrace_backend, None)                      # warm-up: pool buffers
    retrace_seconds = min(visit(retrace_backend, None)
                          for _ in range(repeats))

    # -- modelled costs bit-identical with the cache on vs off -------------- #
    sim_lat, sim_sites, sim_opsum, sim_state = heisenberg_chain_model(
        sim_nsites)
    sim_mpo = build_mpo(sim_opsum, sim_sites, compress=True)
    sim_psi0 = MPS.product_state(sim_sites, sim_state)
    sim_sweeps = Sweeps.fixed(sim_maxdim, sim_nsweeps, cutoff=1e-10)
    sim = {}
    for cached in (False, True):
        world = SimWorld(nodes=4, procs_per_node=16, machine=BLUE_WATERS)
        res, _ = dmrg(sim_mpo, sim_psi0,
                      DMRGConfig(sweeps=sim_sweeps, program_cache=cached),
                      backend=SparseSparseBackend(world),
                      rng=np.random.default_rng(5))
        sim[cached] = {"tracker": world.layout_tracker.snapshot(),
                       "modelled_seconds": world.modelled_seconds(),
                       "energy": float(res.energy)}

    return {
        "model": model, "nsites": nsites, "maxdim": maxdim,
        "nsweeps": nsweeps, "repeats": repeats,
        "warmup_sweeps": warmup_sweeps,
        "sweep_seconds_uncached": seconds_uncached,
        "sweep_seconds_cached": seconds_cached,
        "sweep_speedup": seconds_uncached / seconds_cached
        if seconds_cached > 0 else float("inf"),
        "energy_cached": float(res_cached.energy),
        "energy_uncached": float(res_uncached.energy),
        "energy_delta": abs(float(res_cached.energy)
                            - float(res_uncached.energy)),
        "plan_stats_equal": all(
            res_cached.metrics[name] == res_uncached.metrics[name]
            for name in ("plan_cache.hits", "plan_cache.misses")),
        "program_compiles": res_cached.metrics["program.compiles"],
        "program_refreshes": res_cached.metrics["program.refreshes"],
        "program_retraces": res_cached.metrics["program.retraces"],
        "refresh_hit_rate": res_cached.program_refresh_rate,
        "steady_state_retraces": steady_total("program.retraces"),
        "steady_state_compiles": steady_total("program.compiles"),
        "steady_state_arena_bytes": steady_total("arena.allocated_bytes"),
        "steady_state_acquires": steady_acquires,
        "steady_state_reuses": steady_reuses,
        "steady_state_allocations_zero": steady_acquires == steady_reuses,
        "refresh_visit_seconds": refresh_seconds,
        "retrace_visit_seconds": retrace_seconds,
        "refresh_speedup": retrace_seconds / refresh_seconds
        if refresh_seconds > 0 else float("inf"),
        "refresh_visit_arena_acquires": (arena_after["acquires"]
                                         - arena_before["acquires"]),
        "refresh_visit_allocated_bytes": (arena_after["allocated_bytes"]
                                          - arena_before["allocated_bytes"]),
        "sim_tracker_equal": sim[True]["tracker"] == sim[False]["tracker"],
        "sim_modelled_seconds_delta": abs(sim[True]["modelled_seconds"]
                                          - sim[False]["modelled_seconds"]),
        "sim_energy_delta": abs(sim[True]["energy"] - sim[False]["energy"]),
    }


def format_program_cache_benchmark(stats: Dict[str, object]) -> str:
    """Render the program-cache benchmark as a fixed-width table."""
    rows = [
        ("system", f"{stats['model']} n={stats['nsites']}, "
                   f"m={stats['maxdim']}, {stats['nsweeps']} sweeps"),
        ("sweep s (per-visit compile)",
         f"{stats['sweep_seconds_uncached']:.3e}"),
        ("sweep s (persistent cache)",
         f"{stats['sweep_seconds_cached']:.3e}"),
        ("whole-run speedup", f"{stats['sweep_speedup']:.2f}x"),
        ("|energy delta|", stats["energy_delta"]),
        ("plan stats equal", stats["plan_stats_equal"]),
        ("compiles / refreshes / retraces",
         f"{stats['program_compiles']} / {stats['program_refreshes']} / "
         f"{stats['program_retraces']}"),
        ("refresh hit rate", f"{100.0 * stats['refresh_hit_rate']:.1f}%"),
        ("steady-state retraces", stats["steady_state_retraces"]),
        ("steady-state arena bytes", stats["steady_state_arena_bytes"]),
        ("steady-state allocs zero", stats["steady_state_allocations_zero"]),
        ("refresh visit s", f"{stats['refresh_visit_seconds']:.3e}"),
        ("retrace visit s", f"{stats['retrace_visit_seconds']:.3e}"),
        ("refresh speedup", f"{stats['refresh_speedup']:.2f}x"),
        ("refresh visit arena acquires",
         stats["refresh_visit_arena_acquires"]),
        ("sim tracker equal", stats["sim_tracker_equal"]),
        ("sim modelled s delta", stats["sim_modelled_seconds_delta"]),
    ]
    return format_table(["metric", "value"], rows,
                        title="Sweep-persistent program cache vs per-visit "
                              "compile")


def format_matvec_benchmark(stats: Dict[str, float]) -> str:
    """Render the matvec-compile benchmark as a fixed-width table."""
    rows = [
        ("system", f"{stats['model']} n={stats['nsites']}, "
                   f"m={stats['maxdim']}"),
        ("planned matvec s", f"{stats['planned_seconds_per_matvec']:.3e}"),
        ("compiled matvec s", f"{stats['compiled_seconds_per_matvec']:.3e}"),
        ("speedup", f"{stats['speedup']:.2f}x"),
        ("|matvec delta|", stats["matvec_delta_norm"]),
        ("arena buffer reuses", stats["arena_reuses"]),
        ("arena allocated", f"{stats['arena_allocated_bytes'] / 1e6:.2f} MB"),
        ("DMRG energy compiled", f"{stats['dmrg_energy_compiled']:+.12f}"),
        ("DMRG energy planned", f"{stats['dmrg_energy_planned']:+.12f}"),
        ("|energy delta|", stats["dmrg_energy_delta"]),
        ("plan stats equal", stats["plan_stats_equal"]),
    ]
    return format_table(["metric", "value"], rows,
                        title="Compiled matvec vs planned per-contraction "
                              "path")
