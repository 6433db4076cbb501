"""Block-ops benchmark: threaded vs numpy kernels, mixed-precision warm-up.

The pluggable block-operations layer (:mod:`repro.symmetry.blockops`) must be
a pure *execution* seam: swapping the numpy kernels for the threaded pool (or
wrapping them in the float32 warm-up) changes wall-clock only — energies match
to machine precision and every modelled quantity (profiler seconds, plan
statistics, layout-tracker state) is bit-identical, because cost accounting
lives in the planner/backend layer, never inside the kernels.  This module
measures all of that in one place; it is used by
``benchmarks/bench_blockops.py`` and the CLI smoke/JSON targets
(``python -m repro bench --target blockops [--json ...]``).

The threaded speedup is hardware-dependent: on a single-core container the
pool degenerates to serial execution (plus scheduling overhead), so the
``>= 1.3x`` acceptance bar is only asserted when ``multicore`` is true.  The
artifact always records ``cores`` so a recorded speedup can be interpreted.
"""

from __future__ import annotations

import os
import time
from typing import Dict

import numpy as np

from ..backends.base import DirectBackend
from .microbench import _time_applies, heff_setup
from .report import format_table


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def run_blockops_benchmark(*, nsites: int = 24, maxdim: int = 48,
                           repeats: int = 20, model: str = "heisenberg",
                           dmrg_nsites: int = 8, dmrg_maxdim: int = 16,
                           dmrg_nsweeps: int = 4) -> Dict[str, object]:
    """Measure the threaded kernels against the numpy baseline.

    Three measurements:

    * **steady-state matvec** — repeated applications of one mid-chain
      effective Hamiltonian with numpy vs threaded kernels; the
      threaded result must be bit-identical (each GEMM group is computed
      whole by one thread into a disjoint output region);
    * **modelled-cost invariance** — the same small DMRG on the list backend
      over a simulated machine with both kernel sets: final energies equal,
      profiler seconds and layout-tracker snapshots *bit-identical*;
    * **mixed-precision warm-up** — a float32 warm-up / float64 polish run
      vs the pure float64 run: final energies agree to 1e-8.
    """
    from ..backends import ListBackend
    from ..ctf import BLUE_WATERS, SimWorld
    from ..dmrg import DMRGConfig, EffectiveHamiltonian, Sweeps, dmrg
    from ..models import heisenberg_chain_model
    from ..mps import MPS, build_mpo

    cores = _available_cores()
    left, w1, w2, right, x = heff_setup(nsites, maxdim, model=model)
    results: Dict[str, object] = {
        "model": model, "nsites": nsites, "maxdim": maxdim,
        "repeats": repeats, "cores": cores, "multicore": cores >= 2,
    }

    seconds = {}
    applies = {}
    for name in ("numpy", "threaded"):
        backend = DirectBackend(block_ops=name)
        heff = EffectiveHamiltonian(left, (w1, w2), right, backend)
        seconds[name] = _time_applies(heff, x, repeats)
        applies[name] = heff.apply(x)
        results[f"ops_{name}"] = backend.block_ops.describe()
    results["numpy_seconds_per_matvec"] = seconds["numpy"]
    results["threaded_seconds_per_matvec"] = seconds["threaded"]
    results["speedup"] = (seconds["numpy"] / seconds["threaded"]
                          if seconds["threaded"] > 0 else float("inf"))
    results["matvec_delta_norm"] = float(
        (applies["numpy"] - applies["threaded"]).norm())

    # modelled-cost invariance on a simulated machine
    lattice, sites, opsum, config_state = heisenberg_chain_model(dmrg_nsites)
    mpo = build_mpo(opsum, sites, compress=True)
    psi0 = MPS.product_state(sites, config_state)
    sweeps = Sweeps.fixed(dmrg_maxdim, dmrg_nsweeps, cutoff=1e-10)
    modelled = {}
    for name in ("numpy", "threaded"):
        world = SimWorld(nodes=4, procs_per_node=16, machine=BLUE_WATERS)
        res, _ = dmrg(mpo, psi0, DMRGConfig(sweeps=sweeps),
                      backend=ListBackend(world, block_ops=name),
                      rng=np.random.default_rng(3))
        modelled[name] = {
            "energy": float(res.energy),
            "modelled_seconds": world.modelled_seconds(),
            "tracker": world.layout_tracker.snapshot(),
            "plan_hits": res.metrics["plan_cache.hits"],
            "plan_misses": res.metrics["plan_cache.misses"],
        }
    num, thr = modelled["numpy"], modelled["threaded"]
    results["dmrg_energy_numpy"] = num["energy"]
    results["dmrg_energy_threaded"] = thr["energy"]
    results["dmrg_energy_delta"] = abs(num["energy"] - thr["energy"])
    results["modelled_seconds"] = num["modelled_seconds"]
    results["modelled_seconds_equal"] = (num["modelled_seconds"]
                                         == thr["modelled_seconds"])
    results["layout_tracker_equal"] = num["tracker"] == thr["tracker"]
    results["plan_stats_equal"] = (num["plan_hits"] == thr["plan_hits"]
                                   and num["plan_misses"]
                                   == thr["plan_misses"])

    # mixed-precision warm-up vs the pure float64 run
    res_f64, _ = dmrg(mpo, psi0, DMRGConfig(sweeps=sweeps),
                      backend=DirectBackend(),
                      rng=np.random.default_rng(3))
    res_mix, psi_mix = dmrg(
        mpo, psi0,
        DMRGConfig(sweeps=sweeps, warmup_dtype="float32",
                   warmup_sweeps=dmrg_nsweeps // 2),
        backend=DirectBackend(), rng=np.random.default_rng(3))
    results["dmrg_energy_f64"] = float(res_f64.energy)
    results["dmrg_energy_mixed"] = float(res_mix.energy)
    results["mixed_energy_delta"] = abs(float(res_f64.energy)
                                        - float(res_mix.energy))
    results["mixed_final_dtype"] = str(
        np.result_type(*(t.dtype for t in psi_mix.tensors)))
    return results


def format_blockops_benchmark(stats: Dict[str, object]) -> str:
    """Render the block-ops benchmark as a fixed-width table."""
    rows = [
        ("system", f"{stats['model']} n={stats['nsites']}, "
                   f"m={stats['maxdim']}"),
        ("cores", f"{stats['cores']}"
                  + ("" if stats["multicore"] else " (single-core: threaded "
                                                   "speedup not expected)")),
        ("numpy matvec s", f"{stats['numpy_seconds_per_matvec']:.3e}"),
        ("threaded matvec s", f"{stats['threaded_seconds_per_matvec']:.3e}"),
        ("speedup", f"{stats['speedup']:.2f}x"),
        ("|matvec delta|", stats["matvec_delta_norm"]),
        ("DMRG energy numpy", f"{stats['dmrg_energy_numpy']:+.12f}"),
        ("DMRG energy threaded", f"{stats['dmrg_energy_threaded']:+.12f}"),
        ("|energy delta|", stats["dmrg_energy_delta"]),
        ("modelled s equal", stats["modelled_seconds_equal"]),
        ("layout tracker equal", stats["layout_tracker_equal"]),
        ("plan stats equal", stats["plan_stats_equal"]),
        ("DMRG energy float64", f"{stats['dmrg_energy_f64']:+.12f}"),
        ("DMRG energy mixed", f"{stats['dmrg_energy_mixed']:+.12f}"),
        ("|mixed delta|", stats["mixed_energy_delta"]),
        ("mixed final dtype", stats["mixed_final_dtype"]),
    ]
    return format_table(["metric", "value"], rows,
                        title="Block-ops kernels: threaded vs numpy, "
                              "mixed precision")
