"""Machine-readable micro-kernel timings (measured, not modelled).

Times the real NumPy execution of the building blocks every algorithm shares
— block-pair contraction, the Davidson matvec (naive / planned), the
truncated block SVD and environment extension — and returns plain dicts
suitable for the ``python -m repro bench --json`` artifact.  The
pytest-benchmark suite (``benchmarks/bench_micro_kernels.py``) remains the
interactive harness; this module is its scriptable twin so the perf
trajectory can be tracked from CI output.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

import numpy as np

from .report import format_table


def _best_of(fn: Callable, repeats: int, warmup: int = 2) -> float:
    """Best wall-clock seconds of ``repeats`` timed calls (after warmup)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


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


def run_micro_kernels(*, smoke: bool = True, repeats: int | None = None
                      ) -> Dict[str, float]:
    """Time the shared computational kernels at smoke or measured sizes.

    Returns a flat dict of kernel name -> best seconds, plus the sizes used,
    so consecutive bench runs can be diffed mechanically.
    """
    from ..backends import DirectBackend
    from ..dmrg import EffectiveHamiltonian, davidson, extend_left
    from ..symmetry import BlockSparseTensor, Index, svd

    nsites, maxdim = (12, 16) if smoke else (32, 64)
    repeats = repeats if repeats is not None else (3 if smoke else 10)
    rng = np.random.default_rng(0)

    # block-pair contraction on a many-sector pair
    nq = 3 if smoke else 6
    charges = [(q,) for q in range(-nq, nq + 1)]
    width = 4 if smoke else 16
    left_ix = Index(charges, [width] * len(charges), flow=1)
    right_ix = Index(charges, [width] * len(charges), flow=-1)
    phys = Index([(1,), (-1,)], [1, 1], flow=1)
    a = BlockSparseTensor.random([left_ix, phys, right_ix], flux=(0,), rng=rng)
    b = BlockSparseTensor.random([right_ix.dual(), phys.dual(),
                                  left_ix.dual()], flux=(0,), rng=rng)
    contraction_s = _best_of(
        lambda: a.contract(b, axes=([2, 1], [0, 1])), repeats)

    # effective-Hamiltonian matvec: naive loop / planned
    left, w1, w2, right, x = heff_setup(nsites, maxdim)
    ops = (left, (w1, w2), right)
    heff_naive = EffectiveHamiltonian(*ops,
                                      DirectBackend(use_planner=False))
    heff_planned = EffectiveHamiltonian(*ops, DirectBackend())
    matvec_naive_s = _best_of(lambda: heff_naive.apply(x), repeats)
    matvec_planned_s = _best_of(lambda: heff_planned.apply(x), repeats)
    davidson_s = _best_of(
        lambda: davidson(heff_planned, x, max_iterations=2), repeats)

    svd_s = _best_of(lambda: svd(x, row_axes=[0, 1], col_axes=[2, 3],
                                 max_dim=maxdim // 2, cutoff=1e-10,
                                 absorb="right"), repeats)
    # environment extension: absorb the two-site tensor's left split (a
    # proper canonical site tensor) into the left environment
    site_a, _, _, _ = svd(x, row_axes=[0, 1], col_axes=[2, 3],
                          max_dim=maxdim, cutoff=1e-10, absorb="right")
    env_backend = DirectBackend()
    extend_s = _best_of(lambda: extend_left(left, site_a, w1,
                                            env_backend), repeats)

    return {
        "nsites": nsites, "maxdim": maxdim, "repeats": repeats,
        "smoke": bool(smoke),
        "block_contraction_seconds": contraction_s,
        "matvec_naive_seconds": matvec_naive_s,
        "matvec_planned_seconds": matvec_planned_s,
        "davidson_solve_seconds": davidson_s,
        "truncated_svd_seconds": svd_s,
        "environment_extension_seconds": extend_s,
    }


def format_micro_kernels(stats: Dict[str, float]) -> str:
    """Render the micro-kernel timings as a fixed-width table."""
    rows = [
        ("sizes", f"n={stats['nsites']}, m={stats['maxdim']}, "
                  f"best of {stats['repeats']}"),
        ("block contraction s", f"{stats['block_contraction_seconds']:.3e}"),
        ("matvec naive s", f"{stats['matvec_naive_seconds']:.3e}"),
        ("matvec planned s", f"{stats['matvec_planned_seconds']:.3e}"),
        ("davidson solve s", f"{stats['davidson_solve_seconds']:.3e}"),
        ("truncated SVD s", f"{stats['truncated_svd_seconds']:.3e}"),
        ("env extension s",
         f"{stats['environment_extension_seconds']:.3e}"),
    ]
    return format_table(["kernel", "value"], rows,
                        title="Micro-kernel timings (measured)")
