"""Shared setup for the Davidson-matvec measurements.

:func:`heff_setup` builds the mid-chain effective-Hamiltonian operands (used
by the matvec tests, the tracer overhead gate in :mod:`repro.perf.obs_bench`
and ``benchmarks/bench_micro_kernels.py``); :func:`_time_applies` times
repeated applications for the overhead gate.
"""

from __future__ import annotations

import time

import numpy as np


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
