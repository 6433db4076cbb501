"""The DMRG sweep engine and the two-site driver.

Implements the algorithm of Section II-C / Fig. 1: for every pair of adjacent
sites the two site tensors are contracted, optimized with the Davidson routine
applied through the left/right environments and the two MPO tensors, split
back with a truncated block SVD (singular values absorbed in the sweep
direction), and the environments are extended to the next center.

:func:`run_sweeps` is the one sweep loop; what the two-site, single-site and
excited-state drivers do differently at a bond is a :class:`TwoSiteUpdate`
(or subclass) handed to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..backends.base import ContractionBackend, DirectBackend
from ..ctf.layout import davidson_key, heff_operand_keys, site_key
from ..mps.mpo import MPO
from ..mps.mps import MPS
from ..obs import trace
from ..perf import flops as flopcount
from ..symmetry import BlockSparseTensor
from ..symmetry.linalg import TruncationInfo
from ..symmetry.matvec import MatvecCompiler, MatvecStage
from .config import (DMRGConfig, DMRGResult, SiteRecord, StatsRecorder,
                     Sweeps, SweepRecord)
from .davidson import DavidsonResult, davidson
from .environments import CenterCache, EnvironmentCache


@dataclass
class EffectiveHamiltonian:
    """The projected Hamiltonian of ``len(ws)`` sites, applied implicitly (Fig. 1d).

    ``ws`` are the MPO tensors of the optimized sites — two for the standard
    update, one for the single-site variant — and the matvec chain is
    ``left_env``, each of ``ws`` in turn, then ``right_env``.  ``site`` (the
    leftmost optimized site) names the environments, MPO tensors,
    wavefunction and intermediates for the sweep-persistent layout tracker
    (:mod:`repro.ctf.layout`): repeated Davidson matvecs reuse the operands'
    distributed layouts, so only the first application — or a genuine mapping
    change — charges a redistribution.
    """

    left_env: BlockSparseTensor
    ws: Sequence[BlockSparseTensor]
    right_env: BlockSparseTensor
    backend: ContractionBackend
    site: Optional[int] = None
    _chain: MatvecCompiler = field(init=False, repr=False)

    def __post_init__(self):
        self._chain = MatvecCompiler(self.backend, self.stages())

    def stages(self) -> list[MatvecStage]:
        """The chain's stage descriptions (operands, axes, layout keys)."""
        k = len(self.ws)
        if self.site is not None:
            lk, *wks, rk, xk = heff_operand_keys(self.site, k)
            hk = [f"{xk}:h{i}" for i in range(k + 2)]
        else:
            lk = rk = xk = None
            wks = [None] * k
            hk = [None] * (k + 2)
        # the flowing tensor keeps rank k + 3: every MPO stage consumes the
        # open MPO bond and the next physical leg and appends the primed
        # leg and the new MPO bond at the end
        stages = [MatvecStage(self.left_env, "a", ((2,), (0,)), (lk, xk),
                              hk[0])]                  # (bl, wl, p1..pk, r)
        for i, w in enumerate(self.ws):
            axes = ((1, 2), (0, 2)) if i == 0 else ((k + 2, 1), (0, 2))
            stages.append(MatvecStage(w, "b", axes, (hk[i], wks[i]),
                                      hk[i + 1]))
        # (bl, r, p1'..pk', wr)
        stages.append(MatvecStage(self.right_env, "b", ((1, k + 2), (2, 1)),
                                  (hk[k], rk), hk[k + 1]))  # (bl, p1'..pk', br)
        return stages

    def apply(self, x: BlockSparseTensor) -> BlockSparseTensor:
        """Apply ``K`` to a tensor ``x`` with modes (l, p1, .., pk, r)."""
        return self._chain.apply(x)

    def __call__(self, x: BlockSparseTensor) -> BlockSparseTensor:
        return self.apply(x)


def two_site_tensor(state: MPS, j: int,
                    backend: Optional[ContractionBackend] = None
                    ) -> BlockSparseTensor:
    """Contract sites ``j`` and ``j+1`` into the order-4 optimization tensor."""
    backend = backend if backend is not None else DirectBackend()
    return backend.contract(state.tensors[j], state.tensors[j + 1],
                            axes=([2], [0]),
                            operand_keys=(site_key(j), site_key(j + 1)),
                            out_key=davidson_key(j))


class TwoSiteUpdate:
    """What a driver does at one bond, as :func:`run_sweeps` calls it.

    This base is the standard two-site update; the single-site and
    excited-state drivers subclass it and override only what differs.
    """

    #: sites in the local tensor (= MPO tensors in the effective Hamiltonian)
    width = 2
    #: ``engine=`` annotation of the sweep spans and verbose prefix
    engine: Optional[str] = None
    #: normalize the state before returning it
    normalize = False

    def start_sweep(self, sweep_id: int) -> None:
        """Pick up per-sweep parameters (none for the two-site update)."""

    def companion_caches(self, psi: MPS) -> List[CenterCache]:
        """Caches besides the Hamiltonian environments that follow ``psi``."""
        return []

    def centers(self, lo: int, hi: int) -> list[tuple[int, str]]:
        """``(site, direction)`` of every local update of one sweep of
        sites ``lo..hi``: a right-moving then a left-moving half sweep."""
        return ([(j, "right") for j in range(lo, hi)] +
                [(j, "left") for j in range(hi - 1, lo - 1, -1)])

    def local_tensor(self, psi: MPS, j: int,
                     backend: ContractionBackend) -> BlockSparseTensor:
        """The tensor Davidson starts from."""
        return two_site_tensor(psi, j, backend)

    def wrap(self, heff: EffectiveHamiltonian):
        """The operator Davidson diagonalizes."""
        return heff

    def energy(self, heff: EffectiveHamiltonian,
               dav: DavidsonResult) -> float:
        """The energy recorded for the bond."""
        return dav.eigenvalue

    def split(self, psi: MPS, heff: EffectiveHamiltonian, direction: str,
              x: BlockSparseTensor, truncation: dict) -> TruncationInfo:
        """Write the optimized tensor back into ``psi`` and move its centre."""
        j, backend = heff.site, heff.backend
        with trace.span("svd", "dmrg", site=j):
            u, _, vh, info = backend.svd(
                x, row_axes=[0, 1], col_axes=[2, 3], absorb=direction,
                new_tag=f"l{j + 1}", **truncation)
        psi.tensors[j] = u
        psi.tensors[j + 1] = vh
        psi.center = j + 1 if direction == "right" else j
        # the SVD rewrote both site tensors (and consumed the Davidson
        # tensor) outside the cost model's view: their tracked layouts are
        # stale, so the next contraction that touches them must charge a
        # remapping again
        backend.invalidate_layouts(site_key(j), site_key(j + 1),
                                   davidson_key(j))
        return info

    def bond_dimension(self, psi: MPS, info: TruncationInfo) -> int:
        """The bond dimension a local update contributes to the sweep's max."""
        return info.kept_dim


def run_sweeps(update: TwoSiteUpdate, operator: MPO, psi0: MPS,
               config: DMRGConfig, backend: Optional[ContractionBackend],
               rng: np.random.Generator) -> tuple[DMRGResult, MPS]:
    """The sweep loop shared by every DMRG driver.

    Runs ``config.sweeps`` over a copy of ``psi0``: at every centre
    ``update`` names, build the effective Hamiltonian, solve with Davidson,
    let ``update`` split the result back into the state, and advance the
    environments; keep the per-bond and per-sweep records.  A non-finite
    Davidson input raises ``FloatingPointError`` with the sweep, site and
    direction noted on it.
    """
    backend = backend if backend is not None else DirectBackend()
    psi = psi0.copy()
    n = len(psi)
    if n < 2:
        raise ValueError("DMRG needs at least two sites")
    ranges = config.site_ranges or [(0, n - 1)]
    for lo, hi in ranges:
        if not (0 <= lo < hi <= n - 1):
            raise ValueError(f"invalid site range ({lo}, {hi})")
    psi.canonicalize(0)
    psi.normalize()
    envs = EnvironmentCache(psi, operator, backend)
    caches = [envs] + update.companion_caches(psi)

    result = DMRGResult(energy=np.inf)
    last_energy = np.inf
    stats = StatsRecorder(backend)
    label = f"[{update.engine}] " if update.engine else ""
    span_args = {"engine": update.engine} if update.engine else {}

    for sweep_id in range(len(config.sweeps)):
        update.start_sweep(sweep_id)
        maxdim = config.sweeps.maxdims[sweep_id]
        truncation = dict(max_dim=maxdim,
                          cutoff=config.sweeps.cutoffs[sweep_id],
                          svd_min=config.svd_min)
        dav_iters = config.sweeps.davidson_iterations[sweep_id]
        sweep_energy = np.inf
        sweep_maxdim = 1
        sweep_maxtrunc = 0.0
        sweep_flops0 = flopcount.total_flops()
        stats.start_sweep()
        sweep_span = trace.timed_span("sweep", "dmrg", sweep=sweep_id,
                                      maxdim=maxdim, **span_args).start()

        for lo, hi in ranges:
            if psi.center != lo:
                psi.move_center(lo)
                for cache in caches:
                    cache.invalidate_all()
            for j, direction in update.centers(lo, hi):
                bond_span = trace.timed_span("bond", "dmrg", sweep=sweep_id,
                                             site=j,
                                             direction=direction).start()
                f0 = flopcount.total_flops()

                heff = EffectiveHamiltonian(
                    envs.left(j), operator.tensors[j:j + update.width],
                    envs.right(j + update.width - 1), backend, site=j)
                solve = update.wrap(heff)
                x0 = update.local_tensor(psi, j, backend)
                try:
                    with trace.span("davidson", "dmrg", site=j) as dav_span:
                        dav = davidson(
                            solve, x0, max_iterations=dav_iters,
                            max_subspace=config.davidson_max_subspace,
                            tol=config.davidson_tol, rng=rng)
                        dav_span.annotate(iterations=dav.iterations,
                                          matvecs=dav.matvecs)
                    energy = update.energy(heff, dav)
                    info = update.split(psi, heff, direction, dav.eigenvector,
                                        truncation)
                except FloatingPointError as exc:
                    exc.add_note(f"{label}sweep {sweep_id}, site {j}, "
                                 f"direction {direction}")
                    raise
                # extend the environments in the direction of motion and
                # drop caches that are now stale
                for cache in caches:
                    cache.advance(direction)
                backend.synchronize()

                seconds = bond_span.stop()
                dflops = flopcount.total_flops() - f0
                sweep_energy = energy
                sweep_maxdim = max(sweep_maxdim,
                                   update.bond_dimension(psi, info))
                sweep_maxtrunc = max(sweep_maxtrunc, info.truncation_error)
                if config.record_site_details:
                    result.site_records.append(SiteRecord(
                        sweep_id, j, direction, energy, info.kept_dim,
                        info.truncation_error, dav.iterations, dav.matvecs,
                        dflops, seconds))
                if config.verbose:  # pragma: no cover - console output
                    print(f"  {label}sweep {sweep_id} site {j:3d} "
                          f"[{direction:5s}] E = {energy:+.10f}  "
                          f"m = {info.kept_dim:4d}  "
                          f"trunc = {info.truncation_error:.2e}")

        seconds = sweep_span.stop()
        dflops = flopcount.total_flops() - sweep_flops0
        result.sweep_records.append(SweepRecord(
            sweep_id, sweep_energy, sweep_maxdim, sweep_maxtrunc, seconds,
            dflops, metrics=stats.sweep_metrics()))
        result.energies.append(sweep_energy)
        result.energy = sweep_energy
        if config.sweep_hook is not None:
            config.sweep_hook(sweep_id, psi, result)
        if config.verbose:  # pragma: no cover
            print(f"{label}sweep {sweep_id}: E = {sweep_energy:+.10f} "
                  f"(m = {sweep_maxdim}, {seconds:.2f} s)")
        if (config.energy_tol > 0 and
                abs(last_energy - sweep_energy) < config.energy_tol):
            result.converged = True
            break
        last_energy = sweep_energy

    result.metrics = stats.run_metrics()
    if update.normalize:
        psi.normalize()
    return result, psi


def dmrg(operator: MPO, psi0: MPS, config: DMRGConfig, *,
         backend: Optional[ContractionBackend] = None,
         rng: np.random.Generator | None = None) -> tuple[DMRGResult, MPS]:
    """Run two-site DMRG and return the result record and optimized MPS.

    Parameters
    ----------
    operator:
        The Hamiltonian MPO.
    psi0:
        Starting state (copied; typically a product state with the target
        quantum numbers).
    config:
        Sweep schedule and tolerances.
    backend:
        Contraction backend; defaults to the plain single-process backend.
        The paper's ``list`` / ``sparse-dense`` / ``sparse-sparse`` algorithms
        are selected by passing the corresponding backend from
        :mod:`repro.backends`.
    """
    rng = rng if rng is not None else np.random.default_rng(12345)
    return run_sweeps(TwoSiteUpdate(), operator, psi0, config, backend, rng)


def run_dmrg(operator: MPO, psi0: MPS, *, maxdim: int = 64, nsweeps: int = 6,
             cutoff: float = 1e-10, backend: Optional[ContractionBackend] = None,
             verbose: bool = False) -> tuple[DMRGResult, MPS]:
    """Convenience wrapper with a doubling bond-dimension schedule."""
    sweeps = Sweeps.ramp(maxdim, nsweeps, cutoff=cutoff)
    config = DMRGConfig(sweeps=sweeps, verbose=verbose)
    return dmrg(operator, psi0, config, backend=backend)
