"""Single-site DMRG with subspace expansion.

The paper uses the standard two-site update ("a standard extension of
optimizing a single site is to optimize two sites simultaneously",
Section II-C).  The single-site variant costs a factor ``d`` less per
optimization and holds a smaller Davidson intermediate — the same trade-off
that motivates the paper's memory analysis — but on its own it cannot grow
the bond dimension or change the quantum-number structure of a bond.  The
cure is *subspace expansion*: before splitting the optimized tensor, the bond
being moved across is enriched with a perturbation built from the environment
and the MPO tensor (the term ``alpha * L · W · x`` of Hubig et al. and of
ITensor's "noise" feature).  This module implements that algorithm on the same
block-sparse machinery as the two-site engine, so the two can be compared
flop-for-flop (see ``benchmarks/bench_ablation_single_vs_two_site.py``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..backends.base import ContractionBackend
from ..ctf.layout import site_key
from ..mps.mpo import MPO
from ..mps.mps import MPS
from ..obs import trace
from ..symmetry import BlockSparseTensor, Index
from ..symmetry.linalg import TruncationInfo
from ..symmetry.reshape import fuse_modes
from .config import DMRGConfig, DMRGResult, Sweeps
from .sweep import EffectiveHamiltonian, TwoSiteUpdate, run_sweeps


def _expansion_term_right(left_env: BlockSparseTensor, x: BlockSparseTensor,
                          w: BlockSparseTensor, alpha: float,
                          backend: ContractionBackend) -> BlockSparseTensor:
    """The right-moving expansion tensor ``alpha * L · x · W``.

    Returns a tensor with modes ``(l, p', rw)`` where ``rw`` fuses the MPO
    right bond with the MPS right bond; its sectors enrich the bond the sweep
    is about to cross.
    """
    c = backend.contract
    t = c(left_env, x, axes=([2], [0]))       # (bl, wl, p, r)
    t = c(t, w, axes=([1, 2], [0, 2]))        # (bl, r, p', wr)
    t = t.transpose([0, 2, 3, 1])             # (bl, p', wr, r)
    fused, _ = fuse_modes(t, [[0], [1], [2, 3]], flows=[1, 1, -1],
                          tags=["l", "phys", "exp"])
    return fused * alpha


def _expansion_term_left(right_env: BlockSparseTensor, x: BlockSparseTensor,
                         w: BlockSparseTensor, alpha: float,
                         backend: ContractionBackend) -> BlockSparseTensor:
    """The left-moving expansion tensor with modes ``(lw, p', r)``."""
    c = backend.contract
    t = c(right_env, x, axes=([2], [2]))      # (br, wr, l, p)
    t = c(t, w, axes=([1, 3], [3, 2]))        # (br, l, wl, p')
    t = t.transpose([2, 1, 3, 0])             # (wl, l, p', br)
    fused, _ = fuse_modes(t, [[0, 1], [2], [3]], flows=[1, 1, -1],
                          tags=["exp", "phys", "r"])
    return fused * alpha


def _direct_sum_index(a: Index, b: Index, tag: str) -> Index:
    """Concatenate the sectors of two bond indices (direct sum)."""
    if a.flow != b.flow:
        raise ValueError("cannot direct-sum indices with different flows")
    if a.nsym != b.nsym:
        raise ValueError("cannot direct-sum indices with different symmetry rank")
    return Index(a.sectors + b.sectors, a.dims + b.dims, flow=a.flow, tag=tag)


def _pad_along_axis(t: BlockSparseTensor, axis: int,
                    extra: Index, tag: str) -> BlockSparseTensor:
    """Extend one bond of ``t`` by the sectors of ``extra`` (zero-filled)."""
    old = t.indices[axis]
    new_index = _direct_sum_index(old, extra.with_flow(old.flow), tag=tag)
    indices = t.indices[:axis] + (new_index,) + t.indices[axis + 1:]
    # original sectors come first in the direct sum, so block keys are reused
    return BlockSparseTensor(indices, dict(t.blocks), flux=t.flux,
                             dtype=t.dtype, check=False)


def _stack_along_axis(a: BlockSparseTensor, b: BlockSparseTensor,
                      axis: int, tag: str) -> BlockSparseTensor:
    """Concatenate two tensors along one bond (direct sum of that index)."""
    old_a, old_b = a.indices[axis], b.indices[axis]
    new_index = _direct_sum_index(old_a, old_b.with_flow(old_a.flow), tag=tag)
    indices = a.indices[:axis] + (new_index,) + a.indices[axis + 1:]
    blocks = {k: v.copy() for k, v in a.blocks.items()}
    offset = old_a.nsectors
    for key, blk in b.blocks.items():
        new_key = key[:axis] + (key[axis] + offset,) + key[axis + 1:]
        blocks[new_key] = blk.copy()
    return BlockSparseTensor(indices, blocks, flux=a.flux,
                             dtype=np.result_type(a.dtype, b.dtype), check=False)


class SingleSiteUpdate(TwoSiteUpdate):
    """One-site local update with subspace expansion across the moved bond."""

    width = 1
    engine = "single-site"
    normalize = True

    def __init__(self, expansion_alphas: Sequence[float]):
        self.expansion_alphas = expansion_alphas
        self.alpha = 0.0

    def start_sweep(self, sweep_id: int) -> None:
        self.alpha = float(self.expansion_alphas[sweep_id])

    def centers(self, lo: int, hi: int) -> list[tuple[int, str]]:
        return ([(j, "right") for j in range(lo, hi)] +
                [(j, "left") for j in range(hi, lo, -1)])

    def local_tensor(self, psi: MPS, j: int,
                     backend: ContractionBackend) -> BlockSparseTensor:
        return psi.tensors[j]

    def split(self, psi: MPS, heff: EffectiveHamiltonian, direction: str,
              x: BlockSparseTensor, truncation: dict) -> TruncationInfo:
        j, backend, (w,) = heff.site, heff.backend, heff.ws
        if direction == "right":
            if self.alpha > 0.0:
                expand = _expansion_term_right(heff.left_env, x, w,
                                               self.alpha, backend)
                x = _stack_along_axis(x, expand, axis=2, tag=f"l{j + 1}")
                psi.tensors[j + 1] = _pad_along_axis(
                    psi.tensors[j + 1], 0, expand.indices[2].dual(),
                    tag=f"l{j + 1}")
            with trace.span("svd", "dmrg", site=j):
                u, _, vh, info = backend.svd(
                    x, row_axes=[0, 1], col_axes=[2], absorb="right",
                    new_tag=f"l{j + 1}", **truncation)
            psi.tensors[j] = u
            psi.tensors[j + 1] = vh.contract(psi.tensors[j + 1],
                                             axes=([1], [0]))
            psi.center = j + 1
        else:
            if self.alpha > 0.0:
                expand = _expansion_term_left(heff.right_env, x, w,
                                              self.alpha, backend)
                x = _stack_along_axis(x, expand, axis=0, tag=f"l{j}")
                psi.tensors[j - 1] = _pad_along_axis(
                    psi.tensors[j - 1], 2, expand.indices[0].dual(),
                    tag=f"l{j}")
            with trace.span("svd", "dmrg", site=j):
                u, _, vh, info = backend.svd(
                    x, row_axes=[1, 2], col_axes=[0], absorb="right",
                    new_tag=f"l{j}", **truncation)
            # u has modes (phys, right, new); restore (new->left, phys, right)
            psi.tensors[j] = u.transpose([2, 0, 1])
            # vh has modes (new_dual, old_left); absorb into site j-1
            psi.tensors[j - 1] = psi.tensors[j - 1].contract(
                vh.transpose([1, 0]), axes=([2], [0]))
            psi.center = j - 1
        # both site tensors were rewritten outside the cost model; their
        # tracked layouts are stale
        backend.invalidate_layouts(site_key(j), site_key(psi.center))
        return info

    def bond_dimension(self, psi: MPS, info: TruncationInfo) -> int:
        return psi.max_bond_dimension()


def single_site_dmrg(operator: MPO, psi0: MPS, config: DMRGConfig, *,
                     backend: Optional[ContractionBackend] = None,
                     expansion_alphas: Sequence[float] | None = None,
                     rng: np.random.Generator | None = None
                     ) -> tuple[DMRGResult, MPS]:
    """Run single-site DMRG with subspace expansion.

    Parameters
    ----------
    operator, psi0, config:
        Same meaning as for :func:`repro.dmrg.dmrg`.
    expansion_alphas:
        Mixing amplitude of the subspace-expansion term per sweep.  Defaults
        to a schedule that decays from ``1e-2`` to ``0`` over the configured
        sweeps (the last sweeps run pure single-site DMRG so the final state
        is a fixed point of the unperturbed algorithm).
    backend:
        Contraction backend (``list`` / ``sparse-dense`` / ``sparse-sparse``
        or the plain single-process default).
    """
    rng = rng if rng is not None else np.random.default_rng(999)
    nsweeps = len(config.sweeps)
    if expansion_alphas is None:
        expansion_alphas = [1e-2 * 0.5 ** s if s < nsweeps - 2 else 0.0
                            for s in range(nsweeps)]
    if len(expansion_alphas) != nsweeps:
        raise ValueError("expansion_alphas must have one entry per sweep")
    return run_sweeps(SingleSiteUpdate(expansion_alphas), operator, psi0,
                      config, backend, rng)


def run_single_site_dmrg(operator: MPO, psi0: MPS, *, maxdim: int = 64,
                         nsweeps: int = 8, cutoff: float = 1e-10,
                         backend: Optional[ContractionBackend] = None,
                         verbose: bool = False) -> tuple[DMRGResult, MPS]:
    """Convenience wrapper with a doubling bond-dimension schedule."""
    sweeps = Sweeps.ramp(maxdim, nsweeps, cutoff=cutoff)
    config = DMRGConfig(sweeps=sweeps, verbose=verbose)
    return single_site_dmrg(operator, psi0, config, backend=backend)
