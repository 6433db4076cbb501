"""Matrix product operators.

An :class:`MPO` is a list of order-4 block-sparse tensors ``W[j]`` with mode
order ``(left bond, physical out, physical in, right bond)`` and flows
``(+1, +1, -1, -1)`` (Fig. 1a, right).  The Hamiltonians of the paper are built
from an :class:`~repro.mps.opsum.OpSum` by the AutoMPO-style constructor in
:mod:`repro.mps.autompo` and optionally compressed by a truncated block SVD
sweep ("we construct the MPO with compression, where each order-4 tensor of H
is truncated via SVD to a 1e-13 cutoff", Section VI-B).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..symmetry import BlockSparseTensor, svd
from ..symmetry.charges import zero_charge
from .mps import MPS
from .sites import SiteSet


class MPO:
    """A matrix product operator over a :class:`SiteSet`."""

    def __init__(self, sites: SiteSet, tensors: Sequence[BlockSparseTensor]):
        if len(tensors) != len(sites):
            raise ValueError("number of tensors must match number of sites")
        self.sites = sites
        self.tensors: List[BlockSparseTensor] = list(tensors)

    def __len__(self) -> int:
        return len(self.tensors)

    @property
    def nsites(self) -> int:
        """Number of sites."""
        return len(self.tensors)

    def bond_dimensions(self) -> List[int]:
        """MPO bond dimension at every internal bond."""
        return [self.tensors[j].indices[3].dim for j in range(self.nsites - 1)]

    def max_bond_dimension(self) -> int:
        """The MPO bond dimension ``k`` of the paper."""
        dims = self.bond_dimensions()
        return max(dims) if dims else 1

    # ------------------------------------------------------------------ #
    # compression
    # ------------------------------------------------------------------ #
    def compress(self, cutoff: float = 1e-13, max_dim: int | None = None) -> "MPO":
        """Compress the MPO bond dimension with a two-way truncated SVD sweep.

        A left-to-right sweep orthogonalizes without truncation, then a
        right-to-left sweep truncates with the given relative ``cutoff`` and
        optional bond-dimension cap.  Operates in place and returns ``self``.
        """
        n = self.nsites
        # left -> right: QR-like pass using SVD with no truncation
        for j in range(n - 1):
            w = self.tensors[j]
            u, _, vh, _ = svd(w, row_axes=[0, 1, 2], col_axes=[3],
                              absorb="right", new_tag=f"w{j + 1}")
            self.tensors[j] = u
            self.tensors[j + 1] = vh.contract(self.tensors[j + 1], axes=([1], [0]))
        # right -> left: truncate
        for j in range(n - 1, 0, -1):
            w = self.tensors[j]
            u, _, vh, _ = svd(w, row_axes=[0], col_axes=[1, 2, 3],
                              absorb="left", cutoff=cutoff, max_dim=max_dim,
                              new_tag=f"w{j}")
            self.tensors[j] = vh
            self.tensors[j - 1] = self.tensors[j - 1].contract(u, axes=([3], [0]))
        return self

    # ------------------------------------------------------------------ #
    # dense conversions (validation on small systems)
    # ------------------------------------------------------------------ #
    def to_dense_matrix(self) -> np.ndarray:  # repro-lint: ok(test-only): dense oracle the block-sparse MPO is checked against
        """Contract the MPO into a dense matrix (small systems only)."""
        dims = self.sites.dims
        size = int(np.prod(dims))
        if size > 2 ** 13:
            raise MemoryError("operator too large to densify")
        acc = self.tensors[0]
        for j in range(1, self.nsites):
            acc = acc.contract(self.tensors[j], axes=([acc.ndim - 1], [0]))
        dense = acc.to_dense()
        # modes: (wl=1, out_1, in_1, out_2, in_2, ..., wr=1)
        dense = dense.reshape(dense.shape[1:-1])
        n = self.nsites
        perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        dense = np.transpose(dense, perm)
        return dense.reshape(size, size)

    # ------------------------------------------------------------------ #
    # expectation values
    # ------------------------------------------------------------------ #
    def expectation(self, state: MPS) -> float:
        """``<psi| H |psi> / <psi|psi>`` evaluated by zipping environments."""
        bra = state
        env = None
        for j in range(self.nsites):
            a = bra.tensors[j]
            w = self.tensors[j]
            if env is None:
                # initialize with the left edge bonds (all dimension 1):
                # legs (bra_l, mpo_l, ket_l); bra_l contracts conj(a).l so it
                # carries a's own left index, the other two are duals.
                l_bra, l_w = a.indices[0], w.indices[0]
                blocks = {(0, 0, 0): np.ones((l_bra.dim, l_w.dim, l_bra.dim))}
                env = BlockSparseTensor(
                    (l_bra, l_w.dual(), l_bra.dual()), blocks,
                    flux=zero_charge(a.nsym), check=False)
            env = _env_step(env, a, w)
        # close with the right edge bonds
        dense = env.to_dense()
        num = float(dense.reshape(-1).sum().real)
        den = float(abs(overlap_norm_sq(state)))
        return num / den

    def __repr__(self) -> str:  # pragma: no cover
        return f"MPO(nsites={self.nsites}, k={self.max_bond_dimension()})"


def _env_step(env: BlockSparseTensor, a: BlockSparseTensor,
              w: BlockSparseTensor) -> BlockSparseTensor:
    """Advance a (bra, mpo, ket) environment across one site."""
    # env: (bra_l, w_l, ket_l); a: (l, p, r); w: (wl, p_out, p_in, wr)
    tmp = env.contract(a, axes=([2], [0]))              # (bra_l, w_l, p, r)
    tmp = tmp.contract(w, axes=([1, 2], [0, 2]))        # (bra_l, r, p_out, wr)
    tmp = a.conj().contract(tmp, axes=([0, 1], [0, 2]))  # (bra_r, ket_r, wr)
    return tmp.transpose([0, 2, 1])                      # (bra_r, wr, ket_r)


def overlap_norm_sq(state: MPS) -> float:
    """``<psi|psi>`` via the MPS overlap."""
    from .mps import overlap
    return float(abs(overlap(state, state)))
