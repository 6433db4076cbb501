"""Left and right DMRG environments.

The projected two-site eigenproblem never forms the reduced Hamiltonian ``K``
explicitly; it is represented by the left environment ``A``, the right
environment ``B`` and the two MPO site tensors (Fig. 1d and Section II-C).
Environments are built incrementally as the sweep moves and cached per bond.

Index conventions (legs from left to right):

* left environment  ``L[j]``  : ``(bra_bond_j, mpo_bond_j, ket_bond_j)``
* right environment ``R[j]``  : ``(bra_bond_{j+1}, mpo_bond_{j+1}, ket_bond_{j+1})``

where the "bra" leg carries the same Index as the MPS tensor's own bond (it
contracts the conjugated tensor) and the mpo/ket legs carry duals.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..backends.base import ContractionBackend, DirectBackend
from ..ctf.layout import left_env_key, mpo_key, right_env_key, site_key
from ..mps.mpo import MPO
from ..mps.mps import MPS
from ..symmetry import BlockSparseTensor
from ..symmetry.charges import zero_charge


def left_edge_environment(state: MPS, operator: MPO) -> BlockSparseTensor:
    """The trivial environment to the left of site 0."""
    a = state.tensors[0]
    w = operator.tensors[0]
    l_bra, l_w = a.indices[0], w.indices[0]
    blocks = {(0, 0, 0): np.ones((l_bra.dim, l_w.dim, l_bra.dim))}
    return BlockSparseTensor((l_bra, l_w.dual(), l_bra.dual()), blocks,
                             flux=zero_charge(a.nsym), check=False)


def right_edge_environment(state: MPS, operator: MPO) -> BlockSparseTensor:
    """The trivial environment to the right of site N-1."""
    a = state.tensors[-1]
    w = operator.tensors[-1]
    r_bra, r_w = a.indices[2], w.indices[3]
    blocks = {(0, 0, 0): np.ones((r_bra.dim, r_w.dim, r_bra.dim))}
    return BlockSparseTensor((r_bra, r_w.dual(), r_bra.dual()), blocks,
                             flux=zero_charge(a.nsym), check=False)


def extend_left(env: BlockSparseTensor, a: BlockSparseTensor,
                w: BlockSparseTensor,
                backend: ContractionBackend, *,
                site: int | None = None) -> BlockSparseTensor:
    """Absorb site tensors into a left environment: ``L[j] -> L[j+1]``.

    ``site`` (the position of ``a``/``w``) names the operands for the
    sweep-persistent layout tracker: the old environment, the MPO tensor and
    the freshly built environment keep their distributed layouts across
    contractions, so only real mapping changes charge a redistribution.
    """
    ek = left_env_key(site) if site is not None else None
    ok = left_env_key(site + 1) if site is not None else None
    mk = mpo_key(site) if site is not None else None
    sk = site_key(site) if site is not None else None
    t1 = f"{ok}:partial1" if ok else None
    t2 = f"{ok}:partial2" if ok else None
    tmp = backend.contract(env, a, axes=([2], [0]),
                           operand_keys=(ek, sk), out_key=t1)  # (bra_l, w_l, p, r)
    tmp = backend.contract(tmp, w, axes=([1, 2], [0, 2]),
                           operand_keys=(t1, mk), out_key=t2)  # (bra_l, r, p', wr)
    tmp = backend.contract(a.conj(), tmp, axes=([0, 1], [0, 2]),
                           operand_keys=(None, t2), out_key=ok)  # (bra_r, ket_r, wr)
    return tmp.transpose([0, 2, 1])                         # (bra_r, wr, ket_r)


def extend_right(env: BlockSparseTensor, a: BlockSparseTensor,
                 w: BlockSparseTensor,
                 backend: ContractionBackend, *,
                 site: int | None = None) -> BlockSparseTensor:
    """Absorb site tensors into a right environment: ``R[j] -> R[j-1]``.

    ``site`` (the position of ``a``/``w``) names the operands for the
    sweep-persistent layout tracker, as in :func:`extend_left`.
    """
    ek = right_env_key(site) if site is not None else None
    ok = right_env_key(site - 1) if site is not None else None
    mk = mpo_key(site) if site is not None else None
    sk = site_key(site) if site is not None else None
    t1 = f"{ok}:partial1" if ok else None
    t2 = f"{ok}:partial2" if ok else None
    tmp = backend.contract(env, a, axes=([2], [2]),
                           operand_keys=(ek, sk), out_key=t1)  # (bra_r, w_r, l, p)
    tmp = backend.contract(tmp, w, axes=([1, 3], [3, 2]),
                           operand_keys=(t1, mk), out_key=t2)  # (bra_r, l, wl, p')
    tmp = backend.contract(a.conj(), tmp, axes=([2, 1], [0, 3]),
                           operand_keys=(None, t2), out_key=ok)  # (bra_l, ket_l, wl)
    return tmp.transpose([0, 2, 1])                          # (bra_l, wl, ket_l)


class CenterCache:
    """Per-site left/right partial contractions that follow the centre.

    ``left(j)`` covers sites ``< j`` and ``right(j)`` covers sites ``> j`` of
    ``state``; entries are built on demand by the subclass's
    ``_extend_left``/``_extend_right`` from their neighbour and dropped
    site-by-site as DMRG rewrites tensors.  The trivial edge entries never
    depend on a rewritten tensor and are kept for the cache's lifetime.
    """

    def __init__(self, state: MPS, left_edge: BlockSparseTensor,
                 right_edge: BlockSparseTensor):
        self.state = state
        n = len(state)
        self._left: List[Optional[BlockSparseTensor]] = [None] * n
        self._right: List[Optional[BlockSparseTensor]] = [None] * n
        self._left[0] = left_edge
        self._right[n - 1] = right_edge

    def left(self, j: int) -> BlockSparseTensor:
        """Contraction of all sites strictly to the left of ``j``."""
        if self._left[j] is None:
            self._left[j] = self._extend_left(j)
        return self._left[j]

    def right(self, j: int) -> BlockSparseTensor:
        """Contraction of all sites strictly to the right of ``j``."""
        if self._right[j] is None:
            self._right[j] = self._extend_right(j)
        return self._right[j]

    def advance(self, direction: str) -> None:
        """Follow the orthogonality centre after a local update.

        The sweep just rewrote the tensors around the centre and moved it
        one step in ``direction``: absorb the site it moved off into the
        entry on that side and drop every entry the rewritten tensors made
        stale.
        """
        c = self.state.center
        if direction == "right":
            self._left[c] = self._extend_left(c)
        else:
            self._right[c] = self._extend_right(c)
        self.invalidate_from(c)

    def invalidate_all(self) -> None:
        """Drop every cached entry except the trivial edge ones."""
        n = len(self.state)
        self._left[1:] = [None] * (n - 1)
        self._right[:n - 1] = [None] * (n - 1)

    def invalidate_from(self, j: int) -> None:
        """Drop cached entries that depend on site ``j`` or beyond/before."""
        n = len(self.state)
        for k in range(j + 1, n):
            self._left[k] = None
        for k in range(0, j):
            self._right[k] = None


class EnvironmentCache(CenterCache):
    """Cached left/right Hamiltonian environments of a state/operator pair."""

    def __init__(self, state: MPS, operator: MPO,
                 backend: Optional[ContractionBackend] = None):
        if len(state) != len(operator):
            raise ValueError("state and operator lengths differ")
        super().__init__(state, left_edge_environment(state, operator),
                         right_edge_environment(state, operator))
        self.operator = operator
        self.backend = backend if backend is not None else DirectBackend()

    def _extend_left(self, j: int) -> BlockSparseTensor:
        return extend_left(self.left(j - 1), self.state.tensors[j - 1],
                           self.operator.tensors[j - 1], self.backend,
                           site=j - 1)

    def _extend_right(self, j: int) -> BlockSparseTensor:
        return extend_right(self.right(j + 1), self.state.tensors[j + 1],
                            self.operator.tensors[j + 1], self.backend,
                            site=j + 1)
