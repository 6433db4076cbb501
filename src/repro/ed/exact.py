"""Exact diagonalization of operator sums (validation substrate).

DMRG energies produced by this package are validated against a completely
independent path: every :class:`~repro.mps.opsum.OpSum` term is expanded into a
sparse operator on the full many-body Hilbert space (with explicit
Jordan-Wigner strings for fermionic operators) and the ground state is obtained
with a Lanczos eigensolver.  Because the Jordan-Wigner handling here operates
on full-space operators — not on MPO automaton states — agreement between the
two paths is a strong consistency check of the fermionic sign conventions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..mps.opsum import OpSum
from ..mps.sites import SiteSet


def site_operator_full(sites: SiteSet, name: str, site: int) -> sp.csr_matrix:
    """The full-Hilbert-space operator for a (possibly fermionic) local op.

    Fermionic operators are mapped through the Jordan-Wigner transformation:
    ``a_j = F_0 ... F_(j-1) c_j`` where ``F`` is the local string operator.
    Bosonic (even-parity) operators are simply embedded with identities.
    """
    n = len(sites)
    if not 0 <= site < n:
        raise ValueError(f"site {site} outside the lattice of {n} sites")
    local = sites[site].op(name)
    fermionic = sites[site].is_fermionic(name)
    mats = []
    for j in range(n):
        if j < site and fermionic:
            mats.append(sp.csr_matrix(sites[j].op("F")))
        elif j == site:
            mats.append(sp.csr_matrix(local))
        else:
            mats.append(sp.identity(sites[j].dim, format="csr"))
    out = mats[0]
    for m in mats[1:]:
        out = sp.kron(out, m, format="csr")
    return out


def build_hamiltonian(opsum: OpSum, sites: SiteSet) -> sp.csr_matrix:
    """Assemble the sparse many-body Hamiltonian of an operator sum."""
    n = len(sites)
    dim = int(np.prod(sites.dims))
    h = sp.csr_matrix((dim, dim), dtype=np.complex128)
    for term in opsum:
        op = sp.identity(dim, format="csr", dtype=np.complex128)
        # multiply full-space operators right-to-left so the matrix product
        # matches the operator-string order as written
        for factor in reversed(term.factors):
            op = site_operator_full(sites, factor.name, factor.site) @ op
        h = h + term.coefficient * op
    h.eliminate_zeros()
    return h


def total_charge_operator(sites: SiteSet, component: int) -> sp.csr_matrix:  # repro-lint: ok(test-only): exact diagonalization is the test oracle for DMRG
    """Diagonal operator measuring one conserved U(1) charge."""
    dim = int(np.prod(sites.dims))
    diag = np.zeros(dim)
    # charges are additive over the tensor-product basis
    dims = sites.dims
    for idx in range(dim):
        rest = idx
        q = 0
        for j in range(len(sites) - 1, -1, -1):
            state = rest % dims[j]
            rest //= dims[j]
            q += sites[j].state_charges[state][component]
        diag[idx] = q
    return sp.diags(diag).tocsr()


def charge_sector_projector(sites: SiteSet, charge: Sequence[int]) -> np.ndarray:
    """Boolean mask of basis states belonging to a total-charge sector."""
    dim = int(np.prod(sites.dims))
    dims = sites.dims
    mask = np.ones(dim, dtype=bool)
    for component, target in enumerate(charge):
        diag = np.zeros(dim)
        for idx in range(dim):
            rest = idx
            q = 0
            for j in range(len(sites) - 1, -1, -1):
                state = rest % dims[j]
                rest //= dims[j]
                q += sites[j].state_charges[state][component]
            diag[idx] = q
        mask &= diag == target
    return mask


def ground_state(opsum: OpSum, sites: SiteSet,
                 charge: Sequence[int] | None = None,
                 k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``k`` eigenpairs of the operator sum, optionally in a charge sector.

    Returns ``(energies, vectors)`` with vectors as columns in the full basis.
    """
    h = build_hamiltonian(opsum, sites)
    if charge is not None:
        mask = charge_sector_projector(sites, charge)
        if not mask.any():
            raise ValueError(f"charge sector {tuple(charge)} is empty")
        idx = np.where(mask)[0]
        hs = h[idx][:, idx].tocsr()
    else:
        idx = None
        hs = h
    imag_norm = spla.norm(hs.imag) if hs.nnz else 0.0
    if imag_norm < 1e-12:
        hs = hs.real
    dim = hs.shape[0]
    if dim <= 256:
        evals, evecs = np.linalg.eigh(hs.toarray())  # repro-lint: ok(blockops-route): ED is the independent reference the block-ops kernels are validated against; it must not share them
        evals, evecs = evals[:k], evecs[:, :k]
    else:
        evals, evecs = spla.eigsh(hs, k=k, which="SA")
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
    if idx is not None:
        full = np.zeros((h.shape[0], evecs.shape[1]),
                        dtype=evecs.dtype)
        full[idx, :] = evecs
        evecs = full
    return evals, evecs


def ground_state_energy(opsum: OpSum, sites: SiteSet,
                        charge: Sequence[int] | None = None) -> float:
    """Lowest eigenvalue (optionally restricted to a charge sector)."""
    evals, _ = ground_state(opsum, sites, charge=charge, k=1)
    return float(evals[0])
