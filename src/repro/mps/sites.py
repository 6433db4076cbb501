"""Physical site definitions (local Hilbert spaces, operators, quantum numbers).

A :class:`Site` owns the local basis, its U(1) charge assignment, and a catalog
of named local operators as dense ``d x d`` matrices.  The two site types used
in the paper are provided:

* :class:`SpinHalfSite` — ``d = 2`` spins, conserving ``2*Sz`` (the "spins"
  system, Section V).
* :class:`ElectronSite` — ``d = 4`` electrons, conserving particle number and
  ``2*Sz`` (the "electrons" system), with a Jordan-Wigner string operator
  ``F`` for fermionic statistics.

Setting ``conserve=None`` produces a symmetry-free site (one sector of
dimension ``d``), which is how the dense baseline path is exercised.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..symmetry import Index
from ..symmetry.charges import Charge


class Site:
    """A local Hilbert space with named operators and a charge assignment.

    Parameters
    ----------
    name:
        Human readable name ("S=1/2", "Electron", ...).
    state_names:
        Label of each local basis state, in order.
    state_charges:
        Charge of each local basis state (empty tuples when no symmetry is
        conserved).
    operators:
        Mapping from operator name to a dense ``d x d`` matrix acting on the
        local basis (row = out state, column = in state).
    fermionic_ops:
        Names of the operators that carry odd fermion parity (require
        Jordan-Wigner strings).
    """

    def __init__(self, name: str, state_names: Sequence[str],
                 state_charges: Sequence[Charge],
                 operators: Dict[str, np.ndarray],
                 fermionic_ops: Sequence[str] = ()):
        self.name = name
        self.state_names: Tuple[str, ...] = tuple(state_names)
        self.state_charges: Tuple[Charge, ...] = tuple(tuple(c) for c in state_charges)
        if len(self.state_names) != len(self.state_charges):
            raise ValueError("state_names and state_charges must align")
        self.dim = len(self.state_names)
        self.operators = {k: np.asarray(v) for k, v in operators.items()}
        for opname, op in self.operators.items():
            if op.shape != (self.dim, self.dim):
                raise ValueError(f"operator {opname} has shape {op.shape}, "
                                 f"expected {(self.dim, self.dim)}")
        self.fermionic_ops = set(fermionic_ops)

    # -- charges ----------------------------------------------------------
    @property
    def nsym(self) -> int:
        """Number of conserved U(1) charges."""
        return len(self.state_charges[0])

    def physical_index(self, flow: int = 1) -> Index:
        """The physical :class:`Index` (one sector per basis state)."""
        return Index(self.state_charges, [1] * self.dim, flow=flow, tag="phys")

    def state_index(self, label: str) -> int:
        """Position of a named basis state."""
        return self.state_names.index(label)

    # -- operators ----------------------------------------------------------
    def op(self, name: str) -> np.ndarray:
        """Dense matrix of a (possibly composite ``"A*B"``) operator."""
        if name in self.operators:
            return self.operators[name]
        if "*" in name:
            parts = name.split("*")
            mat = np.eye(self.dim)
            for p in parts:
                mat = mat @ self.op(p.strip())
            return mat
        raise KeyError(f"site {self.name!r} has no operator {name!r}")

    def is_fermionic(self, name: str) -> bool:
        """Odd fermion parity of a (possibly composite) operator."""
        if name in self.fermionic_ops:
            return True
        if "*" in name:
            parity = False
            for p in name.split("*"):
                parity ^= self.is_fermionic(p.strip())
            return parity
        return False

    def op_charge(self, name: str) -> Charge:
        """Charge transferred by an operator (must be well defined).

        The charge of operator ``O`` is ``q(out) - q(in)`` for every nonzero
        matrix element; a ``ValueError`` is raised when the operator mixes
        charge sectors inconsistently (it would not be block-sparse).
        """
        mat = self.op(name)
        charge: Charge | None = None
        for i in range(self.dim):
            for j in range(self.dim):
                if abs(mat[i, j]) > 1e-14:
                    dq = tuple(a - b for a, b in
                               zip(self.state_charges[i], self.state_charges[j]))
                    if charge is None:
                        charge = dq
                    elif charge != dq:
                        raise ValueError(
                            f"operator {name} on {self.name} has no definite "
                            f"charge: {charge} vs {dq}")
        if charge is None:
            charge = tuple(0 for _ in range(self.nsym))
        return charge

    def __repr__(self) -> str:  # pragma: no cover
        return f"Site({self.name!r}, d={self.dim}, nsym={self.nsym})"


# --------------------------------------------------------------------------- #
# concrete site types
# --------------------------------------------------------------------------- #
def SpinHalfSite(conserve: str | None = "Sz") -> Site:
    """A spin-1/2 site.  ``conserve`` is ``"Sz"`` (default) or ``None``.

    The conserved charge is ``2*Sz`` so that it stays integer valued.
    """
    sz = np.array([[0.5, 0.0], [0.0, -0.5]])
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])   # S+ |dn> = |up>
    sm = sp.T.copy()
    sx = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    isy = 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]])  # i*Sy (kept real)
    ident = np.eye(2)
    ops = {"Id": ident, "Sz": sz, "S+": sp, "S-": sm, "Sx": sx, "iSy": isy,
           "Sp": sp, "Sm": sm}
    if conserve == "Sz":
        charges = [(1,), (-1,)]
    elif conserve is None:
        charges = [(), ()]
    else:
        raise ValueError(f"unknown conserve={conserve!r} for SpinHalfSite")
    return Site("S=1/2", ["Up", "Dn"], charges, ops)


def ElectronSite(conserve: str | None = "NSz") -> Site:
    """A spinful electron site (d = 4) with Jordan-Wigner string operator.

    Basis order: ``|0>, |up>, |dn>, |updn>`` with ``|updn> = c^+_up c^+_dn |0>``.
    ``conserve`` is ``"NSz"`` (particle number and 2*Sz, the paper's choice),
    ``"N"`` (particle number only), or ``None``.
    """
    d = 4
    emp, up, dn, updn = 0, 1, 2, 3
    cup = np.zeros((d, d))
    cup[emp, up] = 1.0
    cup[dn, updn] = 1.0           # c_up |updn> = |dn>
    cdn = np.zeros((d, d))
    cdn[emp, dn] = 1.0
    cdn[up, updn] = -1.0          # c_dn |updn> = -|up>  (intra-site ordering)
    cdagup = cup.T.copy()
    cdagdn = cdn.T.copy()
    nup = cdagup @ cup
    ndn = cdagdn @ cdn
    ntot = nup + ndn
    fjw = np.diag([1.0, -1.0, -1.0, 1.0])   # (-1)^(n_up + n_dn)
    sz = 0.5 * (nup - ndn)
    sp = cdagup @ cdn             # S+ = c^+_up c_dn
    sm = sp.T.copy()
    ident = np.eye(d)
    ops = {"Id": ident, "Cup": cup, "Cdn": cdn, "Cdagup": cdagup,
           "Cdagdn": cdagdn, "Nup": nup, "Ndn": ndn, "Ntot": ntot,
           "Nupdn": nup @ ndn, "F": fjw, "Sz": sz, "S+": sp, "S-": sm,
           "Sp": sp, "Sm": sm}
    fermionic = ["Cup", "Cdn", "Cdagup", "Cdagdn"]
    if conserve == "NSz":
        charges = [(0, 0), (1, 1), (1, -1), (2, 0)]
    elif conserve == "N":
        charges = [(0,), (1,), (1,), (2,)]
    elif conserve is None:
        charges = [(), (), (), ()]
    else:
        raise ValueError(f"unknown conserve={conserve!r} for ElectronSite")
    return Site("Electron", ["Emp", "Up", "Dn", "UpDn"], charges, ops, fermionic)


class SiteSet:
    """An ordered collection of sites (the 1D chain DMRG sweeps over).

    All sites must share the same number of conserved charges.  For the
    lattice models of the paper every site is identical, but mixed site sets
    are supported.
    """

    def __init__(self, sites: Sequence[Site]):
        self.sites: List[Site] = list(sites)
        if not self.sites:
            raise ValueError("SiteSet needs at least one site")
        nsym = self.sites[0].nsym
        for s in self.sites:
            if s.nsym != nsym:
                raise ValueError("all sites must conserve the same charges")

    @classmethod
    def uniform(cls, site: Site, n: int) -> "SiteSet":
        """``n`` copies of the same site."""
        return cls([site] * n)

    def __len__(self) -> int:
        return len(self.sites)

    def __getitem__(self, i: int) -> Site:
        return self.sites[i]

    def __iter__(self):
        return iter(self.sites)

    @property
    def nsym(self) -> int:
        """Number of conserved charges."""
        return self.sites[0].nsym

    @property
    def dims(self) -> List[int]:
        """Local dimensions of every site."""
        return [s.dim for s in self.sites]

    def physical_index(self, i: int, flow: int = 1) -> Index:
        """Physical index of site ``i``."""
        return self.sites[i].physical_index(flow)

    def total_charge(self, config: Sequence[int | str]) -> Charge:
        """Total charge of a product-state configuration."""
        total = tuple(0 for _ in range(self.nsym))
        for site, c in zip(self.sites, config):
            idx = site.state_index(c) if isinstance(c, str) else int(c)
            total = tuple(a + b for a, b in zip(total, site.state_charges[idx]))
        return total
