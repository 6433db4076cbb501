"""Matrix product states.

An :class:`MPS` is a list of order-3 block-sparse site tensors ``T[j]`` with
mode order ``(left bond, physical, right bond)`` (Fig. 1a of the paper).  The
physical index always has flow ``+1`` (ket); bond indices of neighbouring
tensors are duals of each other but carry no fixed flow convention — every
operation only relies on the dual relationship.

The orthogonality ("canonical") center is tracked explicitly so that local
expectation values and two-site DMRG updates can rely on the isometry property
of all other tensors (Section II-C).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..symmetry import BlockSparseTensor, Index, qr, svd
from ..symmetry.charges import Charge, add_charges, negate_charge, zero_charge
from .sites import SiteSet


class MPS:
    """A matrix product state over a :class:`SiteSet`."""

    def __init__(self, sites: SiteSet, tensors: Sequence[BlockSparseTensor],
                 center: int | None = None):
        if len(tensors) != len(sites):
            raise ValueError("number of tensors must match number of sites")
        self.sites = sites
        self.tensors: List[BlockSparseTensor] = list(tensors)
        self.center = center

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def product_state(cls, sites: SiteSet, config: Sequence[int | str]) -> "MPS":
        """A bond-dimension-1 product state from a local configuration.

        ``config`` lists, for every site, either the basis-state label (e.g.
        ``"Up"``) or its integer position.
        """
        if len(config) != len(sites):
            raise ValueError("config length must match number of sites")
        nsym = sites.nsym
        tensors = []
        acc = zero_charge(nsym)
        for j, site in enumerate(sites):
            state = site.state_index(config[j]) if isinstance(config[j], str) \
                else int(config[j])
            if not 0 <= state < site.dim:
                raise ValueError(f"invalid state {config[j]} for site {j}")
            left = Index([acc], [1], flow=1, tag=f"l{j}")
            phys = site.physical_index(flow=1)
            acc = add_charges(acc, site.state_charges[state])
            right = Index([acc], [1], flow=-1, tag=f"l{j + 1}")
            blk = np.ones((1, 1, 1))
            t = BlockSparseTensor((left, phys, right), {(0, state, 0): blk},
                                  flux=zero_charge(nsym))
            tensors.append(t)
        return cls(sites, tensors, center=0)

    @classmethod
    def random(cls, sites: SiteSet, total_charge: Charge | None = None,
               bond_dim: int = 8, rng: np.random.Generator | None = None,
               dtype=np.float64) -> "MPS":
        """A random MPS with the prescribed total charge and bond dimension.

        Bond charge sectors are obtained by fusing physical charges from the
        left, intersected with what remains reachable from the right, and each
        sector dimension is capped so the total bond dimension stays at
        ``bond_dim`` (distributed proportionally to the uncapped degeneracies).
        This mimics the block structure DMRG itself produces and is used by the
        Fig. 2 block-structure benchmark.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        nsym = sites.nsym
        if total_charge is None:
            total_charge = zero_charge(nsym)
        bonds = bond_structure(sites, total_charge, bond_dim)
        tensors = []
        for j, site in enumerate(sites):
            left = bonds[j].with_flow(1).with_tag(f"l{j}")
            right = bonds[j + 1].with_flow(-1).with_tag(f"l{j + 1}")
            phys = site.physical_index(flow=1)
            t = BlockSparseTensor.random((left, phys, right),
                                         flux=zero_charge(nsym), rng=rng,
                                         dtype=dtype)
            if t.num_blocks == 0:
                raise ValueError(
                    f"random MPS has an empty tensor at site {j}; the requested "
                    f"total charge {total_charge} may be unreachable")
            tensors.append(t)
        mps = cls(sites, tensors, center=None)
        mps.canonicalize(0)
        mps.normalize()
        return mps

    # ------------------------------------------------------------------ #
    # basic structure
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.tensors)

    @property
    def nsites(self) -> int:
        """Number of sites."""
        return len(self.tensors)

    def bond_dimensions(self) -> List[int]:
        """Bond dimension at every internal bond (length ``nsites - 1``)."""
        return [self.tensors[j].indices[2].dim for j in range(self.nsites - 1)]

    def max_bond_dimension(self) -> int:
        """Largest internal bond dimension."""
        dims = self.bond_dimensions()
        return max(dims) if dims else 1

    def site_tensor(self, j: int) -> BlockSparseTensor:
        """The site tensor at ``j``."""
        return self.tensors[j]

    def copy(self) -> "MPS":
        """Deep copy."""
        return MPS(self.sites, [t.copy() for t in self.tensors], self.center)

    def total_charge(self) -> Charge:
        """Total charge of the state (charge of the rightmost bond)."""
        right = self.tensors[-1].indices[2]
        # the rightmost bond has a single sector whose charge is the total
        if right.nsectors != 1:
            raise ValueError("rightmost bond has more than one sector")
        q = right.sector_charge(0)
        return q if right.flow == -1 else negate_charge(q)

    # ------------------------------------------------------------------ #
    # canonical form
    # ------------------------------------------------------------------ #
    def canonicalize(self, center: int = 0) -> "MPS":
        """Bring the MPS to mixed-canonical form with the given center."""
        n = self.nsites
        if not 0 <= center < n:
            raise ValueError(f"invalid center {center}")
        for j in range(0, center):
            self._orthogonalize_left(j)
        for j in range(n - 1, center, -1):
            self._orthogonalize_right(j)
        self.center = center
        return self

    def _orthogonalize_left(self, j: int) -> None:
        """QR site ``j`` so it is left-isometric; push R into site ``j+1``."""
        q, r = qr(self.tensors[j], row_axes=[0, 1], col_axes=[2],
                  new_tag=f"l{j + 1}")
        self.tensors[j] = q
        self.tensors[j + 1] = r.contract(self.tensors[j + 1], axes=([1], [0]))

    def _orthogonalize_right(self, j: int) -> None:
        """QR site ``j`` so it is right-isometric; push R into site ``j-1``."""
        q, r = qr(self.tensors[j], row_axes=[1, 2], col_axes=[0],
                  new_tag=f"l{j}")
        # q has modes (phys, right, new); restore (new, phys, right)
        self.tensors[j] = q.transpose([2, 0, 1])
        # r has modes (new_dual, left); absorb into site j-1 from the right
        self.tensors[j - 1] = self.tensors[j - 1].contract(
            r.transpose([1, 0]), axes=([2], [0]))

    def move_center(self, new_center: int) -> "MPS":
        """Shift the orthogonality center one QR at a time."""
        if self.center is None:
            return self.canonicalize(new_center)
        while self.center < new_center:
            self._orthogonalize_left(self.center)
            self.center += 1
        while self.center > new_center:
            self._orthogonalize_right(self.center)
            self.center -= 1
        return self

    # ------------------------------------------------------------------ #
    # norms, overlaps, expectation values
    # ------------------------------------------------------------------ #
    def norm(self) -> float:
        """The 2-norm ``sqrt(<psi|psi>)``."""
        if self.center is not None:
            return self.tensors[self.center].norm()
        return float(np.sqrt(abs(overlap(self, self))))

    def normalize(self) -> "MPS":
        """Scale the state to unit norm (in place)."""
        nrm = self.norm()
        if nrm == 0:
            raise ValueError("cannot normalize a zero MPS")
        if self.center is not None:
            self.tensors[self.center] = self.tensors[self.center] / nrm
        else:
            self.tensors[0] = self.tensors[0] / nrm
        return self

    def expect_one_site(self, opname: str, j: int) -> complex:
        """Expectation value of a named local operator at site ``j``."""
        work = self.copy()
        work.canonicalize(j)
        work.normalize()
        t = work.tensors[j]
        site = self.sites[j]
        op = site.op(opname)
        phys = site.physical_index(flow=1)
        op_tensor = BlockSparseTensor.from_dense(
            op.reshape(site.dim, site.dim),
            (phys, phys.dual()), flux=site.op_charge(opname),
            require_symmetric=True)
        # <T| O |T> : apply op to the physical leg then take the inner product
        ot = op_tensor.contract(t, axes=([1], [1]))     # (p_out, l, r)
        ot = ot.transpose([1, 0, 2])
        return t.conj().contract(ot, axes=([0, 1, 2], [0, 1, 2]))

    def entanglement_entropy(self, bond: int) -> float:
        """Von Neumann entanglement entropy across bond ``bond`` (0-based)."""
        work = self.copy()
        work.canonicalize(bond)
        work.normalize()
        theta = work.tensors[bond]
        _, spec, _, _ = svd(theta, row_axes=[0, 1], col_axes=[2])
        return spec.entanglement_entropy()

    def to_dense_vector(self) -> np.ndarray:  # repro-lint: ok(test-only): dense oracle the block-sparse MPS is checked against
        """Contract the full state into a dense vector (small systems only)."""
        dims = self.sites.dims
        size = int(np.prod(dims))
        if size > 2 ** 22:
            raise MemoryError("state too large to densify")
        acc = self.tensors[0]
        for j in range(1, self.nsites):
            acc = acc.contract(self.tensors[j], axes=([acc.ndim - 1], [0]))
        dense = acc.to_dense()  # (1, d0, d1, ..., 1)
        return dense.reshape(size)


def bond_structure(sites: SiteSet, total_charge: Charge, bond_dim: int,
                   drop_small_sectors: bool = False) -> List[Index]:
    """Quantum-number structure of every MPS bond at a given bond dimension.

    Returns ``nsites + 1`` indices (including the trivial edge bonds).  Sector
    degeneracies are the minimum of what is reachable by fusing physical
    spaces from the left and from the right, capped to ``bond_dim`` in total
    with per-sector dimensions distributed proportionally (at least 1).  This
    reproduces the characteristic block structure studied in Fig. 2.
    """
    n = len(sites)
    nsym = sites.nsym

    # uncapped fusion from the left
    left: List[dict] = [{zero_charge(nsym): 1}]
    for j in range(n):
        nxt: dict = {}
        for q, d in left[-1].items():
            for qs in sites[j].state_charges:
                qq = add_charges(q, qs)
                nxt[qq] = nxt.get(qq, 0) + d
        left.append(_cap_sectors(nxt, 4 * bond_dim))
    # uncapped fusion from the right (charges still measured from the left:
    # a bond sector q is reachable from the right iff total - q is reachable
    # by the remaining sites)
    right: List[dict] = [dict() for _ in range(n + 1)]
    right[n] = {total_charge: 1}
    for j in range(n - 1, -1, -1):
        nxt = {}
        for q, d in right[j + 1].items():
            for qs in sites[j].state_charges:
                qq = tuple(a - b for a, b in zip(q, qs))
                nxt[qq] = nxt.get(qq, 0) + d
        right[j] = _cap_sectors(nxt, 4 * bond_dim)

    bonds: List[Index] = []
    for j in range(n + 1):
        sectors = {}
        for q, dl in left[j].items():
            dr = right[j].get(q)
            if dr:
                sectors[q] = min(dl, dr)
        if not sectors:
            raise ValueError(
                f"total charge {total_charge} is not reachable at bond {j}")
        capped = _cap_sectors(sectors, bond_dim,
                              drop_small=drop_small_sectors)
        items = sorted(capped.items())
        bonds.append(Index([q for q, _ in items], [d for _, d in items],
                           flow=1, tag=f"l{j}"))
    return bonds


def _cap_sectors(sectors: dict, cap: int, drop_small: bool = False) -> dict:
    """Scale sector degeneracies down so their sum does not exceed ``cap``.

    With ``drop_small`` set, sectors whose proportional share rounds to zero
    are removed entirely (mimicking what SVD truncation does to negligible
    sectors); otherwise every reachable sector keeps at least one state.
    """
    total = sum(sectors.values())
    if total <= cap:
        return dict(sectors)
    out = {}
    for q, d in sectors.items():
        share = d * cap / total
        scaled = int(round(share)) if drop_small else max(1, int(round(share)))
        if scaled >= 1:
            out[q] = min(d, scaled)
    if not out:
        # always keep the dominant sector so the bond stays connected
        q = max(sectors, key=sectors.get)
        out[q] = min(sectors[q], cap)
    return out


def overlap(bra: MPS, ket: MPS) -> complex:
    """The overlap ``<bra|ket>`` of two MPS over the same site set."""
    if len(bra) != len(ket):
        raise ValueError("states have different lengths")
    a0 = bra.tensors[0].conj()
    b0 = ket.tensors[0]
    env = a0.contract(b0, axes=([0, 1], [0, 1]))   # (bra_r, ket_r)
    for j in range(1, len(ket)):
        env = env.contract(ket.tensors[j], axes=([1], [0]))      # (bra_r, p, ket_r)
        env = bra.tensors[j].conj().contract(env, axes=([0, 1], [0, 1]))
    dense = env.to_dense() if isinstance(env, BlockSparseTensor) else np.asarray(env)
    val = dense.reshape(-1)[0] if dense.size else 0.0
    return complex(val) if np.iscomplexobj(dense) else float(val)
