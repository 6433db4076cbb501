"""Additional Hubbard-family models from the prior-work comparison (Table I).

The paper's Table I lists the systems earlier parallel-DMRG efforts were built
around: the 1D Hubbard chain of Rincón et al., the U-V (extended) Hubbard
model of Kantian/Dolfi et al. — the closest prior distributed-memory work —
and the square-lattice Hubbard cylinders of Yamada et al.  Implementing them
gives the benchmark harness the same workload family those papers report and
lets the prior-work table be regenerated against concrete model definitions
rather than citations alone.

    H = -t   sum_{<i,j>, sigma} ( c^+_{i sigma} c_{j sigma} + h.c. )
        + U  sum_i  n_{i up} n_{i dn}
        + V  sum_{<i,j>}  n_i n_j                       (extended term)
"""

from __future__ import annotations

from ..mps.opsum import OpSum
from .hubbard import half_filled_configuration, hubbard_sites
from .lattices import Lattice, chain, square_cylinder


def extended_hubbard_opsum(lattice: Lattice, t: float = 1.0, u: float = 4.0,
                           v: float = 1.0) -> OpSum:
    """Operator sum of the U-V Hubbard model on a lattice.

    ``v`` couples total densities on nearest-neighbour bonds; setting it to
    zero recovers the plain Hubbard model.
    """
    os = OpSum()
    for b in lattice.bonds_of_kind("nn"):
        for spin in ("up", "dn"):
            os.add(-t, f"Cdag{spin}", b.i, f"C{spin}", b.j)
            os.add(-t, f"Cdag{spin}", b.j, f"C{spin}", b.i)
    if u != 0.0:
        for i in range(lattice.nsites):
            os.add(u, "Nupdn", i)
    if v != 0.0:
        for b in lattice.bonds_of_kind("nn"):
            os.add(v, "Ntot", b.i, "Ntot", b.j)
    return os


def uv_hubbard_chain_model(n: int, t: float = 1.0, u: float = 4.0,
                           v: float = 1.0, conserve: str | None = "NSz"):
    """The 1D U-V Hubbard chain (Kantian et al., Table I).

    Returns ``(lattice, sites, opsum, initial_configuration)``.
    """
    lat = chain(n)
    sites = hubbard_sites(n, conserve)
    os = extended_hubbard_opsum(lat, t, u, v)
    return lat, sites, os, half_filled_configuration(n)


def square_hubbard_model(lx: int, ly: int, t: float = 1.0, u: float = 4.0,
                         conserve: str | None = "NSz"):
    """The square-lattice Hubbard cylinder (Yamada et al., Table I).

    Returns ``(lattice, sites, opsum, initial_configuration)``.
    """
    lat = square_cylinder(lx, ly, next_nearest=False)
    sites = hubbard_sites(lat.nsites, conserve)
    from .hubbard import hubbard_opsum
    os = hubbard_opsum(lat, t, u)
    return lat, sites, os, half_filled_configuration(lat.nsites)
