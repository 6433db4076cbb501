"""Lattice geometries.

The paper benchmarks two finite 2D cylinders (Fig. 4): a 20x10 square-lattice
cylinder for the J1-J2 Heisenberg model and a 6x6 triangular cylinder (XC
geometry) for the Hubbard model.  DMRG operates on a 1D ordering of the sites;
we use the standard column-major ("snake-free") ordering in which site
``(x, y)`` maps to ``x * Ly + y``, the same ordering ITensor's lattice helpers
produce, so interaction ranges — and therefore MPO bond dimensions — match the
reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Bond:
    """An interaction bond between two (1D-ordered) sites."""

    i: int
    j: int
    kind: str = "nn"


@dataclass
class Lattice:
    """A finite lattice: site coordinates plus a typed bond list."""

    name: str
    nx_sites: int
    ny_sites: int
    coords: List[Tuple[float, float]]
    bonds: List[Bond] = field(default_factory=list)

    @property
    def nsites(self) -> int:
        """Number of lattice sites."""
        return len(self.coords)

    def bonds_of_kind(self, kind: str) -> List[Bond]:
        """All bonds of a given kind (e.g. ``"nn"`` or ``"nnn"``)."""
        return [b for b in self.bonds if b.kind == kind]


def _add_unique(bonds: Dict[Tuple[int, int, str], Bond], i: int, j: int,
                kind: str) -> None:
    if i == j:
        return
    a, b = (i, j) if i < j else (j, i)
    bonds[(a, b, kind)] = Bond(a, b, kind)


def chain(n: int, periodic: bool = False) -> Lattice:
    """A 1D chain of ``n`` sites."""
    bonds: Dict[Tuple[int, int, str], Bond] = {}
    for i in range(n - 1):
        _add_unique(bonds, i, i + 1, "nn")
    if periodic and n > 2:
        _add_unique(bonds, n - 1, 0, "nn")
    return Lattice("chain", n, 1, [(float(i), 0.0) for i in range(n)],
                   sorted(bonds.values(), key=lambda b: (b.i, b.j)))


def square_cylinder(lx: int, ly: int, *, next_nearest: bool = True,
                    periodic_y: bool = True) -> Lattice:
    """A square-lattice cylinder (open in x, periodic in y).

    With ``next_nearest=True`` diagonal (``"nnn"``) bonds are included, which
    is what the J1-J2 Heisenberg benchmark needs (Fig. 4a is the 20x10 case).
    """
    def sid(x: int, y: int) -> int:
        return x * ly + y % ly

    coords = [(float(x), float(y)) for x in range(lx) for y in range(ly)]
    bonds: Dict[Tuple[int, int, str], Bond] = {}
    for x in range(lx):
        for y in range(ly):
            s = sid(x, y)
            # vertical neighbour (periodic around the cylinder)
            if ly > 1 and (y + 1 < ly or periodic_y):
                _add_unique(bonds, s, sid(x, y + 1), "nn")
            # horizontal neighbour
            if x + 1 < lx:
                _add_unique(bonds, s, sid(x + 1, y), "nn")
            if next_nearest and x + 1 < lx and ly > 1:
                if y + 1 < ly or periodic_y:
                    _add_unique(bonds, s, sid(x + 1, y + 1), "nnn")
                if y - 1 >= 0 or periodic_y:
                    _add_unique(bonds, s, sid(x + 1, y - 1), "nnn")
    lat = Lattice("square_cylinder", lx, ly, coords,
                  sorted(bonds.values(), key=lambda b: (b.i, b.j, b.kind)))
    return lat


def triangular_cylinder_xc(lx: int, ly: int, *, periodic_y: bool = True) -> Lattice:
    """A triangular-lattice cylinder in the XC orientation (Fig. 4b).

    The triangular lattice is realized as a square lattice with one diagonal
    per plaquette; in the XC orientation one lattice vector wraps the cylinder
    circumference.  All bonds are nearest-neighbour bonds of the triangular
    lattice and are tagged ``"nn"``.
    """
    def sid(x: int, y: int) -> int:
        return x * ly + y % ly

    coords = []
    for x in range(lx):
        for y in range(ly):
            coords.append((x + 0.5 * (y % 2), y * 0.8660254037844386))
    bonds: Dict[Tuple[int, int, str], Bond] = {}
    for x in range(lx):
        for y in range(ly):
            s = sid(x, y)
            if ly > 1 and (y + 1 < ly or periodic_y):
                _add_unique(bonds, s, sid(x, y + 1), "nn")
            if x + 1 < lx:
                _add_unique(bonds, s, sid(x + 1, y), "nn")
                # one diagonal per square plaquette makes the lattice triangular
                if ly > 1 and (y + 1 < ly or periodic_y):
                    _add_unique(bonds, s, sid(x + 1, y + 1), "nn")
    return Lattice("triangular_cylinder_xc", lx, ly, coords,
                   sorted(bonds.values(), key=lambda b: (b.i, b.j, b.kind)))
