"""Abelian (U(1)^k) charge arithmetic.

A *charge* is a tuple of ``k`` integers, one entry per conserved U(1) quantum
number.  For the spin system of the paper there is a single conserved quantity
(twice the total magnetization, ``2*Sz``), for the electron system there are
two (particle number ``N`` and ``2*Sz``), matching Section II-D and Section V.

Charges of a single tensor must all have the same length; the trivial
(symmetry-free, "dense") case is represented by ``k = 0`` charges, i.e. the
empty tuple, which makes the block-sparse machinery degenerate gracefully to a
single dense block.
"""

from __future__ import annotations

from typing import Sequence, Tuple

Charge = Tuple[int, ...]


def zero_charge(nsym: int) -> Charge:
    """The identity element of U(1)^nsym."""
    return (0,) * nsym


def add_charges(a: Charge, b: Charge) -> Charge:
    """Component-wise addition of two charges (group product)."""
    if len(a) != len(b):
        raise ValueError(f"charge ranks differ: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def negate_charge(a: Charge) -> Charge:
    """Group inverse of a charge."""
    return tuple(-x for x in a)


def validate_charge(charge: Sequence[int], nsym: int) -> Charge:
    """Coerce ``charge`` to a tuple and check its rank."""
    c = tuple(int(x) for x in charge)
    if len(c) != nsym:
        raise ValueError(f"expected charge of rank {nsym}, got {c!r}")
    return c
