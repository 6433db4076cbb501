"""Empirical and structural models of the MPS quantum-number block structure.

Two complementary models are provided:

* :class:`GeometricBlockModel` — the paper's own empirical model (Table II
  caption): the ℓ-th block of a bond has auxiliary dimension
  ``b_ℓ = floor((m / q) * r^ℓ)`` with fitted parameters ``(q, r) = (4, 0.6)``
  for the spin system and ``(10, 0.65)`` for the electron system.
* :class:`MeasuredBlockStructure` — the block statistics Fig. 2 measures on
  a site tensor with given bond indices (for instance the exact fusion
  structure :func:`repro.mps.mps.bond_structure` computes); the geometric
  model is a smooth fit to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..symmetry import Index


@dataclass(frozen=True)
class GeometricBlockModel:
    """The paper's geometric block-size model ``b_l = floor((m/q) r^l)``."""

    q: float
    r: float
    name: str = ""

    @classmethod
    def spins(cls) -> "GeometricBlockModel":
        """Parameters the paper fits for the J1-J2 Heisenberg system."""
        return cls(q=4.0, r=0.6, name="spins")

    @classmethod
    def electrons(cls) -> "GeometricBlockModel":
        """Parameters the paper fits for the triangular Hubbard system."""
        return cls(q=10.0, r=0.65, name="electrons")

    def block_dims(self, m: int) -> List[int]:
        """Bond-sector dimensions ``b_l`` at total bond dimension ``m``."""
        dims = []
        l = 0
        while True:
            b = int(np.floor((m / self.q) * self.r ** l))
            if b < 1:
                break
            dims.append(b)
            l += 1
        return dims if dims else [1]

    def bond_index(self, m: int, flow: int = 1, tag: str = "bond") -> Index:
        """A symmetric :class:`Index` realizing the model's block structure.

        Sector ``l`` carries charge ``(l,)`` and dimension ``b_l``; two such
        indices (with opposite flows) pair exactly one block per sector, the
        block-diagonal structure the paper's bond tensors exhibit.  This is
        what lets the plan-aware cost model (:mod:`repro.ctf.plan_cost`)
        price geometric-model tensors without building real MPS bonds.
        """
        dims = self.block_dims(m)
        return Index([(l,) for l in range(len(dims))], dims, flow=flow,
                     tag=tag)

    @classmethod
    def fit(cls, block_dims: List[int], name: str = "fit") -> "GeometricBlockModel":
        """Fit ``(q, r)`` to a measured, descending list of sector dimensions."""
        dims = np.asarray(sorted(block_dims, reverse=True), dtype=float)
        dims = dims[dims >= 1]
        if dims.size < 2:
            return cls(q=max(1.0, float(sum(block_dims)) / max(dims[0], 1.0)),
                       r=0.5, name=name)
        m = float(dims.sum())
        ell = np.arange(dims.size)
        # log b_l = log(m/q) + l log r  -> linear least squares
        coeffs = np.polyfit(ell, np.log(dims), 1)
        r = float(np.exp(coeffs[0]))
        q = float(m / np.exp(coeffs[1]))
        return cls(q=q, r=min(max(r, 1e-3), 0.999), name=name)


@dataclass
class MeasuredBlockStructure:
    """Block statistics of a representative MPS site tensor (Fig. 2 quantities)."""

    bond_dimension: int
    num_blocks: int
    largest_block: int
    fill_fraction: float

    @classmethod
    def from_bond(cls, left: Index, phys: Index, right: Index
                  ) -> "MeasuredBlockStructure":
        """Compute the statistics for a site tensor with the given indices."""
        from ..symmetry import BlockSparseTensor
        probe = BlockSparseTensor.zeros(
            (left.with_flow(1), phys.with_flow(1), right.with_flow(-1)),
            fill_allowed=False)
        num, largest, stored = 0, 0, 0
        for key in probe.allowed_keys():
            shape = probe.block_shape(key)
            size = int(np.prod(shape))
            num += 1
            largest = max(largest, size)
            stored += size
        dense = left.dim * phys.dim * right.dim
        return cls(bond_dimension=min(left.dim, right.dim), num_blocks=num,
                   largest_block=largest,
                   fill_fraction=stored / dense if dense else 0.0)
