"""Symmetric tensor indices.

An :class:`Index` describes one mode of a block-sparse tensor: an ordered list
of charge *sectors*, the degeneracy (dimension) of each sector, and a *flow*
(+1 for an index whose charge counts positively toward the tensor's total
charge, -1 for the opposite).  Two indices can be contracted against each other
when they carry the same sectors/dimensions and opposite flows.

This is the same bookkeeping ITensor's ``QN Index`` and the paper's
"quantum number label tuples q^(l)" perform (Section II-D).
"""

from __future__ import annotations

import itertools
from typing import Sequence, Tuple

import numpy as np

from .charges import Charge, validate_charge, zero_charge


class Index:
    """A tensor mode carrying U(1)^k charge sectors.

    Parameters
    ----------
    sectors:
        Sequence of charges, one per sector.  Duplicate charges are allowed
        (they are treated as distinct sectors) but are normally merged with
        :meth:`merged`.
    dims:
        Dimension (degeneracy) of each sector.
    flow:
        +1 or -1; contraction requires opposite flows.
    tag:
        Free-form label used for debugging and pretty printing.
    """

    __slots__ = ("sectors", "dims", "flow", "tag", "_offsets")

    def __init__(self, sectors: Sequence[Sequence[int]], dims: Sequence[int],
                 flow: int = 1, tag: str = ""):
        if flow not in (1, -1):
            raise ValueError(f"flow must be +1 or -1, got {flow}")
        if len(sectors) != len(dims):
            raise ValueError("sectors and dims must have equal length")
        if len(sectors) == 0:
            raise ValueError("an Index needs at least one sector")
        nsym = len(tuple(sectors[0]))
        self.sectors: Tuple[Charge, ...] = tuple(
            validate_charge(s, nsym) for s in sectors)
        self.dims: Tuple[int, ...] = tuple(int(d) for d in dims)
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"sector dimensions must be positive: {self.dims}")
        self.flow = int(flow)
        self.tag = tag
        offs = np.zeros(len(self.dims) + 1, dtype=np.int64)
        np.cumsum(self.dims, out=offs[1:])
        self._offsets = offs

    # -- basic properties -------------------------------------------------
    @property
    def nsym(self) -> int:
        """Number of U(1) factors."""
        return len(self.sectors[0])

    @property
    def nsectors(self) -> int:
        """Number of charge sectors."""
        return len(self.sectors)

    @property
    def dim(self) -> int:
        """Total (dense) dimension: sum of sector dimensions."""
        return int(self._offsets[-1])

    def sector_dim(self, s: int) -> int:
        """Dimension of sector ``s``."""
        return self.dims[s]

    def sector_charge(self, s: int) -> Charge:
        """Charge of sector ``s``."""
        return self.sectors[s]

    def sector_slice(self, s: int) -> slice:
        """Dense slice covered by sector ``s``."""
        return slice(int(self._offsets[s]), int(self._offsets[s + 1]))

    # -- constructors ------------------------------------------------------
    @classmethod
    def trivial(cls, dim: int = 1, nsym: int = 0, flow: int = 1,
                tag: str = "") -> "Index":
        """A single-sector index carrying the zero charge."""
        return cls([zero_charge(nsym)], [dim], flow=flow, tag=tag)

    # -- transformations ---------------------------------------------------
    def dual(self) -> "Index":
        """The same index with the flow reversed (for contraction)."""
        return Index(self.sectors, self.dims, flow=-self.flow, tag=self.tag)

    def with_flow(self, flow: int) -> "Index":
        """Copy of the index with ``flow`` set explicitly."""
        return Index(self.sectors, self.dims, flow=flow, tag=self.tag)

    def with_tag(self, tag: str) -> "Index":
        """Copy of the index with a new tag."""
        return Index(self.sectors, self.dims, flow=self.flow, tag=tag)

    # -- comparison --------------------------------------------------------
    def same_space(self, other: "Index") -> bool:
        """True when sectors and dims coincide (flows may differ)."""
        return self.sectors == other.sectors and self.dims == other.dims

    def can_contract_with(self, other: "Index") -> bool:
        """True when ``self`` can be contracted against ``other``."""
        return self.same_space(other) and self.flow == -other.flow

    def __eq__(self, other) -> bool:
        if not isinstance(other, Index):
            return NotImplemented
        return (self.sectors == other.sectors and self.dims == other.dims
                and self.flow == other.flow)

    def __hash__(self) -> int:
        return hash((self.sectors, self.dims, self.flow))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        secs = ", ".join(f"{q}:{d}" for q, d in zip(self.sectors, self.dims))
        arrow = "->" if self.flow == 1 else "<-"
        tag = f" '{self.tag}'" if self.tag else ""
        return f"Index({arrow}{tag} dim={self.dim} [{secs}])"


def fuse_indices(indices: Sequence[Index], flow: int = 1,
                 tag: str = "fused") -> tuple[Index, dict]:
    """Fuse several indices into a single index.

    Returns the fused :class:`Index` (sectors merged and sorted by charge) and
    a mapping ``fusemap[(s_1, ..., s_n)] = (fused_sector_id, offset)`` giving,
    for every combination of input sector ids, the fused sector it lands in and
    the offset of its sub-block inside that fused sector.  The fused sector
    charge of a combination is ``sum_i flow_i * q_i`` expressed relative to the
    output ``flow``; i.e. fused charge ``Q`` satisfies
    ``flow * Q = sum_i flow_i * q_i``.
    """
    if not indices:
        raise ValueError("need at least one index to fuse")
    nsym = indices[0].nsym
    combos = []
    for key in itertools.product(*[range(ix.nsectors) for ix in indices]):
        q = zero_charge(nsym)
        d = 1
        for ix, s in zip(indices, key):
            q = tuple(a + ix.flow * b for a, b in zip(q, ix.sector_charge(s)))
            d *= ix.sector_dim(s)
        # express relative to output flow
        qout = tuple(flow * x for x in q)
        combos.append((key, qout, d))
    # group by fused charge, sorted for determinism
    charges = sorted({q for _, q, _ in combos})
    charge_to_id = {q: i for i, q in enumerate(charges)}
    dims = [0] * len(charges)
    fusemap: dict[tuple[int, ...], tuple[int, int]] = {}
    for key, q, d in combos:
        sid = charge_to_id[q]
        fusemap[key] = (sid, dims[sid])
        dims[sid] += d
    fused = Index(charges, dims, flow=flow, tag=tag)
    return fused, fusemap
