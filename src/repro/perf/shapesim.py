"""Shape-level simulation of block-sparse contractions.

To reproduce the paper's scaling figures at bond dimensions up to
``m = 32768`` we cannot allocate the actual tensors (that is precisely the
point of the paper — they do not fit on a node).  A :class:`ShapeTensor`
carries only the quantum-number block *structure* (sector indices and block
shapes, no data); contracting two of them enumerates exactly the same block
pairs Algorithm 2 would visit and reports, per pair, the flops and operand
sizes, which the cost model then charges according to the algorithm in use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..ctf.world import SimWorld
from ..symmetry import BlockSparseTensor, Index
from ..symmetry.charges import Charge, add_charges, zero_charge
from ..symmetry.planner import ContractionPlan, PlanCache
from .flops import contraction_flops

#: shared memo for shape-level contraction plans: the scaling experiments
#: revisit the same (site-shape, axes) signatures thousands of times
_SHAPE_PLAN_CACHE = PlanCache(max_plans=512)


@dataclass
class PairStat:
    """Cost of one block-pair contraction."""

    flops: float
    size_a: int
    size_b: int
    size_c: int


class ShapeTensor:
    """A block-sparse tensor with shapes only (no data)."""

    def __init__(self, indices: Sequence[Index], flux: Charge | None = None,
                 blocks: Dict[tuple, Tuple[int, ...]] | None = None):
        self.indices = tuple(indices)
        nsym = self.indices[0].nsym
        self.flux = tuple(flux) if flux is not None else zero_charge(nsym)
        if blocks is None:
            blocks = {}
            for key in self._allowed_keys():
                blocks[key] = tuple(ix.sector_dim(s)
                                    for ix, s in zip(self.indices, key))
        self.blocks = blocks

    # -- structure ----------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of modes."""
        return len(self.indices)

    @property
    def nsym(self) -> int:
        """Number of conserved charges."""
        return self.indices[0].nsym

    def _key_charge(self, key) -> Charge:
        total = zero_charge(self.nsym)
        for ix, s in zip(self.indices, key):
            total = tuple(a + ix.flow * b
                          for a, b in zip(total, ix.sector_charge(s)))
        return total

    def _allowed_keys(self):
        for key in itertools.product(*[range(ix.nsectors) for ix in self.indices]):
            if self._key_charge(key) == self.flux:
                yield key

    @property
    def num_blocks(self) -> int:
        """Number of symmetry-allowed blocks."""
        return len(self.blocks)

    @property
    def nnz(self) -> int:
        """Stored elements (sum of block volumes)."""
        return int(sum(int(np.prod(s)) for s in self.blocks.values()))

    @property
    def dense_size(self) -> int:
        """Elements of the dense equivalent."""
        size = 1
        for ix in self.indices:
            size *= ix.dim
        return size

    @property
    def fill_fraction(self) -> float:
        """nnz / dense size."""
        ds = self.dense_size
        return self.nnz / ds if ds else 0.0

    def largest_block(self) -> int:
        """Volume of the largest block."""
        return max((int(np.prod(s)) for s in self.blocks.values()), default=0)

    @classmethod
    def from_block_tensor(cls, t: BlockSparseTensor) -> "ShapeTensor":
        """Shape skeleton of a concrete block tensor."""
        return cls(t.indices, t.flux,
                   {k: tuple(b.shape) for k, b in t.blocks.items()})

    # -- contraction ----------------------------------------------------------
    def contract(self, other: "ShapeTensor",
                 axes: tuple[Sequence[int], Sequence[int]]
                 ) -> Tuple["ShapeTensor", List[PairStat]]:
        """Enumerate block pairs and the resulting output structure."""
        axes_a = tuple(int(x) % self.ndim for x in axes[0])
        axes_b = tuple(int(x) % other.ndim for x in axes[1])
        for ia, ib in zip(axes_a, axes_b):
            if not self.indices[ia].can_contract_with(other.indices[ib]):
                raise ValueError(
                    f"index {ia} of A cannot contract with index {ib} of B")
        keep_a = [i for i in range(self.ndim) if i not in axes_a]
        keep_b = [i for i in range(other.ndim) if i not in axes_b]
        out_indices = tuple(self.indices[i] for i in keep_a) + \
            tuple(other.indices[i] for i in keep_b)
        out_flux = add_charges(self.flux, other.flux)

        b_by_contr: Dict[tuple, list] = {}
        for key_b, shape_b in other.blocks.items():
            b_by_contr.setdefault(tuple(key_b[x] for x in axes_b),
                                  []).append((key_b, shape_b))

        out_blocks: Dict[tuple, Tuple[int, ...]] = {}
        stats: List[PairStat] = []
        for key_a, shape_a in self.blocks.items():
            kc = tuple(key_a[x] for x in axes_a)
            for key_b, shape_b in b_by_contr.get(kc, []):
                key_c = tuple(key_a[i] for i in keep_a) + \
                    tuple(key_b[i] for i in keep_b)
                shape_c = tuple(shape_a[i] for i in keep_a) + \
                    tuple(shape_b[i] for i in keep_b)
                out_blocks[key_c] = shape_c
                stats.append(PairStat(
                    flops=contraction_flops(shape_a, shape_b, axes_a, axes_b),
                    size_a=int(np.prod(shape_a)),
                    size_b=int(np.prod(shape_b)),
                    size_c=int(np.prod(shape_c)) if shape_c else 1))
        out = ShapeTensor(out_indices, out_flux, out_blocks) if out_indices \
            else ShapeTensor([Index.trivial(1, self.nsym)], zero_charge(self.nsym))
        return out, stats

    def svd_group_shapes(self, row_axes: Sequence[int]) -> List[Tuple[int, int]]:
        """Matrix shapes of the per-row-charge SVD groups (block-wise SVD)."""
        row_axes = [int(x) % self.ndim for x in row_axes]
        col_axes = [x for x in range(self.ndim) if x not in row_axes]
        groups: Dict[Charge, Dict[str, dict]] = {}
        for key, shape in self.blocks.items():
            q = zero_charge(self.nsym)
            for ax in row_axes:
                ix = self.indices[ax]
                q = tuple(a + ix.flow * b
                          for a, b in zip(q, ix.sector_charge(key[ax])))
            grp = groups.setdefault(q, {"rows": {}, "cols": {}})
            rk = tuple(key[ax] for ax in row_axes)
            ck = tuple(key[ax] for ax in col_axes)
            grp["rows"][rk] = int(np.prod([shape[ax] for ax in row_axes]))
            grp["cols"][ck] = int(np.prod([shape[ax] for ax in col_axes]))
        return [(sum(g["rows"].values()), sum(g["cols"].values()))
                for g in groups.values()]


def plan_shape_contraction(a: ShapeTensor, b: ShapeTensor,
                           axes) -> ContractionPlan:
    """Compile (and memoize) the contraction plan of two shape tensors.

    :func:`repro.symmetry.planner.build_plan` only reads operand *structure*
    (indices, flux, stored block keys), all of which a data-free
    :class:`ShapeTensor` carries, so shape-level simulation can feed the very
    same plans into the plan-aware cost model that real execution would.
    """
    return _SHAPE_PLAN_CACHE.lookup(a, b, axes)


def _plan_output(plan: ContractionPlan, nsym: int) -> ShapeTensor:
    """The output ShapeTensor a plan describes (its precomputed sparsity)."""
    if not plan.out_indices:
        return ShapeTensor([Index.trivial(1, nsym)], zero_charge(nsym))
    return ShapeTensor(plan.out_indices, plan.out_flux,
                       {spec.key: spec.shape for spec in plan.out_specs})


def charge_contraction(world: SimWorld, algorithm: str, a: ShapeTensor,
                       b: ShapeTensor, axes, *,
                       plan_aware: bool = False,
                       operand_keys: Tuple[str | None, str | None] | None = None,
                       out_key: str | None = None) -> Tuple[ShapeTensor, float]:
    """Contract shape tensors and charge the cost model per algorithm.

    With ``plan_aware=True`` the ``list`` and ``sparse-sparse`` algorithms are
    priced through :meth:`SimWorld.charge_planned_contraction` from the
    compiled block-pair plan (block-aligned communication volumes) instead of
    the aggregate element counts; ``sparse-dense`` keeps its dense pricing in
    both modes, since its Davidson intermediates genuinely process the dense
    background.

    The ``sparse-sparse`` algorithm additionally pays the remapping of each
    operand onto the contraction's processor grid — aggregate nnz in the
    aggregate model, the plan's block-aligned volume in plan-aware mode —
    matching what :class:`repro.backends.sparse_sparse.SparseSparseBackend`
    charges during real execution.  In plan-aware mode the optional
    ``operand_keys``/``out_key`` layout-tracker names (see
    :mod:`repro.ctf.layout`) make those remappings sweep-persistent: a named
    operand pays only when the contraction's preferred mapping differs from
    its tracked layout, exactly as in real execution.

    Returns the output shape tensor and the total flops of the contraction.
    """
    if plan_aware and algorithm in ("list", "sparse-sparse"):
        plan = plan_shape_contraction(a, b, axes)
        operand_nnz = (a.nnz, b.nnz) if algorithm == "sparse-sparse" else None
        world.charge_planned_contraction(plan, algorithm=algorithm,
                                         operand_nnz=operand_nnz,
                                         operand_keys=operand_keys,
                                         out_key=out_key)
        return _plan_output(plan, a.nsym), plan.total_flops
    out, stats = a.contract(b, axes)
    total_flops = float(sum(s.flops for s in stats))
    if not stats:
        return out, 0.0
    if algorithm == "list":
        largest = max(s.flops for s in stats)
        share = largest / total_flops if total_flops > 0 else 1.0
        for s in stats:
            world.charge_block_contraction(s.flops, s.size_a, s.size_b,
                                           s.size_c, num_blocks=len(stats),
                                           largest_block_share=share)
    elif algorithm == "sparse-dense":
        axes_a = tuple(int(x) % a.ndim for x in axes[0])
        contracted = 1
        for ax in axes_a:
            contracted *= a.indices[ax].dim
        free_a = a.dense_size // max(contracted, 1)
        free_b = b.dense_size // max(contracted, 1)
        modelled = 2.0 * free_a * contracted * free_b
        world.charge_dense_contraction(modelled, a.dense_size, b.dense_size,
                                       out.dense_size)
        total_flops = modelled
    elif algorithm == "sparse-sparse":
        # operand remapping onto the contraction grid (aggregate volume)
        world.charge_redistribution(a.nnz)
        world.charge_redistribution(b.nnz)
        world.charge_sparse_contraction(total_flops, a.nnz, b.nnz, out.nnz)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return out, total_flops


def charge_svd(world: SimWorld, algorithm: str, t: ShapeTensor,
               row_axes: Sequence[int]) -> float:
    """Charge the block-wise SVD of a shape tensor; returns its flop count."""
    from .flops import svd_flops
    total = 0.0
    for rows, cols in t.svd_group_shapes(row_axes):
        if rows and cols:
            world.charge_svd(rows, cols)
            total += svd_flops(rows, cols)
    if algorithm in ("sparse-dense", "sparse-sparse"):
        # blocks must be extracted into a temporary list format first
        world.charge_redistribution(t.nnz)
    return total
