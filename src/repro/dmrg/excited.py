"""Excited-state DMRG via penalty projection against previously found states.

Once the ground state ``|psi_0>`` is known, the next eigenstate in the same
quantum-number sector is obtained by minimizing the energy of

    H' = H + w * sum_k |psi_k><psi_k|

over MPS orthogonal (in effect) to the earlier states: the penalty weight ``w``
pushes any component along ``|psi_k>`` up by ``w``, so for ``w`` larger than
the gap the minimizer of ``H'`` is the first state not in the penalized set.
The projector is never formed; during each two-site optimization the earlier
states are projected onto the current two-site tangent space through cached
overlap environments (the same trick the effective Hamiltonian uses for
``H`` itself), so the extra cost per matvec is ``O(m^2 d^2)`` per penalized
state.

This mirrors how ITensor and other DMRG codes compute excitation gaps for the
models the paper benchmarks (e.g. the spin-liquid candidates of refs. [19-22],
whose identification hinges on gaps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..backends.base import ContractionBackend
from ..mps.mpo import MPO
from ..mps.mps import MPS
from ..symmetry import BlockSparseTensor
from ..symmetry.charges import zero_charge
from .config import DMRGConfig, DMRGResult, Sweeps
from .davidson import DavidsonResult
from .environments import CenterCache
from .sweep import EffectiveHamiltonian, TwoSiteUpdate, run_sweeps


class OverlapEnvironmentCache(CenterCache):
    """Cached ``<psi| . |phi>`` overlap environments for the penalty projector.

    ``left(j)`` contracts the conjugated tensors of ``psi`` (the state being
    optimized) with the tensors of ``phi`` (a previously found state) over all
    sites ``< j``; ``right(j)`` over all sites ``> j``.  Legs:

    * ``left(j)``  : ``(psi bond j, phi bond j)``
    * ``right(j)`` : ``(psi bond j+1, phi bond j+1)``

    where the psi leg lives in the same space (and carries the same flow) as
    the corresponding leg of psi's own site tensors, so projected tensors can
    be combined directly with the Davidson vectors.
    """

    def __init__(self, psi: MPS, phi: MPS):
        if len(psi) != len(phi):
            raise ValueError("states have different lengths")
        self.phi = phi
        nsym = psi.tensors[0].nsym

        def edge(a, b) -> BlockSparseTensor:
            return BlockSparseTensor(
                (a, b.dual()), {(0, 0): np.ones((a.dim, b.dim))},
                flux=zero_charge(nsym), check=False)

        super().__init__(
            psi,
            edge(psi.tensors[0].indices[0], phi.tensors[0].indices[0]),
            edge(psi.tensors[-1].indices[2], phi.tensors[-1].indices[2]))

    def _extend_left(self, j: int) -> BlockSparseTensor:
        a = self.state.tensors[j - 1]
        b = self.phi.tensors[j - 1]
        t = self.left(j - 1).contract(b, axes=([1], [0]))   # (psi_l, p, phi_r)
        return a.conj().contract(t, axes=([0, 1], [0, 1]))

    def _extend_right(self, j: int) -> BlockSparseTensor:
        a = self.state.tensors[j + 1]
        b = self.phi.tensors[j + 1]
        t = self.right(j + 1).contract(b, axes=([1], [2]))  # (psi_r, phi_l, p)
        return a.conj().contract(t, axes=([2, 1], [0, 2]))

    def projected_two_site(self, j: int) -> BlockSparseTensor:
        """Project ``phi`` onto the two-site tangent space of ``psi`` at bond ``j``."""
        theta = self.phi.tensors[j].contract(self.phi.tensors[j + 1],
                                             axes=([2], [0]))
        t = self.left(j).contract(theta, axes=([1], [0]))     # (psi_l, p1, p2, phi_r)
        t = t.contract(self.right(j + 1), axes=([3], [1]))    # (psi_l, p1, p2, psi_r)
        return t


@dataclass
class PenalizedHamiltonian:
    """``H_eff + w * sum_k |p_k><p_k|`` applied to a two-site tensor."""

    base: EffectiveHamiltonian
    projections: Sequence[BlockSparseTensor]
    weight: float

    @property
    def backend(self) -> ContractionBackend:
        """The wrapped Hamiltonian's backend (for cost-model discovery)."""
        return self.base.backend

    def apply(self, x: BlockSparseTensor) -> BlockSparseTensor:
        out = self.base.apply(x)
        for p in self.projections:
            coeff = p.inner(x)
            if coeff != 0.0:
                out = out + p * (self.weight * coeff)
        return out

    def __call__(self, x: BlockSparseTensor) -> BlockSparseTensor:
        return self.apply(x)


class PenaltyUpdate(TwoSiteUpdate):
    """Two-site update of ``H + weight * sum_k |phi_k><phi_k|``."""

    engine = "excited"
    normalize = True

    def __init__(self, previous: Sequence[MPS], weight: float):
        self.previous = previous
        self.weight = weight
        self.overlaps: List[OverlapEnvironmentCache] = []

    def companion_caches(self, psi: MPS) -> List[CenterCache]:
        # built here because they must follow the engine's working copy
        self.overlaps = [OverlapEnvironmentCache(psi, phi)
                         for phi in self.previous]
        return list(self.overlaps)

    def wrap(self, heff: EffectiveHamiltonian) -> PenalizedHamiltonian:
        projections = [oc.projected_two_site(heff.site)
                       for oc in self.overlaps]
        return PenalizedHamiltonian(heff, projections, self.weight)

    def energy(self, heff: EffectiveHamiltonian,
               dav: DavidsonResult) -> float:
        # report the bare energy of H, not of the penalized operator
        x = dav.eigenvector
        return float(np.real(x.inner(heff.apply(x))))


def excited_dmrg(operator: MPO, psi0: MPS, previous: Sequence[MPS],
                 config: DMRGConfig, *, weight: float = 20.0,
                 backend: Optional[ContractionBackend] = None,
                 rng: np.random.Generator | None = None
                 ) -> tuple[DMRGResult, MPS]:
    """Two-site DMRG for the lowest state orthogonal to ``previous``.

    ``weight`` must exceed the energy separation between the targeted state
    and the states in ``previous`` (the usual rule of thumb is a multiple of
    the expected gap).  With ``previous`` empty this reduces exactly to the
    standard ground-state sweep.
    """
    rng = rng if rng is not None else np.random.default_rng(4242)
    return run_sweeps(PenaltyUpdate(previous, weight), operator, psi0,
                      config, backend, rng)


def find_lowest_states(operator: MPO, psi0: MPS, nstates: int, *,
                       config: Optional[DMRGConfig] = None,
                       maxdim: int = 64, nsweeps: int = 8,
                       cutoff: float = 1e-12, weight: float = 20.0,
                       backend: Optional[ContractionBackend] = None,
                       rng: np.random.Generator | None = None
                       ) -> List[tuple[float, MPS]]:
    """Compute the ``nstates`` lowest eigenstates in ``psi0``'s charge sector.

    The first state is the ordinary DMRG ground state; each subsequent state
    penalizes every state found so far.  Returns ``(energy, MPS)`` pairs in
    ascending energy order.  Every state is swept with ``config``; without
    one, ``maxdim``/``nsweeps``/``cutoff`` describe a doubling schedule.
    ``rng`` seeds the Davidson randomization of every state's sweep (``repro
    run --seed`` threads one generator through the whole run so registry ids
    are reproducible end to end).
    """
    if nstates < 1:
        raise ValueError("need at least one state")
    if config is None:
        config = DMRGConfig(sweeps=Sweeps.ramp(maxdim, nsweeps, cutoff=cutoff))
    found: List[tuple[float, MPS]] = []
    for _ in range(nstates):
        result, psi = excited_dmrg(operator, psi0, [s for _, s in found],
                                   config, weight=weight, backend=backend,
                                   rng=rng)
        found.append((result.energy, psi))
    found.sort(key=lambda pair: pair[0])
    return found
