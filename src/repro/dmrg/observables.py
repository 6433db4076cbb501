"""Measurement of observables on matrix product states.

After DMRG converges, physics is extracted from the optimized MPS: local
expectation values (magnetization / density profiles), two-point correlation
functions (with Jordan-Wigner strings for fermionic operators), entanglement
entropies across every bond, and the energy variance ``<H^2> - <H>^2`` that
quantifies how close the state is to a true eigenstate.  These are the
quantities the physics studies cited by the paper (refs. [19]-[22]) report;
the benchmark harness itself only needs timings, but a usable DMRG library
needs the measurement layer.

All routines work on the block-sparse representation directly, so they respect
the same U(1) structure as the DMRG engine and cost ``O(N m^3 d)`` per
measurement (``O(N^2)`` transfer steps for a full correlation matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from ..mps.mpo import MPO
from ..mps.mps import MPS, overlap
from ..mps.opsum import OpFactor, OpSum, Term, normalize_term
from ..mps.sites import Site
from ..symmetry import BlockSparseTensor, svd
from ..symmetry.reshape import fuse_modes


# --------------------------------------------------------------------------- #
# building blocks
# --------------------------------------------------------------------------- #
def _op_tensor(site: Site, opname: str) -> BlockSparseTensor:
    """A named local operator as an order-2 block tensor (p_out, p_in)."""
    phys = site.physical_index(flow=1)
    mat = np.asarray(site.op(opname))
    return BlockSparseTensor.from_dense(mat, (phys, phys.dual()),
                                        flux=site.op_charge(opname),
                                        require_symmetric=True)


def _apply_local_op(tensor: BlockSparseTensor, site: Site,
                    opname: str) -> BlockSparseTensor:
    """Apply a local operator to the physical leg of an MPS site tensor."""
    op_t = _op_tensor(site, opname)
    tmp = op_t.contract(tensor, axes=([1], [1]))     # (p_out, l, r)
    return tmp.transpose([1, 0, 2])                   # (l, p_out, r)


def _transfer_value(psi: MPS, ops: Dict[int, str]) -> complex:
    """``<psi| prod_j O_j |psi>`` with ``O_j = Id`` wherever not specified.

    The contraction walks the chain once, inserting the requested operators on
    the ket layer.  The value is *not* normalized by ``<psi|psi>``.
    """
    n = len(psi)
    env = None
    for j in range(n):
        a = psi.tensors[j]
        ket = _apply_local_op(a, psi.sites[j], ops[j]) if j in ops else a
        if env is None:
            env = a.conj().contract(ket, axes=([0, 1], [0, 1]))
        else:
            env = env.contract(ket, axes=([1], [0]))              # (bra_r, p, ket_r)
            env = a.conj().contract(env, axes=([0, 1], [0, 1]))   # (bra_r', ket_r')
    if isinstance(env, BlockSparseTensor):
        dense = env.to_dense()
        val = dense.reshape(-1)[0] if dense.size else 0.0
    else:  # fully contracted scalar
        val = env
    return complex(val)


# --------------------------------------------------------------------------- #
# local expectation values
# --------------------------------------------------------------------------- #
def local_expectation(psi: MPS, opname: str, j: int,
                      normalized: bool = True) -> complex:
    """``<psi| O_j |psi>`` of a named local operator at site ``j``."""
    val = _transfer_value(psi, {j: opname})
    if normalized:
        val /= overlap(psi, psi)
    return val


def expectation_profile(psi: MPS, opname: str,
                        sites: Sequence[int] | None = None) -> np.ndarray:
    """Expectation value of a local operator on every requested site.

    Typical uses: ``expectation_profile(psi, "Sz")`` (magnetization profile of
    the spin system) and ``expectation_profile(psi, "Ntot")`` (density profile
    of the electron system).
    """
    targets = list(range(len(psi))) if sites is None else list(sites)
    den = overlap(psi, psi)
    vals = [_transfer_value(psi, {j: opname}) / den for j in targets]
    arr = np.array(vals)
    return arr.real if np.allclose(arr.imag, 0.0, atol=1e-12) else arr


# --------------------------------------------------------------------------- #
# operator strings and correlation functions
# --------------------------------------------------------------------------- #
def expect_term(psi: MPS, term: Term, normalized: bool = True) -> complex:
    """Expectation value of a single (possibly fermionic) operator string."""
    norm_term = normalize_term(term, psi.sites)
    ops: Dict[int, str] = dict(norm_term.site_ops)
    for s in norm_term.jw_sites:
        ops[s] = f"F*{ops[s]}" if s in ops else "F"
    val = norm_term.coefficient * _transfer_value(psi, ops)
    if normalized:
        val /= overlap(psi, psi)
    return val


def expect_opsum(psi: MPS, opsum: OpSum, normalized: bool = True) -> complex:  # repro-lint: ok(test-only): observables are library surface for measuring a converged state
    """Expectation value of an operator sum, term by term.

    This is an ``O(N_terms * N)`` cross-check of the MPO expectation value;
    used in tests to validate the AutoMPO construction.
    """
    den = overlap(psi, psi) if normalized else 1.0
    total = 0.0 + 0.0j
    for term in opsum:
        total += expect_term(psi, term, normalized=False)
    return total / den


def correlation(psi: MPS, op1: str, i: int, op2: str, j: int,
                normalized: bool = True) -> complex:
    """The two-point correlator ``<psi| O1_i O2_j |psi>``.

    Fermionic operators (e.g. ``Cdagup`` / ``Cup``) automatically pick up the
    Jordan-Wigner string between the two sites and the correct reordering
    sign for ``i > j``; same-site pairs are merged into a composite operator.
    """
    return expect_term(psi, Term(1.0, (OpFactor(op1, i), OpFactor(op2, j))),
                       normalized=normalized)


def correlation_matrix(psi: MPS, op1: str, op2: str,  # repro-lint: ok(test-only): observables are library surface for measuring a converged state
                       sites: Sequence[int] | None = None) -> np.ndarray:
    """The full matrix ``C[a, b] = <O1_{s_a} O2_{s_b}>`` over selected sites.

    Examples: ``correlation_matrix(psi, "Sz", "Sz")`` (spin structure factor
    input), ``correlation_matrix(psi, "Cdagup", "Cup")`` (single-particle
    density matrix of the Hubbard system).
    """
    targets = list(range(len(psi))) if sites is None else list(sites)
    den = overlap(psi, psi)
    n = len(targets)
    out = np.zeros((n, n), dtype=complex)
    for a, i in enumerate(targets):
        for b, j in enumerate(targets):
            out[a, b] = expect_term(
                psi, Term(1.0, (OpFactor(op1, i), OpFactor(op2, j))),
                normalized=False) / den
    return out.real if np.allclose(out.imag, 0.0, atol=1e-12) else out


def connected_correlation(psi: MPS, op1: str, i: int, op2: str, j: int  # repro-lint: ok(test-only): observables are library surface for measuring a converged state
                          ) -> complex:
    """The connected correlator ``<O1_i O2_j> - <O1_i><O2_j>``."""
    return (correlation(psi, op1, i, op2, j)
            - local_expectation(psi, op1, i) * local_expectation(psi, op2, j))


# --------------------------------------------------------------------------- #
# entanglement
# --------------------------------------------------------------------------- #
def bond_spectrum(psi: MPS, bond: int) -> np.ndarray:
    """The Schmidt (singular-value) spectrum across bond ``bond``.

    The returned values are normalized so their squares sum to one and sorted
    in decreasing order.
    """
    work = psi.copy()
    work.canonicalize(bond)
    work.normalize()
    _, spec, _, _ = svd(work.tensors[bond], row_axes=[0, 1], col_axes=[2])
    vals = np.sort(spec.all_values())[::-1]
    nrm = np.sqrt((vals ** 2).sum())
    return vals / nrm if nrm > 0 else vals


def entanglement_profile(psi: MPS) -> np.ndarray:
    """Von Neumann entanglement entropy across every internal bond."""
    return np.array([psi.entanglement_entropy(b) for b in range(len(psi) - 1)])


def renyi_entropy(psi: MPS, bond: int, alpha: float = 2.0) -> float:  # repro-lint: ok(test-only): observables are library surface for measuring a converged state
    """The Renyi-``alpha`` entanglement entropy across a bond."""
    if alpha <= 0:
        raise ValueError("Renyi index must be positive")
    p = bond_spectrum(psi, bond) ** 2
    p = p[p > 1e-300]
    if abs(alpha - 1.0) < 1e-12:
        return float(-(p * np.log(p)).sum())
    return float(np.log((p ** alpha).sum()) / (1.0 - alpha))


# --------------------------------------------------------------------------- #
# energy variance
# --------------------------------------------------------------------------- #
def apply_mpo(operator: MPO, psi: MPS) -> MPS:
    """The MPS representing ``H|psi>`` exactly.

    Each site contracts the MPO tensor with the MPS tensor over the physical
    index and the (MPO bond, MPS bond) pairs are fused into single bonds, so
    the result has bond dimension ``k*m`` (Section II-B of the paper: "the
    product of an MPO and an MPS H|Ψ⟩ can be represented exactly as an MPS
    with bond dimension kd").
    """
    if len(operator) != len(psi):
        raise ValueError("operator and state have different lengths")
    tensors = []
    for j in range(len(psi)):
        w = operator.tensors[j]          # (wl, p_out, p_in, wr)
        a = psi.tensors[j]               # (l, p, r)
        t = w.contract(a, axes=([2], [1]))         # (wl, p_out, wr, l, r)
        t = t.transpose([0, 3, 1, 2, 4])           # (wl, l, p_out, wr, r)
        fused, _ = fuse_modes(t, [[0, 1], [2], [3, 4]], flows=[1, 1, -1],
                              tags=[f"l{j}", "phys", f"l{j + 1}"])
        tensors.append(fused)
    return MPS(psi.sites, tensors, center=None)


def energy_and_variance(psi: MPS, operator: MPO) -> tuple[float, float]:
    """``(<H>, <H^2> - <H>^2)`` for a normalized state.

    The variance is computed from the exact (uncompressed) MPO-MPS product, so
    it is exact up to floating point; it is the standard certificate of how
    well the MPS approximates a true eigenstate.
    """
    hpsi = apply_mpo(operator, psi)
    den = abs(overlap(psi, psi))
    energy = float(np.real(overlap(psi, hpsi)) / den)
    h2 = float(abs(overlap(hpsi, hpsi)) / den)
    return energy, max(h2 - energy ** 2, 0.0)


def energy_variance(psi: MPS, operator: MPO) -> float:
    """``<H^2> - <H>^2``; see :func:`energy_and_variance`."""
    return energy_and_variance(psi, operator)[1]


# --------------------------------------------------------------------------- #
# one-shot measurement report
# --------------------------------------------------------------------------- #
@dataclass
class MeasurementReport:
    """Bundle of standard post-DMRG measurements."""

    energy: float
    variance: float
    max_bond_dimension: int
    entanglement: np.ndarray
    profiles: Dict[str, np.ndarray] = field(default_factory=dict)

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"energy            : {self.energy:+.10f}",
            f"energy variance   : {self.variance:.3e}",
            f"max bond dimension: {self.max_bond_dimension}",
            f"max entanglement  : {float(self.entanglement.max()):.6f}"
            if self.entanglement.size else "max entanglement  : n/a",
        ]
        for name, prof in self.profiles.items():
            lines.append(f"<{name}> profile    : "
                         + " ".join(f"{v:+.4f}" for v in np.real(prof)))
        return "\n".join(lines)


def measure(psi: MPS, operator: MPO,
            profile_ops: Sequence[str] = ()) -> MeasurementReport:
    """Run the standard measurement suite on an optimized state."""
    energy, variance = energy_and_variance(psi, operator)
    profiles = {name: expectation_profile(psi, name) for name in profile_ops}
    return MeasurementReport(
        energy=energy,
        variance=variance,
        max_bond_dimension=psi.max_bond_dimension(),
        entanglement=entanglement_profile(psi),
        profiles=profiles,
    )
