"""Memory sizing of the simulated distributed runs.

Memory is the resource that motivates the whole paper: single-node DMRG "is
limited in accuracy by the available RAM on a machine", bond dimensions
"saturated around m ~ 10 000 and are quickly being limited by the RAM required
to store the necessary tensors", and the electron benchmark needs a minimum of
4 Stampede2 nodes (2 Blue Waters nodes) before the sparse format even fits
(Section VI-B).  :func:`dmrg_step_footprint_bytes` is the Table II footprint
of one step and :func:`minimum_nodes` the smallest node count it fits on,
raising :class:`OutOfMemoryError` when no count does.  The scaling harness
checks feasibility with :meth:`repro.ctf.world.SimWorld.fits_in_memory`.
"""

from __future__ import annotations

from .machine import MachineSpec


class OutOfMemoryError(RuntimeError):
    """Raised when a footprint exceeds the modelled per-node memory."""


def minimum_nodes(total_bytes: float, machine: MachineSpec, *,
                  headroom: float = 0.9, replicated_bytes: float = 0.0,
                  max_nodes: int = 1 << 20) -> int:
    """Smallest node count on which a distributed footprint fits.

    ``replicated_bytes`` counts data every node must hold in full (e.g. the
    MPO tensors and index metadata); the rest is spread evenly.  This is the
    quantity behind the paper's observation that the sparse electron format
    needs at least 4 Stampede2 nodes / 2 Blue Waters nodes at large ``m``.
    """
    budget = machine.memory_bytes_per_node() * headroom
    if replicated_bytes > budget:
        raise OutOfMemoryError(
            f"replicated data ({replicated_bytes / 1e9:.2f} GB) exceeds a "
            f"single node of {machine.name}")
    usable = budget - replicated_bytes
    if usable <= 0:
        raise OutOfMemoryError("no memory left after replicated data")
    nodes = max(int(-(-total_bytes // usable)), 1)   # ceil division
    if nodes > max_nodes:
        raise OutOfMemoryError(
            f"footprint of {total_bytes / 1e9:.1f} GB does not fit on "
            f"{max_nodes} nodes of {machine.name}")
    return nodes


def dmrg_step_footprint_bytes(m: int, k: int, d: int, *, nsites: int,
                              algorithm: str = "list", q: float = 4.0,
                              itemsize: int = 8) -> float:
    """Memory footprint of one DMRG optimization step (Table II model).

    ``m`` is the MPS bond dimension, ``k`` the MPO bond dimension, ``d`` the
    physical dimension and ``q`` the paper's effective-block-count parameter.
    The footprint covers the Davidson intermediates plus the stored
    environments (``O(N (m/q)^2 k)``); the ``sparse-dense`` algorithm stores
    dense Davidson intermediates (no ``1/q^2`` saving).
    """
    if algorithm not in ("list", "sparse-sparse", "sparse-dense"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    meff = m / q if algorithm in ("list", "sparse-sparse") else float(m)
    davidson = meff * meff * k * d * d
    environments = nsites * (m / q) * (m / q) * k
    return (davidson + environments) * itemsize
