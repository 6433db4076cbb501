"""repro — Distributed-memory DMRG via sparse and dense parallel tensor contractions.

A from-scratch Python reproduction of Levy, Solomonik & Clark (SC 2020).  The
package provides:

* ``repro.symmetry`` — U(1)^k block-sparse tensor algebra (Algorithm 2, block
  SVD/QR, fuse/split of tensor modes)
* ``repro.ctf``      — a simulated Cyclops-like distributed tensor framework with
  a BSP communication/cost model, per-category profiler, interconnect
  topologies, collective cost models, SUMMA mapping selection and memory tracking
* ``repro.backends`` — the paper's three contraction algorithms
  (``list``, ``sparse-dense``, ``sparse-sparse``)
* ``repro.mps``      — MPS/MPO machinery, site sets and AutoMPO
* ``repro.models``   — lattices and Hamiltonians (J1-J2 Heisenberg, triangular
  Hubbard, Table-I comparison models) and a name-based registry
* ``repro.dmrg``     — the two-site DMRG engine with Davidson (Algorithm 1),
  single-site DMRG with subspace expansion, excited states, observables and
  checkpointing
* ``repro.baseline`` — the single-node "ITensor-like" reference and the
  real-space block-parallel comparison algorithm
* ``repro.ed``       — exact diagonalization used for validation
* ``repro.perf``     — flop counting, block-structure and complexity models, and
  the scaling harness that regenerates every figure and table of the paper
* ``repro.exp``      — experiment orchestration: declarative scenario specs and
  grids with content-hash run ids, the parallel sweep scheduler, and the
  append-only run registry under ``benchmarks/results/history/``
* ``repro.cli``      — the ``python -m repro`` command-line runner
"""

__version__ = "1.1.0"

from . import symmetry  # noqa: F401  (re-exported subpackages)

__all__ = ["symmetry", "__version__"]
