"""Machine models for the simulated distributed tensor framework.

The paper benchmarks on two systems (Section VI):

* **Blue Waters** — Cray XE6 nodes, dual 8-core AMD processors, 64 GB RAM,
  Gemini interconnect, Cray LibSci BLAS/ScaLAPACK.
* **Stampede2** — Intel Knights Landing nodes, 68 cores, 96 GB DDR4 + 16 GB
  MCDRAM, Omni-Path interconnect, Intel MKL.

Since this reproduction cannot run on those machines, a :class:`MachineSpec`
captures the per-node effective throughputs and network parameters that the
cost model needs.  The default numbers are calibrated so that (a) single-node
effective dense GEMM rates are in the range the paper's single-node ITensor
baseline achieves, and (b) the maximum aggregate rates are of the order the
paper reports (3.1 TFlops/s on 256 Blue Waters nodes, ~200 GFlops/s on
Stampede2 for the electron system).  Only ratios matter for the *shape* of the
scaling figures; ``make bench`` regenerates them under
``benchmarks/results/``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineSpec:
    """Per-node performance characteristics of a target machine."""

    name: str
    cores_per_node: int
    #: effective dense GEMM rate of a fully-used node (GFlop/s)
    gemm_gflops_per_node: float
    #: effective sparse kernel rate of a fully-used node (GFlop/s)
    sparse_gflops_per_node: float
    #: effective (Sca)LAPACK SVD rate of a fully-used node (GFlop/s)
    svd_gflops_per_node: float
    #: injection bandwidth per node (GB/s)
    network_bandwidth_gb_per_s: float
    #: network latency / global synchronization cost (microseconds)
    network_latency_us: float
    #: usable memory per node (GB)
    memory_per_node_gb: float
    #: efficiency loss factor applied per factor-of-two increase in node count
    #: (captures mapping overheads the paper attributes to "CTF transposition")
    transpose_overhead: float = 0.10

    def gemm_seconds(self, flops: float, nodes: int,
                     parallel_efficiency: float = 1.0) -> float:
        """Seconds to execute ``flops`` floating-point operations of dense
        GEMM work on ``nodes`` nodes at the given parallel efficiency
        (fraction of the aggregate peak rate, 0..1]."""
        rate = self.gemm_gflops_per_node * 1e9 * nodes * parallel_efficiency
        return flops / rate if rate > 0 else 0.0

    def sparse_seconds(self, flops: float, nodes: int,
                       parallel_efficiency: float = 1.0) -> float:
        """Seconds to execute ``flops`` floating-point operations of sparse
        kernel work on ``nodes`` nodes at the given parallel efficiency."""
        rate = self.sparse_gflops_per_node * 1e9 * nodes * parallel_efficiency
        return flops / rate if rate > 0 else 0.0

    def svd_seconds(self, flops: float, nodes: int,
                    parallel_efficiency: float = 0.5) -> float:
        """Seconds for ``flops`` of distributed SVD work (ScaLAPACK
        ``pdgesvd`` model)."""
        rate = self.svd_gflops_per_node * 1e9 * nodes * parallel_efficiency
        return flops / rate if rate > 0 else 0.0

    def comm_seconds(self, words: float, nodes: int, supersteps: float = 1.0,
                     word_bytes: int = 8, procs_per_node: int = 1) -> float:
        """Seconds to move ``words`` words of ``word_bytes`` bytes (per-rank
        critical path) plus ``supersteps`` global synchronizations.

        Every rank on a node shares the node's injection bandwidth, so the
        per-node transfer time is ``procs_per_node * words * word_bytes``
        divided by the node bandwidth, plus one latency per superstep.
        """
        bw = self.network_bandwidth_gb_per_s * 1e9
        return (words * word_bytes * max(procs_per_node, 1)) / bw + \
            supersteps * self.network_latency_us * 1e-6

    def memory_bytes_per_node(self) -> float:
        """Usable memory per node in bytes."""
        return self.memory_per_node_gb * 1e9


#: Cray XE6 (Blue Waters) — modest per-node throughput, Gemini interconnect.
BLUE_WATERS = MachineSpec(
    name="Blue Waters (Cray XE6)",
    cores_per_node=16,
    gemm_gflops_per_node=14.0,
    sparse_gflops_per_node=4.0,
    svd_gflops_per_node=7.0,
    network_bandwidth_gb_per_s=9.6,
    network_latency_us=1.5,
    memory_per_node_gb=64.0,
    transpose_overhead=0.08,
)

#: Intel KNL (Stampede2) — high per-node throughput, Omni-Path interconnect.
STAMPEDE2 = MachineSpec(
    name="Stampede2 (Intel KNL)",
    cores_per_node=68,
    gemm_gflops_per_node=90.0,
    sparse_gflops_per_node=40.0,
    svd_gflops_per_node=30.0,
    network_bandwidth_gb_per_s=12.5,
    network_latency_us=1.0,
    memory_per_node_gb=96.0,
    transpose_overhead=0.14,
)

#: A generic laptop-class machine used for the real (non-modelled) runs.
LAPTOP = MachineSpec(
    name="Single workstation",
    cores_per_node=8,
    gemm_gflops_per_node=80.0,
    sparse_gflops_per_node=8.0,
    svd_gflops_per_node=30.0,
    network_bandwidth_gb_per_s=16.0,
    network_latency_us=0.5,
    memory_per_node_gb=32.0,
)

MACHINES = {"blue-waters": BLUE_WATERS, "stampede2": STAMPEDE2, "laptop": LAPTOP}
