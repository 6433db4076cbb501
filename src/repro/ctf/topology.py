"""Interconnect topology models for the simulated machines.

The two machines the paper benchmarks differ not only in per-node throughput
but in their networks: Blue Waters uses Cray's **Gemini** interconnect, a 3D
torus, while Stampede2 uses Intel **Omni-Path**, a fat-tree.  The paper's
Fig. 7 and Fig. 11 attribute part of the algorithms' machine dependence to
communication behaviour ("at the same node count Blue Waters has increased
communication cost while Stampede2 has increased transposition costs"), so the
cost model benefits from a topology layer that knows how hop counts, bisection
bandwidth, and all-to-all congestion scale with the node count on each
network.

The classes here are intentionally analytic (no packet simulation): they
expose exactly the quantities the collective models in
:mod:`repro.ctf.collectives` and the contraction mapper in
:mod:`repro.ctf.mapping` consume.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Tuple


def _factor_into_3d(n: int) -> Tuple[int, int, int]:
    """Factor ``n`` into three extents as close to cubic as possible."""
    if n < 1:
        raise ValueError("node count must be positive")
    best = (n, 1, 1)
    best_score = float("inf")
    for a in range(1, int(round(n ** (1.0 / 3.0))) + 2):
        if n % a:
            continue
        rest = n // a
        for b in range(a, int(math.isqrt(rest)) + 1):
            if rest % b:
                continue
            c = rest // b
            dims = tuple(sorted((a, b, c)))
            score = max(dims) / min(dims)
            if score < best_score:
                best, best_score = dims, score
    return tuple(sorted(best))  # type: ignore[return-value]


class Topology(ABC):
    """Abstract interconnect: hop counts, bisection, and congestion."""

    #: number of nodes attached to the network
    nodes: int
    #: bandwidth of a single link in GB/s
    link_bandwidth_gb_s: float
    #: per-hop latency in microseconds
    hop_latency_us: float

    @abstractmethod
    def average_hops(self) -> float:
        """Mean hop count between two uniformly random nodes."""

    @abstractmethod
    def bisection_links(self) -> int:
        """Number of links crossing a balanced bisection of the machine."""

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    def bisection_bandwidth_gb_s(self) -> float:
        """Aggregate bandwidth across a balanced bisection (GB/s)."""
        return self.bisection_links() * self.link_bandwidth_gb_s

    def point_to_point_latency_us(self) -> float:
        """Average end-to-end message latency (hops x per-hop latency)."""
        return self.average_hops() * self.hop_latency_us

    def alltoall_congestion(self) -> float:
        """Slowdown factor of a full all-to-all relative to nearest-neighbour.

        When every node sends to every other node, the traffic crossing the
        bisection is ``nodes^2 / 4`` flows sharing ``bisection_links`` links;
        the congestion factor normalizes that to 1.0 for a full-bisection
        network.
        """
        if self.nodes <= 1:
            return 1.0
        flows = self.nodes * self.nodes / 4.0
        per_link = flows / max(self.bisection_links(), 1)
        # a full-bisection network carries nodes/2 flows per "unit" of
        # bisection; normalize so that it gets congestion 1.0
        return max(per_link / (self.nodes / 2.0), 1.0)

    def effective_bandwidth_gb_s(self, pattern: str = "nearest") -> float:
        """Per-node bandwidth seen under a named traffic pattern."""
        if pattern == "nearest":
            return self.link_bandwidth_gb_s
        if pattern == "alltoall":
            return self.link_bandwidth_gb_s / self.alltoall_congestion()
        if pattern == "bisection":
            return 2.0 * self.bisection_bandwidth_gb_s() / max(self.nodes, 1)
        raise ValueError(f"unknown traffic pattern {pattern!r}")


@dataclass(frozen=True)
class Torus3D(Topology):
    """A 3D torus (Cray Gemini, as on Blue Waters).

    Each node has six links (+/- along each dimension); wrap-around halves
    the average distance per dimension.
    """

    dims: Tuple[int, int, int]
    link_bandwidth_gb_s: float = 4.7       # per-direction Gemini link
    hop_latency_us: float = 0.7

    def __post_init__(self):
        if any(d < 1 for d in self.dims):
            raise ValueError(f"invalid torus dimensions {self.dims}")
        object.__setattr__(self, "nodes", int(math.prod(self.dims)))

    @classmethod
    def for_nodes(cls, nodes: int, **kwargs) -> "Torus3D":
        """A torus with near-cubic extents for the given node count."""
        return cls(_factor_into_3d(nodes), **kwargs)

    def _dim_average(self, d: int) -> float:
        # average ring distance on a cycle of length d
        if d <= 1:
            return 0.0
        return d / 4.0 if d % 2 == 0 else (d * d - 1) / (4.0 * d)

    def average_hops(self) -> float:
        """Mean hop count between random node pairs on the torus."""
        return sum(self._dim_average(d) for d in self.dims)

    def bisection_links(self) -> int:
        """Links crossing a balanced bisection of the torus."""
        # cut across the largest dimension: two cut planes (torus wrap) of
        # size (product of the other dims), each with one link per node pair
        dims = sorted(self.dims)
        if dims[-1] <= 1:
            return max(self.nodes, 1)
        return 2 * dims[0] * dims[1]


@dataclass(frozen=True)
class FatTree(Topology):
    """A folded-Clos / fat-tree (Intel Omni-Path, as on Stampede2)."""

    nodes: int
    radix: int = 48
    oversubscription: float = 1.0          # >1 means tapered uplinks
    link_bandwidth_gb_s: float = 12.5      # 100 Gb/s Omni-Path
    hop_latency_us: float = 0.5

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError("node count must be positive")
        if self.radix < 2:
            raise ValueError("switch radix must be at least 2")
        if self.oversubscription < 1.0:
            raise ValueError("oversubscription factor must be >= 1")

    def levels(self) -> int:
        """Number of switch levels needed for the node count."""
        per_leaf = max(self.radix // 2, 1)
        lvl = 1
        reach = per_leaf
        while reach < self.nodes:
            reach *= max(self.radix // 2, 1)
            lvl += 1
        return lvl

    def average_hops(self) -> float:
        """Mean switch traversals between random node pairs."""
        # most traffic leaves the leaf switch once the machine spans several
        # leaves; two switch traversals per level crossed on average
        if self.nodes <= max(self.radix // 2, 1):
            return 2.0
        return 2.0 * self.levels()

    def bisection_links(self) -> int:
        """Links crossing the bisection (full fat tree over the taper)."""
        # full bisection divided by the taper factor
        return max(int(self.nodes / (2.0 * self.oversubscription)), 1)


@dataclass(frozen=True)
class SingleNode(Topology):
    """Degenerate topology for single-node (shared-memory) runs."""

    nodes: int = 1
    link_bandwidth_gb_s: float = 50.0      # memory bandwidth proxy
    hop_latency_us: float = 0.05

    def average_hops(self) -> float:
        """No network hops inside a single node."""
        return 0.0

    def bisection_links(self) -> int:
        """A single (memory-bandwidth proxy) link."""
        return 1


def topology_for_machine(machine_name: str, nodes: int) -> Topology:
    """The interconnect model matching one of the paper's machines.

    ``machine_name`` accepts the keys of :data:`repro.ctf.machine.MACHINES`
    ("blue-waters", "stampede2", "laptop") or the full spec names.
    """
    key = machine_name.lower()
    if nodes <= 1:
        return SingleNode()
    if "blue" in key or "cray" in key or "gemini" in key:
        return Torus3D.for_nodes(nodes)
    if "stampede" in key or "knl" in key or "omni" in key:
        return FatTree(nodes)
    if "laptop" in key or "workstation" in key:
        return SingleNode(nodes=nodes)
    raise ValueError(f"unknown machine {machine_name!r}")
