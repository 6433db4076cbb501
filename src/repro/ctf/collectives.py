"""Cost models for MPI collective operations.

Cyclops implements its redistribution and contraction phases on top of MPI
collectives (broadcasts and reductions along processor-grid fibres for SUMMA,
all-to-all for layout changes, all-reduces inside ScaLAPACK panels).  The
latency/bandwidth ("alpha-beta") models below follow the standard algorithms
used by production MPI libraries:

* broadcast / reduce       — binomial tree,
* all-reduce               — Rabenseifner (reduce-scatter + all-gather),
* all-gather / reduce-scatter — ring,
* all-to-all               — pairwise exchange, scaled by the topology's
  congestion factor,
* barrier                  — dissemination.

Each returns a :class:`CollectiveCost` carrying the modelled seconds together
with the words moved and messages sent per rank, so higher layers (the
contraction mapper, the BSP accounting of Table II) can use whichever
granularity they need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .machine import MachineSpec
from .topology import Topology, topology_for_machine


@dataclass(frozen=True)
class CollectiveCost:
    """Cost of one collective call (per participating rank)."""

    seconds: float
    words: float
    messages: float

    def __add__(self, other: "CollectiveCost") -> "CollectiveCost":
        return CollectiveCost(self.seconds + other.seconds,
                              self.words + other.words,
                              self.messages + other.messages)


@dataclass(frozen=True)
class CollectiveModel:
    """Alpha-beta collective costs on a concrete machine + topology.

    ``alpha`` (seconds per message) combines the machine's injection latency
    with the topology's average hop latency; ``beta`` (seconds per word) is
    the inverse of the effective per-node bandwidth, with all ranks of a node
    sharing the node's injection bandwidth.  Both are pure in the frozen
    fields and computed once.  Word counts may be numpy arrays.
    """

    machine: MachineSpec
    topology: Topology
    procs_per_node: int = 1
    word_bytes: int = 8

    def __post_init__(self):
        object.__setattr__(self, "_betas", {})
        object.__setattr__(self, "_alpha", (
            self.machine.network_latency_us
            + self.topology.point_to_point_latency_us()) * 1e-6)

    @classmethod
    def for_machine(cls, machine: MachineSpec, nodes: int,
                    procs_per_node: int = 1,
                    word_bytes: int = 8) -> "CollectiveModel":
        """Build a model with the topology matching the machine preset."""
        return cls(machine, topology_for_machine(machine.name, nodes),
                   procs_per_node=procs_per_node, word_bytes=word_bytes)

    # ------------------------------------------------------------------ #
    # model parameters
    # ------------------------------------------------------------------ #
    def alpha(self) -> float:
        """Per-message latency (seconds)."""
        return self._alpha

    def beta(self, pattern: str = "nearest") -> float:
        """Per-word transfer time (seconds) under a traffic pattern."""
        beta = self._betas.get(pattern)
        if beta is None:
            node_bw = min(self.machine.network_bandwidth_gb_per_s,
                          self.topology.effective_bandwidth_gb_s(pattern)) * 1e9
            per_rank_bw = node_bw / max(self.procs_per_node, 1)
            beta = self._betas[pattern] = self.word_bytes / per_rank_bw
        return beta

    def _cost(self, messages: float, words: float,
              pattern: str = "nearest") -> CollectiveCost:
        seconds = messages * self.alpha() + words * self.beta(pattern)
        return CollectiveCost(seconds, words, messages)

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #
    def broadcast(self, nwords: float, nprocs: int) -> CollectiveCost:
        """Binomial-tree broadcast of ``nwords`` words to ``nprocs`` ranks."""
        if nprocs <= 1:
            return CollectiveCost(0.0, 0.0, 0.0)
        rounds = math.ceil(math.log2(nprocs))
        return self._cost(rounds, rounds * nwords)

    def reduce_scatter(self, nwords: float, nprocs: int) -> CollectiveCost:
        """Ring reduce-scatter of a ``nwords``-word buffer."""
        if nprocs <= 1:
            return CollectiveCost(0.0, 0.0, 0.0)
        p = nprocs
        return self._cost(p - 1, (p - 1) / p * nwords)

    def allgather(self, nwords: float, nprocs: int) -> CollectiveCost:
        """Ring all-gather producing a ``nwords``-word buffer on every rank."""
        if nprocs <= 1:
            return CollectiveCost(0.0, 0.0, 0.0)
        p = nprocs
        return self._cost(p - 1, (p - 1) / p * nwords)

    def allreduce(self, nwords: float, nprocs: int) -> CollectiveCost:
        """Rabenseifner all-reduce (reduce-scatter followed by all-gather)."""
        if nprocs <= 1:
            return CollectiveCost(0.0, 0.0, 0.0)
        return self.reduce_scatter(nwords, nprocs) + \
            self.allgather(nwords, nprocs)

    def alltoall(self, nwords: float, nprocs: int) -> CollectiveCost:
        """Pairwise-exchange all-to-all of ``nwords`` words held per rank."""
        if nprocs <= 1:
            return CollectiveCost(0.0, 0.0, 0.0)
        p = nprocs
        seconds_words = (p - 1) / p * nwords
        cost = self._cost(p - 1, seconds_words, pattern="alltoall")
        return cost
