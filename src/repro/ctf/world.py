"""The simulated parallel machine ("world") and its cost accounting.

A :class:`SimWorld` plays the role MPI_COMM_WORLD plus the Cyclops runtime play
in the paper's code: it knows how many nodes and ranks exist, which machine
they run on, and charges every tensor operation's modelled time to a
:class:`~repro.ctf.profiler.Profiler` broken down into the paper's Fig. 7
categories.  All numerics remain exact (performed locally by NumPy); only the
*time* is modelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..perf import flops as flopcount
from .bsp import (CommCost, blockwise_contraction_comm, dense_contraction_comm,
                  load_imbalance_fraction, parallel_gemm_efficiency,
                  redistribution_comm, scalapack_svd_comm,
                  sparse_contraction_comm)
from .collectives import CollectiveModel
from .layout import LayoutTracker, TensorLayout
from .machine import LAPTOP, MachineSpec
from .mapping import MappingDecision
from .plan_cost import (choose_plan_mapping, pair_mapping_decisions,
                        redistribution_words)
from .profiler import Profiler

#: tensor order from which the ``sparse-dense`` algorithm stores a tensor
#: dense: its Davidson intermediates (order-4 two-site tensors and order-5
#: partial products)
DENSE_INTERMEDIATE_ORDER = 4


@dataclass
class SimWorld:
    """A virtual parallel machine: nodes x ranks-per-node on a given system."""

    nodes: int = 1
    procs_per_node: int = 16
    machine: MachineSpec = LAPTOP
    profiler: Profiler = field(default_factory=Profiler)
    #: sweep-persistent per-operand layouts (see :mod:`repro.ctf.layout`)
    layout_tracker: LayoutTracker = field(default_factory=LayoutTracker)

    def __post_init__(self):
        if self.nodes < 1 or self.procs_per_node < 1:
            raise ValueError("nodes and procs_per_node must be positive")
        self._collective_model: CollectiveModel | None = None

    def _plan_decision(self, plan, decide):
        """``decide(plan, nprocs, model)`` on this machine, memoized in
        :attr:`~repro.symmetry.planner.ContractionPlan.decisions`."""
        key = (decide, self.nprocs, self.collective_model())
        decision = plan.decisions.get(key)
        if decision is None:
            decision = plan.decisions[key] = decide(plan, *key[1:])
        return decision

    @property
    def nprocs(self) -> int:
        """Total number of MPI ranks."""
        return self.nodes * self.procs_per_node

    # ------------------------------------------------------------------ #
    # charging helpers (each returns the modelled seconds it charged)
    # ------------------------------------------------------------------ #
    def _charge_comm(self, comm: CommCost) -> float:
        seconds = self.machine.comm_seconds(comm.words, self.nodes,
                                            comm.supersteps,
                                            procs_per_node=self.procs_per_node)
        self.profiler.add_communication(comm.words, comm.supersteps, seconds)
        return seconds

    def _copy_rate(self) -> float:
        """Modelled aggregate memory-copy rate (elements / second).

        Shared by every memory-bound charge — tensor refolding
        (:meth:`_charge_transpose`) and the Davidson vector algebra
        (:meth:`charge_davidson_algebra`) — so tuning the streaming rate
        moves both categories together.
        """
        return 5e9 * self.nodes

    def _charge_transpose(self, elements: float) -> float:
        # tensor mapping/refolding touches every element a constant number of
        # times at (modelled) memory-copy speed, scaled by the machine's
        # mapping overhead factor
        seconds = (self.machine.transpose_overhead * elements
                   / self._copy_rate() * 10.0)
        self.profiler.add("transposition", seconds)
        return seconds

    def charge_dense_contraction(self, flops: float, size_a: float,
                                 size_b: float, size_c: float) -> float:
        """One contraction of whole dense distributed tensors.

        Parameters
        ----------
        flops:
            Floating-point operations the dense kernel executes.
        size_a, size_b, size_c:
            Dense element counts (words of 8 bytes) of the two operands and
            the output; they set the ``O(M_D / p^{2/3})`` communication
            volume and the transposition traffic.

        Returns
        -------
        float
            Modelled seconds charged to the profiler (GEMM + communication +
            transposition).
        """
        eff = parallel_gemm_efficiency(flops, self.nprocs)
        gemm = self.machine.gemm_seconds(flops, self.nodes, eff)
        self.profiler.add("gemm", gemm)
        self.profiler.add_flops(flops)
        comm = self._charge_comm(
            dense_contraction_comm(size_a, size_b, size_c, self.nprocs))
        trans = self._charge_transpose(size_a + size_b + size_c)
        return gemm + comm + trans

    def charge_block_contraction(self, flops: float, size_a: float,
                                 size_b: float, size_c: float,
                                 num_blocks: int = 1,
                                 largest_block_share: float = 1.0,
                                 mapping: MappingDecision | None = None
                                 ) -> float:
        """One block-pair contraction inside the list algorithm.

        Parameters
        ----------
        flops:
            Floating-point operations of this block pair's GEMM.
        size_a, size_b, size_c:
            Block element counts (words) of the pair's operands and output.
        num_blocks:
            Total number of block pairs in the surrounding contraction (sets
            the load-imbalance model).
        largest_block_share:
            Fraction (0..1] of the total flops carried by the largest pair.
        mapping:
            Optional per-pair :class:`~repro.ctf.mapping.MappingDecision`
            (see :func:`repro.ctf.plan_cost.pair_mapping_decisions`).  The
            default (``None``, or any 2.5D/3D decision) keeps Table II's
            communication-optimal pricing — ``O(size / p^{2/3})`` words and a
            full refold of operands and output.  A ``"summa-2d"`` decision
            prices the pair on a plain 2D grid instead: the output stays
            stationary, so only the operand panels are broadcast
            (``O((size_a + size_b) / p^{1/2})`` words) and refolded.

        Returns
        -------
        float
            Modelled seconds charged (GEMM + communication + transposition +
            load imbalance).
        """
        eff = parallel_gemm_efficiency(flops, self.nprocs)
        gemm = self.machine.gemm_seconds(flops, self.nodes, eff)
        self.profiler.add("gemm", gemm)
        self.profiler.add_flops(flops)
        if mapping is not None and mapping.algorithm == "summa-2d":
            # 2D SUMMA keeps the output stationary: only the operand panels
            # are broadcast (O(size / p^{1/2}) words) and refolded
            comm = self._charge_comm(CommCost(
                (size_a + size_b) / max(self.nprocs, 1) ** 0.5, 1.0))
            trans = self._charge_transpose(size_a + size_b)
        else:
            comm = self._charge_comm(
                blockwise_contraction_comm(size_a, size_b, size_c,
                                           self.nprocs))
            trans = self._charge_transpose(size_a + size_b + size_c)
        imb = gemm * load_imbalance_fraction(num_blocks, largest_block_share,
                                             self.nprocs)
        self.profiler.add("imbalance", imb)
        return gemm + comm + trans + imb

    def charge_sparse_contraction(self, flops: float, nnz_a: float,
                                  nnz_b: float, nnz_c: float) -> float:
        """One contraction of whole sparse distributed tensors.

        The communication and transposition volumes are the words given;
        :meth:`charge_planned_contraction` passes the plan's block-aligned
        words (only the blocks the contraction touches).

        Parameters
        ----------
        flops:
            Floating-point operations of the sparse kernel.
        nnz_a, nnz_b, nnz_c:
            Stored nonzeros (words of 8 bytes) of the operands and output.

        Returns
        -------
        float
            Modelled seconds charged (sparse kernel + communication +
            transposition).
        """
        eff = parallel_gemm_efficiency(flops, self.nprocs,
                                       grain_flops=5.0e5)
        kernel = self.machine.sparse_seconds(flops, self.nodes, eff)
        self.profiler.add("gemm", kernel)
        self.profiler.add_flops(flops)
        comm = self._charge_comm(
            sparse_contraction_comm(nnz_a, nnz_b, nnz_c, self.nprocs))
        trans = self._charge_transpose(nnz_a + nnz_b + nnz_c)
        return kernel + comm + trans

    def charge_contraction(self, algorithm: str, plan, a, b, *,
                           operand_keys: tuple | None = None,
                           out_key: str | None = None) -> float:
        """Charge one contraction of ``a`` and ``b`` as ``algorithm`` runs it.

        The one pricing recipe of the paper's three algorithms (Section
        IV-A), shared by the backends in real execution and by the
        shape-level simulation (:func:`repro.perf.shapesim.charge_contraction`):

        * ``"list"`` — one block contraction per planned pair
          (:meth:`charge_planned_contraction` with ``algorithm="list"``);
          the list algorithm re-maps every pair onto its own grid, so the
          layout keys are not used;
        * ``"sparse-sparse"`` — the operands' remapping onto the contraction
          grid (tracked through ``operand_keys``), then the planned sparse
          contraction, whose output layout is recorded under ``out_key``;
        * ``"sparse-dense"`` — a contraction with a Davidson intermediate
          (a tensor of order :data:`DENSE_INTERMEDIATE_ORDER` or more) among
          its operands and output is one dense contraction: the dense kernel
          multiplies the zero background, intermediates are sized dense and
          the other tensors at their nnz.  Any other contraction is the
          planned sparse contraction, its output layout recorded under
          ``out_key``.

        Parameters
        ----------
        algorithm:
            ``"list"``, ``"sparse-dense"`` or ``"sparse-sparse"``.
        plan:
            The contraction's :class:`~repro.symmetry.planner.ContractionPlan`.
        a, b:
            The operands; only ``indices``, ``ndim``, ``nnz`` and
            ``dense_size`` are read, so data-free shape tensors work too.
        operand_keys, out_key:
            Layout-tracker names (see :mod:`repro.ctf.layout`).

        Returns
        -------
        float
            Modelled seconds charged to the profiler.
        """
        if algorithm == "list":
            return self.charge_planned_contraction(plan, algorithm="list")
        if algorithm == "sparse-sparse":
            return self.charge_planned_contraction(
                plan, operand_nnz=(a.nnz, b.nnz), operand_keys=operand_keys,
                out_key=out_key)
        if algorithm != "sparse-dense":
            raise ValueError(f"unknown algorithm {algorithm!r}; expected "
                             "'list', 'sparse-dense' or 'sparse-sparse'")
        a_dense = a.ndim >= DENSE_INTERMEDIATE_ORDER
        b_dense = b.ndim >= DENSE_INTERMEDIATE_ORDER
        out_dense = len(plan.out_indices) >= DENSE_INTERMEDIATE_ORDER
        if not (a_dense or b_dense or out_dense):
            return self.charge_planned_contraction(
                plan, algorithm="sparse-dense", out_key=out_key)
        if out_dense:
            size_c = math.prod(ix.dim for ix in plan.out_indices)
        else:
            size_c = 1 if plan.scalar_output else plan.out_nnz
        return self.charge_dense_contraction(
            flopcount.dense_contraction_flops(a, b, plan.axes_a),
            a.dense_size if a_dense else a.nnz,
            b.dense_size if b_dense else b.nnz, size_c)

    def charge_planned_contraction(self, plan, *,
                                   algorithm: str = "sparse-sparse",
                                   operand_nnz: tuple | None = None,
                                   operand_keys: tuple | None = None,
                                   out_key: str | None = None) -> float:
        """Charge a contraction priced from its compiled plan.

        The cost model reads the per-pair GEMM shapes and block-aligned word
        counts of the plan (a :class:`~repro.symmetry.planner.ContractionPlan`)
        and prices exactly the planned layout:

        * ``algorithm="sparse-sparse"`` — the single-sparse-tensor pricing of
          :meth:`charge_sparse_contraction`, but with communication and
          transposition volumes reduced to the words of the blocks the plan
          actually touches.  For a plan covering one dense block this equals
          the aggregate model exactly; for block-sparse operands it is never
          larger.
        * ``algorithm="list"`` — one :meth:`charge_block_contraction` per
          planned pair, with the plan's own pair count and largest-pair share
          driving the load-imbalance model, and each pair priced under its
          :meth:`pair_decisions` mapping (2D-vs-3D grain-efficiency
          crossover), exactly as the ``list`` backend charges in real
          execution.

        A plan with no block pairs (structurally empty output) charges
        nothing — the plan-aware model knows no data needs to move.

        Parameters
        ----------
        plan:
            The compiled contraction plan to price.
        algorithm:
            ``"sparse-sparse"`` (whole-tensor sparse pricing, also used for
            the sparse operands of the sparse-dense algorithm) or ``"list"``
            (per-block-pair pricing).
        operand_nnz:
            Optional ``(nnz_a, nnz_b)`` stored nonzeros of the operands.
            When given (the ``sparse-sparse`` execution recipe shared by the
            backend and the shape-level simulation), the remapping of each
            operand onto the contraction's processor grid is charged first —
            plan-aware volumes capped at the stored nnz, skipped entirely for
            a structurally empty plan.
        operand_keys:
            Optional ``(key_a, key_b)`` layout-tracker names of the operands
            (see :mod:`repro.ctf.layout`).  Each named operand's remapping is
            routed through :meth:`charge_layout_transition`, so it is charged
            only when the contraction's preferred mapping differs from the
            operand's current layout; ``None`` entries keep the unconditional
            per-contraction charge.  Ignored without ``operand_nnz``.
        out_key:
            Optional layout-tracker name of the output tensor; its birth
            layout (this contraction's preferred mapping) is recorded for
            free so a later contraction preferring the same mapping can reuse
            it in place.

        Returns
        -------
        float
            Modelled seconds charged to the profiler.
        """
        # validate before anything is charged or recorded
        if algorithm not in ("sparse-sparse", "sparse-dense", "list"):
            raise ValueError(f"unknown algorithm {algorithm!r}; expected "
                             "'sparse-sparse', 'sparse-dense' or 'list'")
        if not plan.npairs:
            return 0.0
        seconds = 0.0
        if operand_nnz is not None:
            nnz_a, nnz_b = operand_nnz
            key_a, key_b = operand_keys or (None, None)
            seconds += self.charge_layout_transition(key_a, plan=plan,
                                                     operand="a",
                                                     elements=nnz_a)
            seconds += self.charge_layout_transition(key_b, plan=plan,
                                                     operand="b",
                                                     elements=nnz_b)
        if out_key is not None:
            self.record_layout(out_key, plan=plan)
        if algorithm == "list":
            m, k, n = plan.pair_m, plan.pair_k, plan.pair_n
            for flops, words_a, words_b, words_c, decision in zip(
                    plan.pair_flops.tolist(), (m * k).tolist(),
                    (k * n).tolist(), (m * n).tolist(),
                    self.pair_decisions(plan)):
                seconds += self.charge_block_contraction(
                    flops, words_a, words_b, words_c,
                    num_blocks=plan.npairs,
                    largest_block_share=plan.largest_pair_share,
                    mapping=decision)
            return seconds
        return seconds + self.charge_sparse_contraction(
            plan.total_flops, float(plan.a_words), float(plan.b_words),
            float(plan.out_nnz))

    def charge_davidson_algebra(self, nnz: float, *, naxpy: int = 0,
                                ndot: int = 0) -> float:
        """The Davidson solver's internal vector algebra (axpy-like traffic).

        Between matrix-vector products the solver streams the basis vectors
        through purely memory-bound kernels: Ritz-vector and residual
        assembly, Gram-Schmidt orthogonalization and the subspace-matrix
        inner products.  The paper's measured small-``m`` overhead comes from
        exactly this regime — the vectors are too small to amortize the
        per-operation latencies — so the model charges:

        * each **axpy** (``y += alpha * x``) as three streamed passes over
          the ``nnz`` stored words (two reads, one write) at the machine's
          memory-copy rate;
        * each **inner product** as two streamed reads plus one small
          allreduce (a latency-bound superstep — the dominant term at small
          bond dimension).

        The time lands in the custom ``"davidson"`` profiler category (plus
        ``"communication"`` for the allreduces) so Fig. 7-style breakdowns
        expose it separately from the contraction kernels.

        Parameters
        ----------
        nnz:
            Stored words (8-byte elements) of one Davidson basis vector.
        naxpy:
            Number of vector-update (axpy/scale) operations performed.
        ndot:
            Number of inner products / norms performed.

        Returns
        -------
        float
            Modelled seconds charged to the profiler.
        """
        naxpy = max(int(naxpy), 0)
        ndot = max(int(ndot), 0)
        if nnz <= 0 or (naxpy == 0 and ndot == 0):
            return 0.0
        words = (3.0 * naxpy + 2.0 * ndot) * float(nnz)
        # streamed at the same modelled memory-copy rate the transposition
        # model uses (elements / second across the machine)
        seconds = words / self._copy_rate()
        self.profiler.add("davidson", seconds, count=naxpy + ndot,
                          allow_custom=True)
        self.profiler.add_flops(2.0 * (naxpy + ndot) * float(nnz))
        comm = 0.0
        if ndot:
            # every inner product ends in an allreduce of one word per rank
            comm = self._charge_comm(CommCost(float(ndot), float(ndot)))
        return seconds + comm

    def charge_svd(self, rows: int, cols: int) -> float:
        """One distributed SVD (ScaLAPACK ``pdgesvd`` model).

        Parameters
        ----------
        rows, cols:
            Matrix dimensions of the factorized (matricized) tensor.

        Returns
        -------
        float
            Modelled seconds charged (factorization flops at the machine's
            SVD rate plus ScaLAPACK panel communication).
        """
        flops = flopcount.svd_flops(rows, cols)
        compute = self.machine.svd_seconds(flops, self.nodes)
        comm = scalapack_svd_comm(rows, cols, self.nprocs)
        seconds = compute + self.machine.comm_seconds(
            comm.words, self.nodes, comm.supersteps,
            procs_per_node=self.procs_per_node)
        self.profiler.add("svd", seconds)
        self.profiler.add_flops(flops)
        return seconds

    def charge_redistribution(self, elements: float | None = None, *,
                              plan=None, operand: str = "all") -> float:
        """A layout change of a distributed tensor (CTF mapping change).

        Parameters
        ----------
        elements:
            Aggregate element count (words of 8 bytes) to move — the
            aggregate-nnz model.  May be omitted when ``plan`` is given.
        plan:
            Optional :class:`~repro.symmetry.planner.ContractionPlan`.  When
            given, the volume priced is the block-aligned
            :func:`~repro.ctf.plan_cost.redistribution_words` of the planned
            layout — only the blocks the plan touches move.  If ``elements``
            is also given, the charged volume is capped at it (the planned
            volume can only shrink the aggregate bound, never exceed it).
        operand:
            Which tensor of the planned contraction is being redistributed:
            ``"a"``, ``"b"``, ``"out"`` or ``"all"``.  Ignored without
            ``plan``.

        Returns
        -------
        float
            Modelled seconds charged (all-to-all communication plus local
            repacking at memory-copy speed).
        """
        if plan is not None:
            words = redistribution_words(plan, operand)
            if elements is not None:
                words = min(float(elements), words)
        elif elements is not None:
            words = float(elements)
        else:
            raise ValueError("charge_redistribution needs elements or a plan")
        comm = redistribution_comm(words, self.nprocs)
        return self._charge_comm(comm) + self._charge_transpose(words)

    def charge_format_conversion(self, elements: float, *, phases: int = 2,
                                 plan=None, operand: str = "out") -> float:
        """A storage-format conversion (e.g. sparse tensor <-> list format).

        The block-wise SVD of the single-tensor algorithms extracts the
        blocks into a temporary list format and (for ``sparse-sparse``)
        rebuilds the sparse tensor afterwards.  Each phase is an all-to-all
        of the stored words, but the phases share one local repacking pass —
        the elements are unpacked straight into their final placement — so
        the conversion charges ``phases`` communication rounds and a single
        transposition, strictly less than ``phases`` independent
        :meth:`charge_redistribution` calls.

        Parameters
        ----------
        elements:
            Stored words (8-byte elements) of the converted tensor.
        phases:
            All-to-all rounds of the conversion (2 for extract + rebuild,
            1 for extract only).
        plan:
            Optional plan of the contraction that produced the tensor; caps
            the moved volume at the block-aligned
            :func:`~repro.ctf.plan_cost.redistribution_words` of ``operand``,
            so the conversion can never charge more than the planned layout
            actually stores.
        operand:
            Which tensor of ``plan`` is converted (default ``"out"``).

        Returns
        -------
        float
            Modelled seconds charged to the profiler.
        """
        words = float(elements)
        if plan is not None:
            words = min(words, redistribution_words(plan, operand))
        seconds = 0.0
        for _ in range(max(int(phases), 1)):
            seconds += self._charge_comm(
                redistribution_comm(words, self.nprocs))
        return seconds + self._charge_transpose(words)

    # ------------------------------------------------------------------ #
    # sweep-persistent layouts (see repro.ctf.layout)
    # ------------------------------------------------------------------ #
    def collective_model(self) -> CollectiveModel:
        """The collective cost model of this machine/topology (memoized)."""
        if self._collective_model is None:
            self._collective_model = CollectiveModel.for_machine(
                self.machine, self.nodes, self.procs_per_node)
        return self._collective_model

    def preferred_mapping(self, plan) -> MappingDecision:
        """The mapping :func:`choose_plan_mapping` picks for ``plan`` here.

        Memoized in the plan's ``decisions`` (plans are cached and
        re-charged thousands of times), so the candidate scoring runs once
        per plan and machine.
        """
        return self._plan_decision(plan, choose_plan_mapping)

    def pair_decisions(self, plan) -> tuple:
        """Per-block-pair mapping decisions of ``plan`` on this machine.

        The :func:`~repro.ctf.plan_cost.pair_mapping_decisions` 2D-vs-3D
        grain-efficiency crossover, memoized on the plan.  Shared
        by the ``list`` backend and the modelled
        :meth:`charge_planned_contraction` list path, so real execution and
        shape-level simulation price the same pairs identically.
        """
        return self._plan_decision(plan, pair_mapping_decisions)

    def charge_layout_transition(self, operand_key: str | None, *,
                                 plan=None, operand: str = "all",
                                 elements: float | None = None,
                                 mapping: MappingDecision | None = None
                                 ) -> float:
        """Redistribute an operand only if its next contraction remaps it.

        This is the sweep-persistent refinement of
        :meth:`charge_redistribution`: the operand named ``operand_key`` is
        about to be contracted, and the contraction prefers ``mapping``
        (computed from ``plan`` when not given).  The layout tracker decides
        whether the operand actually moves:

        * first touch — the tensor starts unmapped, the remapping is charged;
        * unchanged mapping — the operand is already laid out as the
          contraction wants it (environments reused across Davidson
          iterations and sweep steps), nothing is charged;
        * mapping change — a redistribution is charged, and the tracker
          remembers the new layout.

        With ``operand_key=None`` the operand is untracked and the charge
        falls back to the unconditional per-contraction
        :meth:`charge_redistribution` — so the tracked model can never charge
        more than the tracker-off model for the same sequence of calls.

        Parameters
        ----------
        operand_key:
            Layout-tracker name of the operand (see
            :mod:`repro.ctf.layout`), or ``None`` for untracked.
        plan:
            Plan of the upcoming contraction; provides both
            the preferred mapping and the block-aligned redistribution volume.
        operand:
            Which tensor of ``plan`` this operand is (``"a"``, ``"b"``,
            ``"out"`` or ``"all"``).
        elements:
            Optional aggregate word count capping the charged volume (the
            operand's stored nnz).
        mapping:
            Explicit target mapping, overriding the plan-derived one.

        Returns
        -------
        float
            Modelled seconds charged (0.0 when the layout is reused).
        """
        if operand_key is None:
            return self.charge_redistribution(elements, plan=plan,
                                              operand=operand)
        if mapping is None:
            if plan is None:
                raise ValueError("charge_layout_transition needs a plan or "
                                 "an explicit mapping for tracked operands")
            if not plan.npairs:
                return 0.0
            mapping = self.preferred_mapping(plan)
        layout = TensorLayout.from_decision(mapping)
        if self.layout_tracker.observe(operand_key, layout):
            return self.charge_redistribution(elements, plan=plan,
                                              operand=operand)
        return 0.0

    def record_layout(self, out_key: str | None, *, plan=None,
                      mapping: MappingDecision | None = None) -> None:
        """Record a freshly produced tensor's birth layout (never charged).

        The output of a contraction is created directly in the contraction's
        preferred mapping; registering it lets a later contraction that
        prefers the same mapping consume it for free.
        """
        if out_key is None:
            return
        if mapping is None:
            if plan is None:
                raise ValueError("record_layout needs a plan or a mapping")
            if not plan.npairs:
                return
            mapping = self.preferred_mapping(plan)
        self.layout_tracker.record(out_key,
                                   TensorLayout.from_decision(mapping))

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def memory_per_node_required(self, total_elements: float,
                                 itemsize: int = 8) -> float:
        """Bytes per node needed to hold ``total_elements`` distributed items."""
        return total_elements * itemsize / self.nodes

    def fits_in_memory(self, total_elements: float, itemsize: int = 8) -> bool:
        """Whether a distributed object fits in the machine's aggregate RAM."""
        return (self.memory_per_node_required(total_elements, itemsize)
                <= self.machine.memory_bytes_per_node())

    def modelled_seconds(self) -> float:
        """Total modelled execution time so far."""
        return self.profiler.total_seconds()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"SimWorld(nodes={self.nodes}, ppn={self.procs_per_node}, "
                f"machine={self.machine.name!r})")
