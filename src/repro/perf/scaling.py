"""Scaling-experiment harness: regenerates the data behind Figs. 5-13.

Every experiment models one (or more) two-site DMRG optimization steps at a
given bond dimension ``m`` on a given machine/node-count/algorithm, using the
exact quantum-number block structure of the benchmark system (shape-level
simulation, see :mod:`repro.perf.shapesim`) and the BSP cost model of
Table II.  Performance *rates* are useful-flops (the block-level flop count,
the same quantity Cyclops' counters report and the paper uses for every code)
divided by modelled time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..ctf.layout import heff_operand_keys, left_env_key, site_key
from ..ctf.machine import MachineSpec
from ..ctf.world import SimWorld
from ..symmetry.linalg import svd_group_shapes
from .flops import svd_flops
from .shapesim import ShapeTensor, charge_contraction, charge_svd
from .systems import BenchmarkSystem

#: Davidson matrix-vector products per two-site optimization (the paper uses
#: a subspace size of 2 during sweeps).
DAVIDSON_MATVECS = 2


def davidson_vector_ops(matvecs: int) -> Tuple[int, int]:
    """Estimated ``(naxpy, ndot)`` counts of one Davidson solve.

    Mirrors the per-iteration algebra of :func:`repro.dmrg.davidson.davidson`
    for a solve performing ``matvecs`` matrix-vector products with a growing
    basis: Ritz-vector/residual assembly (``2k + 1`` axpys at basis size
    ``k``), one Gram-Schmidt pass (``k`` projections and updates) and the
    subspace-matrix extension (``k + 1`` inner products), plus the residual
    and re-orthogonalization norms.  The shape-level simulation charges these
    through :meth:`repro.ctf.world.SimWorld.charge_davidson_algebra`, the
    same entry point the real solver uses with its actually performed counts.
    """
    naxpy = 1   # initial normalization
    ndot = 2    # initial norm + <v|Hv>
    for k in range(1, max(int(matvecs), 1) + 1):
        naxpy += 2 * k + 1          # Ritz vector + residual assembly
        ndot += 1                   # residual norm
        naxpy += k + 1              # orthogonalization updates + rescale
        ndot += k + 1               # projections + norm
        ndot += k + 1               # subspace-matrix row/column
    naxpy += 1  # final normalization
    ndot += 1
    return naxpy, ndot


@dataclass
class StepCost:
    """Modelled cost of one two-site DMRG optimization."""

    system: str
    algorithm: str
    m: int
    nodes: int
    procs_per_node: int
    machine: str
    useful_flops: float
    seconds: float
    breakdown: Dict[str, float]
    comm_words: float
    supersteps: float
    davidson_memory: float
    environment_memory: float
    plan_aware: bool = False
    track_layout: bool = False
    #: layout-tracker moves this step charged (first touches + transitions)
    layout_moves: int = 0
    #: operand touches this step served from an unchanged layout (free)
    layout_reuses: int = 0

    @property
    def gflops_rate(self) -> float:
        """Performance rate in GFlop/s (useful flops / modelled time)."""
        return self.useful_flops / self.seconds / 1e9 if self.seconds > 0 else 0.0

    @property
    def gflops_rate_per_node(self) -> float:
        """Per-node performance rate in GFlop/s."""
        return self.gflops_rate / self.nodes


@dataclass
class ScalingSeries:
    """A labelled series of (x, y) points plus per-point annotations."""

    label: str
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)
    annotations: List[str] = field(default_factory=list)

    def add(self, x: float, y: float, note: str = "") -> None:
        """Append a point."""
        self.x.append(float(x))
        self.y.append(float(y))
        self.annotations.append(note)

    def as_rows(self) -> List[Tuple[float, float, str]]:
        """The series as printable rows."""
        return list(zip(self.x, self.y, self.annotations))


# --------------------------------------------------------------------------- #
# single-step model
# --------------------------------------------------------------------------- #
_SHAPE_CACHE: Dict[tuple, tuple] = {}


def _site_shapes(system: BenchmarkSystem, m: int, site: int
                 ) -> Tuple[ShapeTensor, ShapeTensor, ShapeTensor, ShapeTensor,
                            ShapeTensor, ShapeTensor]:
    """Shape tensors (L, W1, W2, R, x, A1) for a two-site step at ``site``."""
    key = (id(system), m, site)
    if key in _SHAPE_CACHE:
        return _SHAPE_CACHE[key]
    bonds = system.bond_indices(m)
    n = system.nsites
    site = max(0, min(site, n - 2))
    left = bonds[site].with_flow(1)
    mid = bonds[site + 1].with_flow(1)
    right = bonds[site + 2].with_flow(1)
    p1 = system.sites.physical_index(site, flow=1)
    p2 = system.sites.physical_index(site + 1, flow=1)
    w1 = ShapeTensor.from_block_tensor(system.mpo.tensors[site])
    w2 = ShapeTensor.from_block_tensor(system.mpo.tensors[site + 1])
    lenv = ShapeTensor((left, w1.indices[0].dual(), left.dual()))
    renv = ShapeTensor((right.dual(), w2.indices[3].dual(), right))
    x = ShapeTensor((left, p1, p2, right.dual()))
    a1 = ShapeTensor((left, p1, mid.dual()))
    shapes = (lenv, w1, w2, renv, x, a1)
    if len(_SHAPE_CACHE) > 256:
        _SHAPE_CACHE.clear()
    _SHAPE_CACHE[key] = shapes
    return shapes


def site_shapes(system: BenchmarkSystem, m: int, site: int | None = None
                ) -> Tuple[ShapeTensor, ShapeTensor, ShapeTensor, ShapeTensor,
                           ShapeTensor, ShapeTensor]:
    """Public accessor for the two-site step's shape tensors.

    Returns ``(L, W1, W2, R, x, A1)`` — the left/right environments, the two
    MPO site tensors, the two-site Davidson tensor and the next site tensor —
    at bond dimension ``m`` (``site`` defaults to the middle of the chain).
    Benchmarks use this to build contraction plans for the dominant
    contractions without reaching into the cached internals.
    """
    if site is None:
        site = system.middle_site()
    return _site_shapes(system, m, site)


def model_dmrg_step(system: BenchmarkSystem, m: int, world: SimWorld,
                    algorithm: str, *, site: int | None = None,
                    davidson_matvecs: int = DAVIDSON_MATVECS,
                    plan_aware: bool = False,
                    track_layout: bool = False) -> StepCost:
    """Model one two-site optimization (Davidson + SVD + environment update).

    With ``plan_aware=True`` every contraction is priced from its compiled
    block-pair plan (:meth:`SimWorld.charge_planned_contraction`) instead of
    aggregate element counts; see :mod:`repro.ctf.plan_cost`.

    With ``track_layout=True`` (requires ``plan_aware``) the environments,
    MPO tensors, wavefunction and intermediates are named with the canonical
    :mod:`repro.ctf.layout` keys, so the world's sweep-persistent layout
    tracker charges their remapping only on real mapping changes — repeated
    Davidson matvecs and consecutive steps on one ``world`` reuse layouts for
    free, exactly as the DMRG sweep driver does in real execution.
    """
    if site is None:
        site = system.middle_site()
    if track_layout and not plan_aware:
        raise ValueError("track_layout requires plan_aware=True")
    lenv, w1, w2, renv, x, a1 = _site_shapes(system, m, site)

    if track_layout:
        lk, w1k, w2k, rk, xk = heff_operand_keys(site)
        hk = [f"{xk}:h{i}" for i in range(4)]
        a1k, a2k = site_key(site), site_key(site + 1)
        ek = [f"{left_env_key(site + 1)}:partial1",
              f"{left_env_key(site + 1)}:partial2"]
    else:
        lk = w1k = w2k = rk = xk = a1k = a2k = None
        hk = [None] * 4
        ek = [None] * 2
    tracker0 = world.layout_tracker.snapshot()

    before = world.profiler.as_dict()
    useful = 0.0

    def contract(a, b, axes, operand_keys, out_key):
        nonlocal useful
        out, f = charge_contraction(world, algorithm, a, b, axes,
                                    plan_aware=plan_aware,
                                    operand_keys=operand_keys,
                                    out_key=out_key)
        useful += f
        return out

    # two-site tensor build (Fig. 1c): contract the two site tensors, as
    # two_site_tensor does in the real sweep — in tracked mode this is the
    # birth of the Davidson wavefunction's layout
    a2 = ShapeTensor((a1.indices[2].dual(), x.indices[2], x.indices[3]))
    contract(a1, a2, ([2], [0]), (a1k, a2k), xk)
    # Davidson: matrix-vector products through the environments (Fig. 1d)
    for _ in range(max(davidson_matvecs, 1)):
        t = contract(lenv, x, ([2], [0]), (lk, xk), hk[0])
        t = contract(t, w1, ([1, 2], [0, 2]), (hk[0], w1k), hk[1])
        t = contract(t, w2, ([4, 1], [0, 2]), (hk[1], w2k), hk[2])
        contract(t, renv, ([1, 4], [2, 1]), (hk[2], rk), hk[3])
    # Davidson-internal vector algebra: orthogonalization, Ritz/residual
    # assembly and subspace inner products are pure memory traffic (plus one
    # allreduce per inner product) — the paper's measured small-m overhead
    naxpy, ndot = davidson_vector_ops(max(davidson_matvecs, 1))
    world.charge_davidson_algebra(x.nnz, naxpy=naxpy, ndot=ndot)
    # SVD split of the optimized two-site tensor (always block-wise); the
    # split rewrites the site tensors, so their tracked layouts are stale
    useful += charge_svd(world, algorithm, x, [0, 1])
    if track_layout:
        world.layout_tracker.invalidate(xk, a1k, site_key(site + 1))
    # environment extension to the next center
    t = contract(lenv, a1, ([2], [0]), (lk, a1k), ek[0])
    t = contract(t, w1, ([1, 2], [0, 2]), (ek[0], w1k), ek[1])
    # closing contraction with the conjugated site tensor
    conj_a1 = ShapeTensor(tuple(ix.dual() for ix in a1.indices))
    contract(conj_a1, t, ([0, 1], [0, 2]), (None, ek[1]),
             left_env_key(site + 1) if track_layout else None)
    after = world.profiler.as_dict()
    tracker1 = world.layout_tracker.snapshot()

    breakdown = {k: after.get(k, 0.0) - before.get(k, 0.0)
                 for k in ("gemm", "communication", "transposition", "svd",
                           "imbalance", "davidson")}
    seconds = sum(breakdown.values())
    if algorithm == "sparse-dense":
        davidson_memory = float(x.dense_size + lenv.dense_size + renv.dense_size)
    else:
        davidson_memory = float(x.nnz + lenv.nnz + renv.nnz)
    environment_memory = float(system.nsites * lenv.nnz)
    return StepCost(system.name, algorithm, m, world.nodes,
                    world.procs_per_node, world.machine.name, useful, seconds,
                    breakdown, after["comm_words"] - before["comm_words"],
                    after["supersteps"] - before["supersteps"],
                    davidson_memory, environment_memory,
                    plan_aware=plan_aware, track_layout=track_layout,
                    layout_moves=(tracker1["charged_moves"]
                                  - tracker0["charged_moves"]),
                    layout_reuses=(tracker1["reuses"] - tracker0["reuses"]))


def itensor_reference(system: BenchmarkSystem, m: int, machine: MachineSpec,
                      *, site: int | None = None,
                      serial_efficiency: float = 0.9) -> StepCost:
    """Model the single-node shared-memory ITensor baseline for one step.

    ITensor exploits the same block sparsity (same useful flops) with threaded
    BLAS on one node and no communication.
    """
    world = SimWorld(nodes=1, procs_per_node=1, machine=machine)
    step = model_dmrg_step(system, m, world, "list", site=site)
    gemm = machine.gemm_seconds(step.useful_flops, 1, serial_efficiency)
    svd_secs = 0.0
    if site is None:
        site = system.middle_site()
    _, _, _, _, x, _ = _site_shapes(system, m, site)
    for rows, cols in svd_group_shapes(x, [0, 1]):
        svd_secs += machine.svd_seconds(svd_flops(rows, cols), 1, 1.0)
    seconds = gemm + svd_secs
    return StepCost(system.name, "itensor", m, 1, 1, machine.name,
                    step.useful_flops, seconds,
                    {"gemm": gemm, "communication": 0.0, "transposition": 0.0,
                     "svd": svd_secs, "imbalance": 0.0, "davidson": 0.0},
                    0.0, 0.0,
                    step.davidson_memory, step.environment_memory)


def plan_aware_comparison(system: BenchmarkSystem, m: int,
                          machine: MachineSpec, nodes: int, algorithm: str,
                          procs_per_node: int = 16,
                          site: int | None = None) -> Dict[str, object]:
    """One DMRG step under the aggregate and the plan-aware cost model.

    Returns both :class:`StepCost` objects plus the modelled-seconds ratio
    ``plan_aware / aggregate`` — the delta the plan-aware benchmarks report.
    On block-sparse inputs the plan-aware model never charges more than the
    aggregate one (same kernel time, block-aligned communication volumes).
    """
    agg_world = SimWorld(nodes=nodes, procs_per_node=procs_per_node,
                         machine=machine)
    aggregate = model_dmrg_step(system, m, agg_world, algorithm, site=site)
    plan_world = SimWorld(nodes=nodes, procs_per_node=procs_per_node,
                          machine=machine)
    planned = model_dmrg_step(system, m, plan_world, algorithm, site=site,
                              plan_aware=True)
    ratio = planned.seconds / aggregate.seconds if aggregate.seconds > 0 else 1.0
    return {"aggregate": aggregate, "plan_aware": planned, "ratio": ratio,
            "seconds_saved": aggregate.seconds - planned.seconds}


# --------------------------------------------------------------------------- #
# figure-level experiments
# --------------------------------------------------------------------------- #
def peak_performance(system: BenchmarkSystem, machine: MachineSpec,
                     algorithm: str, ms: Sequence[int],
                     nodes_for_m: Dict[int, int],
                     procs_per_node: int = 16) -> ScalingSeries:
    """Fig. 5: peak GFlop/s versus bond dimension (one node count per m)."""
    series = ScalingSeries(label=f"{system.name}/{algorithm}/{machine.name}")
    for m in ms:
        nodes = nodes_for_m[m]
        world = SimWorld(nodes=nodes, procs_per_node=procs_per_node,
                         machine=machine)
        step = model_dmrg_step(system, m, world, algorithm)
        series.add(m, step.gflops_rate, note=f"{nodes} nodes")
    return series


def column_times(system: BenchmarkSystem, m: int, machine: MachineSpec,
                 nodes: int, algorithm: str = "list",
                 procs_per_node: int = 16) -> ScalingSeries:
    """Fig. 6: modelled time per lattice column for a full sweep."""
    series = ScalingSeries(label=f"column times m={m}")
    ncols = system.columns
    per_col = system.sites_per_column
    for col in range(ncols):
        world = SimWorld(nodes=nodes, procs_per_node=procs_per_node,
                         machine=machine)
        seconds = sum(model_dmrg_step(system, m, world, algorithm,
                                      site=min(col * per_col + i,
                                               system.nsites - 2)).seconds
                      for i in range(per_col))
        series.add(col + 1, seconds, note=f"column {col + 1}")
    return series


def time_breakdown(system: BenchmarkSystem, m: int, machine: MachineSpec,
                   nodes: int, algorithm: str,
                   procs_per_node: int = 16) -> Dict[str, float]:
    """Fig. 7: percentage of modelled time per category.

    :func:`layout_tracker_comparison` is the plan-aware, layout-tracked
    counterpart behind the shrinking "CTF transposition" share.
    """
    world = SimWorld(nodes=nodes, procs_per_node=procs_per_node,
                     machine=machine)
    model_dmrg_step(system, m, world, algorithm)
    return world.profiler.breakdown()


def layout_tracker_comparison(system: BenchmarkSystem, m: int,
                              machine: MachineSpec, nodes: int,
                              algorithm: str = "sparse-sparse",
                              procs_per_node: int = 16,
                              sites: Sequence[int] | None = None,
                              davidson_matvecs: int = DAVIDSON_MATVECS
                              ) -> Dict[str, object]:
    """Consecutive DMRG steps with and without the layout tracker.

    Models the same plan-aware step sequence twice — once pricing every
    contraction in isolation (tracker off: both operands remap every time)
    and once with the sweep-persistent layout tracker (tracker on:
    environments, MPO tensors and the Davidson wavefunction keep their
    layouts across matvecs and steps).  This is the quantity behind the
    Fig. 7 "CTF transposition" slice: the tracker can only *remove*
    redistribution charges, so the tracked total is never above the
    per-contraction model and the transposition share shrinks toward the
    paper's proportions.

    Returns a dict with both second totals, both percentage breakdowns, the
    transposition shares, the modelled seconds saved and the tracker's
    counter snapshot.
    """
    if sites is None:
        mid = system.middle_site()
        sites = [s for s in (mid, mid + 1) if s <= system.nsites - 2] or [mid]
    w_off = SimWorld(nodes=nodes, procs_per_node=procs_per_node,
                     machine=machine)
    steps_off = [model_dmrg_step(system, m, w_off, algorithm, site=s,
                                 davidson_matvecs=davidson_matvecs,
                                 plan_aware=True)
                 for s in sites]
    w_on = SimWorld(nodes=nodes, procs_per_node=procs_per_node,
                    machine=machine)
    steps_on = [model_dmrg_step(system, m, w_on, algorithm, site=s,
                                davidson_matvecs=davidson_matvecs,
                                plan_aware=True, track_layout=True)
                for s in sites]
    off_bd = w_off.profiler.breakdown()
    on_bd = w_on.profiler.breakdown()
    off_seconds = w_off.modelled_seconds()
    on_seconds = w_on.modelled_seconds()
    return {
        "system": system.name, "algorithm": algorithm, "m": m,
        "nodes": nodes, "sites": list(sites),
        "tracker_off_seconds": off_seconds,
        "tracker_on_seconds": on_seconds,
        "seconds_saved": off_seconds - on_seconds,
        "tracker_off_breakdown": off_bd,
        "tracker_on_breakdown": on_bd,
        "transposition_share_off": off_bd["transposition"],
        "transposition_share_on": on_bd["transposition"],
        "layout_moves": sum(s.layout_moves for s in steps_on),
        "layout_reuses": sum(s.layout_reuses for s in steps_on),
        "tracker": w_on.layout_tracker.snapshot(),
        "steps_off": steps_off, "steps_on": steps_on,
    }


def weak_scaling(system: BenchmarkSystem, machine: MachineSpec, algorithm: str,
                 pairs: Sequence[Tuple[int, int]], reference_m: int,
                 procs_per_node: int = 16,
                 reference_machine: MachineSpec | None = None) -> ScalingSeries:
    """Figs. 8a/11a: relative efficiency at fixed m per node.

    ``pairs`` lists ``(nodes, m)`` combinations; relative efficiency is the
    per-node GFlop/s rate divided by the single-node ITensor rate at
    ``reference_m`` (the paper's normalization).
    """
    ref_machine = reference_machine or machine
    ref = itensor_reference(system, reference_m, ref_machine)
    series = ScalingSeries(label=f"weak/{system.name}/{algorithm}")
    for nodes, m in pairs:
        world = SimWorld(nodes=nodes, procs_per_node=procs_per_node,
                         machine=machine)
        step = model_dmrg_step(system, m, world, algorithm)
        eff = step.gflops_rate_per_node / ref.gflops_rate
        series.add(nodes, eff, note=f"m={m}")
    return series


def peak_relative_efficiency(system: BenchmarkSystem, machine: MachineSpec,
                             algorithm: str, nodes_list: Sequence[int],
                             ms: Sequence[int], reference_m: int,
                             procs_per_node_options: Sequence[int] = (16, 32),
                             ) -> ScalingSeries:
    """Figs. 8b/11b: best relative efficiency observed at each node count."""
    ref = itensor_reference(system, reference_m, machine)
    series = ScalingSeries(label=f"peak-eff/{system.name}/{algorithm}")
    for nodes in nodes_list:
        best, best_note = 0.0, ""
        for ppn in procs_per_node_options:
            for m in ms:
                world = SimWorld(nodes=nodes, procs_per_node=ppn,
                                 machine=machine)
                step = model_dmrg_step(system, m, world, algorithm)
                eff = step.gflops_rate_per_node / ref.gflops_rate
                if eff > best:
                    best, best_note = eff, f"m={m}, {ppn}/node"
        series.add(nodes, best, note=best_note)
    return series


def strong_scaling(system: BenchmarkSystem, machine: MachineSpec,
                   algorithm: str, m: int, nodes_list: Sequence[int],
                   procs_per_node: int = 16
                   ) -> Tuple[ScalingSeries, ScalingSeries]:
    """Figs. 9/12: speedup and efficiency versus nodes at fixed ``m``."""
    times = []
    for nodes in nodes_list:
        world = SimWorld(nodes=nodes, procs_per_node=procs_per_node,
                         machine=machine)
        times.append(model_dmrg_step(system, m, world, algorithm).seconds)
    base_nodes, base_time = nodes_list[0], times[0]
    speedup = ScalingSeries(label=f"speedup/{system.name}/{algorithm}/m={m}")
    efficiency = ScalingSeries(label=f"efficiency/{system.name}/{algorithm}/m={m}")
    for nodes, t in zip(nodes_list, times):
        s = base_time / t if t > 0 else 0.0
        speedup.add(nodes, s)
        efficiency.add(nodes, s / (nodes / base_nodes))
    return speedup, efficiency


def cost_time_points(system: BenchmarkSystem, machine: MachineSpec,
                     algorithms: Sequence[str], ms: Sequence[int],
                     nodes_options: Sequence[int],
                     procs_per_node_options: Sequence[int] = (16, 32),
                     reference_m: int | None = None) -> List[Dict]:
    """Figs. 10/13: relative time and node-hour cost versus single-node ITensor.

    The reference time for each ``m`` is extrapolated from ITensor's maximum
    performance rate (measured at ``reference_m``), exactly as the paper does
    for problem sizes that do not fit on one node.
    """
    reference_m = reference_m if reference_m is not None else min(ms)
    ref = itensor_reference(system, reference_m, machine)
    ref_rate = ref.gflops_rate * 1e9  # flops / s
    points: List[Dict] = []
    for algorithm in algorithms:
        for m in ms:
            for nodes in nodes_options:
                for ppn in procs_per_node_options:
                    world = SimWorld(nodes=nodes, procs_per_node=ppn,
                                     machine=machine)
                    step = model_dmrg_step(system, m, world, algorithm)
                    itensor_time = step.useful_flops / ref_rate
                    if not world.fits_in_memory(
                            step.davidson_memory + step.environment_memory):
                        continue
                    rel_time = step.seconds / itensor_time
                    rel_cost = rel_time * nodes
                    points.append({
                        "system": system.name, "algorithm": algorithm, "m": m,
                        "nodes": nodes, "procs_per_node": ppn,
                        "relative_time": rel_time, "relative_cost": rel_cost,
                        "gflops": step.gflops_rate,
                        "speedup_rate": step.gflops_rate /
                        max(ref.gflops_rate, 1e-30),
                    })
    return points


def pareto_front(points: List[Dict]) -> List[Dict]:
    """The Pareto-optimal subset (minimal relative time for given cost)."""
    chosen = []
    for p in points:
        dominated = any(q["relative_cost"] <= p["relative_cost"] and
                        q["relative_time"] < p["relative_time"] and q is not p
                        for q in points)
        if not dominated:
            chosen.append(p)
    return sorted(chosen, key=lambda p: p["relative_cost"])


def headline_speedups(system: BenchmarkSystem, machine: MachineSpec,
                      ms: Sequence[int], nodes_for_m: Dict[int, int],
                      reference_m: int, algorithm: str = "list",
                      procs_per_node: int = 16) -> List[Dict]:
    """The paper's headline numbers: wall-clock speedup and rate speedup vs ITensor.

    The abstract quotes "up to 5.9X in runtime and 99X in processing rate over
    ITensor, at roughly comparable computational resource use".
    """
    ref = itensor_reference(system, reference_m, machine)
    ref_rate = ref.gflops_rate
    out = []
    for m in ms:
        nodes = nodes_for_m[m]
        world = SimWorld(nodes=nodes, procs_per_node=procs_per_node,
                         machine=machine)
        step = model_dmrg_step(system, m, world, algorithm)
        itensor_time = step.useful_flops / (ref_rate * 1e9)
        out.append({
            "m": m, "nodes": nodes,
            "time_speedup": itensor_time / step.seconds,
            "rate_speedup": step.gflops_rate / ref_rate,
            "relative_cost": (step.seconds * nodes) / itensor_time,
            "gflops": step.gflops_rate,
        })
    return out
