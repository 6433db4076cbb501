"""Invariant gates of the modelled cost path (``repro bench`` targets).

``plan-cost`` checks the plan-aware distributed cost model against the
aggregate-nnz model (equal on a single dense block, never worse on
block-sparse structure, block-aligned redistribution strictly cheaper);
``layout`` checks the sweep-persistent layout tracker (first touch charges,
unchanged layouts are free, tracked totals never exceed the untracked
model).  Both are modelled, so they are exact and host-independent.
"""

from __future__ import annotations

from typing import Dict

from .report import format_table


def dense_block_scenario(m: int, d: int = 2):
    """The single-dense-block env x two-site contraction pair.

    One trivial (single-sector) bond of dimension ``m`` and physical
    dimension ``d``: the contraction plan touches everything, so the
    plan-aware and aggregate cost models must agree exactly on it.  Shared
    by the smoke invariant check and the plan-aware benchmark table so the
    guarded scenario cannot drift between them.
    """
    from ..symmetry import Index
    from .shapesim import ShapeTensor

    tb = Index.trivial(m, 1)
    env = ShapeTensor((tb.with_flow(1), tb.dual()))
    x = ShapeTensor((tb.with_flow(1), Index.trivial(d, 1), tb.dual()))
    return env, x


def run_plan_cost_check(*, m: int = 128, nodes: int = 4,
                        procs_per_node: int = 16) -> Dict[str, float]:
    """Consistency check of the plan-aware distributed cost model.

    Models the dominant environment x two-site contraction once with the
    aggregate-nnz model and once plan-aware, on (a) a single dense block and
    (b) the paper's geometric block structure, and returns the modelled
    seconds plus the block-aligned vs dense redistribution volumes.  The
    invariants (`dense_equal`, `block_not_worse`, `redis_strictly_less`) are
    what ``python -m repro bench --smoke`` asserts.
    """
    from ..ctf import BLUE_WATERS, SimWorld
    from ..symmetry import Index
    from .block_model import GeometricBlockModel
    from .shapesim import (ShapeTensor, charge_contraction,
                           plan_shape_contraction)

    def _model_once(env, x, plan_aware):
        world = SimWorld(nodes=nodes, procs_per_node=procs_per_node,
                         machine=BLUE_WATERS)
        charge_contraction(world, "sparse-sparse", env, x, ([1], [0]),
                           plan_aware=plan_aware)
        return world.modelled_seconds()

    # (a) single dense block: plan-aware must equal the aggregate model
    dense_env, dense_x = dense_block_scenario(m)
    dense_agg = _model_once(dense_env, dense_x, False)
    dense_plan = _model_once(dense_env, dense_x, True)

    # (b) geometric block structure: plan-aware must not charge more, and a
    # block-aligned redistribution must beat the dense bound strictly
    bond = GeometricBlockModel.spins().bond_index(m)
    phys = Index([(0,), (1,)], [1, 1], flow=1)
    env = ShapeTensor((bond.with_flow(1), bond.dual()))
    x = ShapeTensor((bond.with_flow(1), phys, bond.dual()))
    block_agg = _model_once(env, x, False)
    block_plan = _model_once(env, x, True)

    plan = plan_shape_contraction(env, x, ([1], [0]))
    world = SimWorld(nodes=nodes, procs_per_node=procs_per_node,
                     machine=BLUE_WATERS)
    redis_dense = world.charge_redistribution(x.dense_size)
    redis_plan = world.charge_redistribution(plan=plan, operand="b")

    tol = 1e-12
    return {
        "m": m, "nodes": nodes,
        "dense_aggregate_seconds": dense_agg,
        "dense_plan_seconds": dense_plan,
        "block_aggregate_seconds": block_agg,
        "block_plan_seconds": block_plan,
        "redistribution_dense_seconds": redis_dense,
        "redistribution_plan_seconds": redis_plan,
        "dense_equal": abs(dense_agg - dense_plan) <= tol * max(dense_agg, 1.0),
        "block_not_worse": block_plan <= block_agg + tol,
        "redis_strictly_less": redis_plan < redis_dense,
    }


def run_layout_check(*, m: int = 96, nodes: int = 4,
                     procs_per_node: int = 16,
                     davidson_matvecs: int = 3) -> Dict[str, float]:
    """Invariant check of the sweep-persistent layout tracker.

    Exercises the tracked sparse-sparse recipe on the paper's geometric
    block structure and returns the invariants ``python -m repro bench
    --smoke`` asserts (the ``layout`` target):

    * ``first_touch_charges`` — the first contraction of a tracked operand
      pays exactly the untracked remapping cost;
    * ``unchanged_free`` — repeating the same contraction charges zero
      redistribution (layouts persist across Davidson iterations);
    * ``tracked_not_worse`` — the tracked total never exceeds the
      per-contraction (tracker-off) model;
    * ``transposition_share_decreases`` — the modelled Fig. 7 "CTF
      transposition" share strictly shrinks with the tracker on.
    """
    from ..ctf import BLUE_WATERS, SimWorld
    from ..symmetry import Index
    from .block_model import GeometricBlockModel
    from .shapesim import ShapeTensor, charge_contraction
    from .systems import get_system
    from .scaling import layout_tracker_comparison

    def make_world():
        return SimWorld(nodes=nodes, procs_per_node=procs_per_node,
                        machine=BLUE_WATERS)

    bond = GeometricBlockModel.spins().bond_index(m)
    phys = Index([(0,), (1,)], [1, 1], flow=1)
    env = ShapeTensor((bond.with_flow(1), bond.dual()))
    x = ShapeTensor((bond.with_flow(1), phys, bond.dual()))
    axes = ([1], [0])

    # tracker off: every matvec remaps both operands
    w_off = make_world()
    for _ in range(davidson_matvecs):
        charge_contraction(w_off, "sparse-sparse", env, x, axes,
                           plan_aware=True)
    # tracker on: the operands keep their layout after the first touch
    w_on = make_world()
    seconds = []
    for _ in range(davidson_matvecs):
        before = w_on.modelled_seconds()
        charge_contraction(w_on, "sparse-sparse", env, x, axes,
                           plan_aware=True, operand_keys=("env", "x"),
                           out_key="hx")
        seconds.append(w_on.modelled_seconds() - before)
    # reference: one untracked contraction = the first tracked one
    w_ref = make_world()
    charge_contraction(w_ref, "sparse-sparse", env, x, axes, plan_aware=True)
    first_untracked = w_ref.modelled_seconds()
    # kernel-only cost of one contraction (no operand remapping at all)
    w_kernel = make_world()
    from .shapesim import plan_shape_contraction
    w_kernel.charge_planned_contraction(plan_shape_contraction(env, x, axes))
    kernel_only = w_kernel.modelled_seconds()

    # a consecutive-step comparison on the small spin system
    comparison = layout_tracker_comparison(
        get_system("spins", small=True), max(m, 64), BLUE_WATERS, nodes,
        "sparse-sparse", procs_per_node=procs_per_node)

    tol = 1e-12
    snap = w_on.layout_tracker.snapshot()
    return {
        "m": m, "nodes": nodes, "davidson_matvecs": davidson_matvecs,
        "first_tracked_seconds": seconds[0],
        "repeat_tracked_seconds": max(seconds[1:], default=0.0),
        "kernel_only_seconds": kernel_only,
        "untracked_seconds": first_untracked,
        "tracker_off_total": w_off.modelled_seconds(),
        "tracker_on_total": w_on.modelled_seconds(),
        "layout_moves": snap["charged_moves"],
        "layout_reuses": snap["reuses"],
        "transposition_share_off": comparison["transposition_share_off"],
        "transposition_share_on": comparison["transposition_share_on"],
        "first_touch_charges":
            abs(seconds[0] - first_untracked) <= tol * max(first_untracked, 1.0),
        "unchanged_free":
            all(abs(s - kernel_only) <= tol * max(kernel_only, 1.0)
                for s in seconds[1:]),
        "tracked_not_worse":
            w_on.modelled_seconds() <= w_off.modelled_seconds() + tol,
        "transposition_share_decreases":
            comparison["transposition_share_on"]
            < comparison["transposition_share_off"],
    }


def format_layout_check(stats: Dict[str, float]) -> str:
    """Render the layout-tracker invariant check as a fixed-width table."""
    rows = [
        ("problem", f"env x two-site, m={stats['m']}, "
                    f"{stats['nodes']} nodes, "
                    f"{stats['davidson_matvecs']} matvecs"),
        ("first tracked matvec s", f"{stats['first_tracked_seconds']:.3e}"),
        ("untracked matvec s", f"{stats['untracked_seconds']:.3e}"),
        ("first touch charges", stats["first_touch_charges"]),
        ("repeat tracked matvec s", f"{stats['repeat_tracked_seconds']:.3e}"),
        ("kernel-only s", f"{stats['kernel_only_seconds']:.3e}"),
        ("unchanged layout free", stats["unchanged_free"]),
        ("tracker-off total s", f"{stats['tracker_off_total']:.3e}"),
        ("tracker-on total s", f"{stats['tracker_on_total']:.3e}"),
        ("tracked never worse", stats["tracked_not_worse"]),
        ("transposition share off", f"{stats['transposition_share_off']:.2f}%"),
        ("transposition share on", f"{stats['transposition_share_on']:.2f}%"),
        ("transposition share decreases",
         stats["transposition_share_decreases"]),
        ("layout moves / reuses",
         f"{stats['layout_moves']} / {stats['layout_reuses']}"),
    ]
    return format_table(["metric", "value"], rows,
                        title="Sweep-persistent layout tracker invariants")


def format_plan_cost_check(stats: Dict[str, float]) -> str:
    """Render the plan-aware cost-model check as a fixed-width table."""
    rows = [
        ("problem", f"env x two-site, m={stats['m']}, "
                    f"{stats['nodes']} nodes"),
        ("dense block: aggregate s", f"{stats['dense_aggregate_seconds']:.3e}"),
        ("dense block: plan-aware s", f"{stats['dense_plan_seconds']:.3e}"),
        ("dense equal", stats["dense_equal"]),
        ("block-sparse: aggregate s",
         f"{stats['block_aggregate_seconds']:.3e}"),
        ("block-sparse: plan-aware s", f"{stats['block_plan_seconds']:.3e}"),
        ("plan-aware not worse", stats["block_not_worse"]),
        ("redistribution dense s",
         f"{stats['redistribution_dense_seconds']:.3e}"),
        ("redistribution plan-aware s",
         f"{stats['redistribution_plan_seconds']:.3e}"),
        ("plan redistribution strictly less", stats["redis_strictly_less"]),
    ]
    return format_table(["metric", "value"], rows,
                        title="Plan-aware vs aggregate-nnz distributed cost "
                              "model")
