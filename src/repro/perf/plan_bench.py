"""Invariant gate of the modelled cost path (the ``repro bench`` target
``layout``).

It checks the sweep-persistent layout tracker: first touch charges,
unchanged layouts are free, tracked totals never exceed the untracked
model.  It is modelled, so it is exact and host-independent.
"""

from __future__ import annotations

from typing import Dict

from .report import format_table


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
        charge_contraction(w_off, "sparse-sparse", env, x, axes)
    # tracker on: the operands keep their layout after the first touch
    w_on = make_world()
    seconds = []
    for _ in range(davidson_matvecs):
        before = w_on.modelled_seconds()
        charge_contraction(w_on, "sparse-sparse", env, x, axes,
                           operand_keys=("env", "x"), out_key="hx")
        seconds.append(w_on.modelled_seconds() - before)
    # reference: one untracked contraction = the first tracked one
    w_ref = make_world()
    charge_contraction(w_ref, "sparse-sparse", env, x, axes)
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
