"""Performance accounting, cost models, and scaling experiment drivers.

Only the flop-counting utilities are imported eagerly (they are needed by the
low-level tensor layer); the block-structure / complexity / scaling modules are
loaded lazily on first attribute access to avoid circular imports.
"""

from . import flops
from .flops import (FlopCounter, add_flops, count_flops, global_counter,
                    total_flops)

_LAZY = {
    "GeometricBlockModel": "block_model",
    "MeasuredBlockStructure": "block_model",
    "ComplexityEntry": "complexity",
    "scaling_exponent": "complexity",
    "table2": "complexity",
    "table2_entry": "complexity",
    "ShapeTensor": "shapesim",
    "charge_contraction": "shapesim",
    "charge_svd": "shapesim",
    "plan_shape_contraction": "shapesim",
    "BenchmarkSystem": "systems",
    "electrons_system": "systems",
    "get_system": "systems",
    "spins_system": "systems",
    "DAVIDSON_MATVECS": "scaling",
    "ScalingSeries": "scaling",
    "StepCost": "scaling",
    "column_times": "scaling",
    "cost_time_points": "scaling",
    "davidson_vector_ops": "scaling",
    "headline_speedups": "scaling",
    "itensor_reference": "scaling",
    "layout_tracker_comparison": "scaling",
    "model_dmrg_step": "scaling",
    "pareto_front": "scaling",
    "peak_performance": "scaling",
    "peak_relative_efficiency": "scaling",
    "strong_scaling": "scaling",
    "time_breakdown": "scaling",
    "weak_scaling": "scaling",
    "format_breakdown": "report",
    "format_layout_comparison": "report",
    "format_layout_tracker": "report",
    "format_series": "report",
    "format_table": "report",
    "format_table1": "report",
    "format_layout_check": "plan_bench",
    "run_layout_check": "plan_bench",
    "format_sweep_records": "report",
}

__all__ = ["flops", "FlopCounter", "add_flops", "count_flops",
           "global_counter", "total_flops"] + sorted(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        import importlib
        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
