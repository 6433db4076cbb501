"""DMRG configuration and sweep schedules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence


@dataclass
class Sweeps:
    """An ITensor-style sweep table.

    Each sweep has its own bond-dimension cap and truncation cutoff; the paper
    "gradually increases the bond dimension of the MPS, sweeping over all sites
    multiple times for each successive bond dimension choice" (Section II-C).
    """

    maxdims: List[int]
    cutoffs: List[float]
    davidson_iterations: List[int]

    @classmethod
    def ramp(cls, maxdim: int, nsweeps: int, *, cutoff: float = 1e-10,
             min_dim: int = 8, davidson_iterations: int = 3) -> "Sweeps":
        """A schedule that doubles the bond dimension up to ``maxdim``."""
        dims = []
        d = min_dim
        for _ in range(nsweeps):
            dims.append(min(d, maxdim))
            d *= 2
        return cls(dims, [cutoff] * nsweeps,
                   [davidson_iterations] * nsweeps)

    @classmethod
    def fixed(cls, maxdim: int, nsweeps: int, *, cutoff: float = 1e-10,
              davidson_iterations: int = 3) -> "Sweeps":
        """A schedule with a constant bond dimension."""
        return cls([maxdim] * nsweeps, [cutoff] * nsweeps,
                   [davidson_iterations] * nsweeps)

    def __len__(self) -> int:
        return len(self.maxdims)

    def __post_init__(self):
        n = len(self.maxdims)
        if len(self.cutoffs) != n or len(self.davidson_iterations) != n:
            raise ValueError("sweep schedule lists must have equal length")


@dataclass
class DMRGConfig:
    """Parameters of the sweep engine, honoured alike by every driver.

    ``svd_min`` reproduces the paper's policy of discarding all singular
    values below 1e-12 regardless of the cutoff (Section II-C).
    """

    sweeps: Sweeps
    svd_min: float = 1e-12
    davidson_tol: float = 1e-10
    davidson_max_subspace: int = 8
    energy_tol: float = 0.0          # stop early when sweep-to-sweep change is below
    site_ranges: Sequence[tuple[int, int]] | None = None  # restrict optimized sites
    record_site_details: bool = True
    #: called as ``sweep_hook(sweep_index, psi, result)`` after every
    #: completed sweep (records already appended).  The experiment runner
    #: (:mod:`repro.exp.runner`) uses it to write DMRG checkpoints so an
    #: interrupted campaign run can resume mid-schedule; a hook that raises
    #: aborts the run after the checkpoint is on disk.
    sweep_hook: Optional[Callable[[int, object, "DMRGResult"], None]] = None
    verbose: bool = False


@dataclass
class SiteRecord:
    """Per-optimization measurement (feeds Figs. 5-7 style analyses)."""

    sweep: int
    site: int
    direction: str
    energy: float
    bond_dim: int
    truncation_error: float
    davidson_iterations: int
    matvecs: int
    flops: float
    seconds: float


def _share(metrics: Dict[str, float], name: str, other: str) -> float:
    """``name / (name + other)`` over a metrics dict (0.0 when both are 0)."""
    a, b = metrics.get(name, 0), metrics.get(other, 0)
    return a / (a + b) if a + b else 0.0


@dataclass
class SweepRecord:
    """Per-sweep summary.

    ``metrics`` holds this sweep's counter deltas under their
    :mod:`repro.obs.metrics` names (the counters of
    :data:`StatsRecorder.SOURCES`).
    """

    sweep: int
    energy: float
    max_bond_dim: int
    max_truncation_error: float
    seconds: float
    flops: float
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def plan_hit_rate(self) -> float:
        """Fraction of this sweep's contractions served by a cached plan."""
        return _share(self.metrics, "plan_cache.hits", "plan_cache.misses")

    @property
    def layout_reuse_rate(self) -> float:
        """Fraction of this sweep's tracked operand touches that were free."""
        return _share(self.metrics, "layout.reuses", "layout.moves")


class StatsRecorder:
    """Counter deltas of one DMRG run (and per sweep), by metric name.

    The one place the sweep engine reads the plan cache and the layout
    tracker.  A source the run does not have (no planner, no simulated
    world) contributes zeros.
    """

    #: metric name -> (source, attribute); ``*_seconds`` are wall-clock
    #: accumulators reported per run only, the rest are counters reported
    #: per sweep and per run
    SOURCES = {
        "plan_cache.hits": ("plan_cache", "hits"),
        "plan_cache.misses": ("plan_cache", "misses"),
        "layout.moves": ("tracker", "charged_moves"),
        "layout.reuses": ("tracker", "reuses"),
        "plan_cache.plan_seconds": ("plan_cache", "plan_seconds"),
        "plan_cache.execute_seconds": ("plan_cache", "execute_seconds"),
    }

    def __init__(self, backend):
        world = getattr(backend, "world", None)
        self._objects = {
            "plan_cache": getattr(backend, "plan_cache", None),
            "tracker": getattr(world, "layout_tracker", None),
        }
        self._run0 = self._sweep0 = self._snap()

    def _snap(self) -> Dict[str, float]:
        return {name: getattr(self._objects[source], attr,
                              0.0 if name.endswith("_seconds") else 0)
                for name, (source, attr) in self.SOURCES.items()}

    def start_sweep(self) -> None:
        """Mark the beginning of a sweep."""
        self._sweep0 = self._snap()

    def sweep_metrics(self) -> Dict[str, float]:
        """Counter deltas since :meth:`start_sweep`."""
        now = self._snap()
        return {name: now[name] - self._sweep0[name] for name in now
                if not name.endswith("_seconds")}

    def run_metrics(self) -> Dict[str, float]:
        """Counter and plan/execute-seconds deltas since construction."""
        now = self._snap()
        return {name: now[name] - self._run0[name] for name in now}


@dataclass
class DMRGResult:
    """Final result of a DMRG run.

    ``metrics`` holds the run's counter deltas under their
    :mod:`repro.obs.metrics` names (every entry of
    :data:`StatsRecorder.SOURCES`), written once when the run ends.
    """

    energy: float
    energies: List[float] = field(default_factory=list)
    sweep_records: List[SweepRecord] = field(default_factory=list)
    site_records: List[SiteRecord] = field(default_factory=list)
    converged: bool = False
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def total_flops(self) -> float:
        """Total flops over all sweeps."""
        return sum(r.flops for r in self.sweep_records)

    @property
    def total_seconds(self) -> float:
        """Total wall-clock seconds over all sweeps."""
        return sum(r.seconds for r in self.sweep_records)

    @property
    def plan_cache_hit_rate(self) -> float:
        """Plan-cache hit rate over the whole run (0.0 without a planner)."""
        return _share(self.metrics, "plan_cache.hits", "plan_cache.misses")

    @property
    def layout_reuse_rate(self) -> float:
        """Fraction of tracked operand touches served in place (free)."""
        return _share(self.metrics, "layout.reuses", "layout.moves")
