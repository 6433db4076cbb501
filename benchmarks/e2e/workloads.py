"""The benchmark's workloads, their pinned references and the failure rules.

Each workload is one whole DMRG run described by a ``RunSpec`` dict; the
program receives nothing else.  The seed only enters ``RunSpec.seed``.
References were taken at seed 0 on the commit that added the benchmark;
energies, sweep counts, bond dimensions and modelled seconds do not depend on
the host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

_SPINS = {"model": "j1j2-cylinder", "params": {"lx": 6, "ly": 4}}
_ELECTRONS = {"model": "triangular-hubbard", "params": {"lx": 4, "ly": 3}}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and what a correct run of it returns."""

    name: str
    why: str
    spec: Dict[str, object]
    #: ``tail_sweep_s`` is the median of ``sweeps[].seconds`` over this many
    #: final sweeps (1 = the single sweep at full ``maxdim``, Figs. 8-13)
    tail_sweeps: int
    energy: float
    max_bond_dimension: int
    modelled_seconds: Optional[float] = None
    #: pass ``checkpoint_path`` (a fresh file in the scratch dir) to the run
    checkpoint: bool = False

    def run_spec(self, seed: int) -> Dict[str, object]:
        """The ``RunSpec`` dict of this workload at ``seed``."""
        return {**self.spec, "seed": int(seed)}


WORKLOADS = (
    Workload(
        name="spins-ramp",
        why="few large blocks on a ramp to m=256: the final sweep is GEMM "
            "stages plus 3.5 GB of freshly faulted arena; compile ~20%",
        spec={**_SPINS, "schedule": "ramp", "maxdim": 256, "nsweeps": 6},
        tail_sweeps=1, energy=-12.43996123447383, max_bond_dimension=256),
    Workload(
        name="electrons-ramp",
        why="many small blocks (two U(1) charges) on the same ramp: plan "
            "build and compile dominate, GEMM is ~6%; only one that "
            "checkpoints",
        spec={**_ELECTRONS, "schedule": "ramp", "maxdim": 256, "nsweeps": 6},
        tail_sweeps=1, energy=-5.498069774266242, max_bond_dimension=256,
        checkpoint=True),
    Workload(
        name="spins-steady",
        why="fixed m=96 for 16 sweeps: tail sweeps do 0 compiles and 0 "
            "arena bytes, so they bypass compile/allocation and expose "
            "per-call overhead",
        spec={**_SPINS, "schedule": "fixed", "maxdim": 96, "nsweeps": 16},
        tail_sweeps=8, energy=-12.439924365569112, max_bond_dimension=96),
    Workload(
        name="spins-dist",
        why="same layers through the sparse-sparse charging backend on 4x16 "
            "modelled ranks: ~40% of wall is the ctf cost world replaying "
            "charges",
        spec={**_SPINS, "schedule": "ramp", "maxdim": 128, "nsweeps": 6,
              "backend": "sparse-sparse", "machine": "blue-waters",
              "nodes": 4, "procs_per_node": 16},
        tail_sweeps=1, energy=-12.439951198913494, max_bond_dimension=128,
        modelled_seconds=11.583131678583275),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: a discarded first child per invocation: warms the page cache and the
#: ``__pycache__`` of a fresh checkout so no measured child compiles bytecode
WARMUP_SPEC = {"model": "heisenberg-chain", "params": {"n": 6}, "maxdim": 8,
               "nsweeps": 2}


def check_run(workload: Workload, record: Dict[str, object], seed: int
              ) -> List[str]:
    """Why this run counts as failed (empty list: it passed).

    ``record`` is what the child printed: either ``{"error": ...}`` or the
    report keys ``energies``, ``max_bond_dimension``, ``sweeps`` and
    ``modelled_seconds``.
    """
    if record.get("error"):
        return [f"raised: {record['error']}"]
    reasons: List[str] = []
    energy = record["energies"][0]
    sweeps = record["sweeps"]
    if not all(math.isfinite(e) for e in [energy] + [s["energy"] for s in sweeps]):
        return [f"non-finite energy {energy!r}"]
    expected_sweeps = workload.spec["nsweeps"]
    if len(sweeps) != expected_sweeps:
        reasons.append(f"{len(sweeps)} sweeps, expected {expected_sweeps}")
    for i in range(1, len(sweeps)):
        prev, cur = sweeps[i - 1]["energy"], sweeps[i]["energy"]
        if cur > prev + 1e-9:
            reasons.append(f"energy rose in sweep {i}: {prev!r} -> {cur!r}")
    if record["max_bond_dimension"] != workload.max_bond_dimension:
        reasons.append(f"max_bond_dimension {record['max_bond_dimension']}, "
                       f"expected {workload.max_bond_dimension}")
    tol = 1e-8 if seed == 0 else 1e-6
    if abs(energy - workload.energy) > tol:
        reasons.append(f"energy {energy!r} is off the reference "
                       f"{workload.energy!r} by more than {tol:g}")
    if workload.modelled_seconds is not None:
        modelled = record.get("modelled_seconds")
        if modelled is None or abs(modelled / workload.modelled_seconds - 1) > 1e-9:
            reasons.append(f"modelled_seconds {modelled!r}, expected "
                           f"{workload.modelled_seconds!r}")
    return reasons
