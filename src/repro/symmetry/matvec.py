"""The Davidson matvec: a chain of planned contractions.

The Davidson solve of a DMRG bond applies the same projected Hamiltonian —
left environment, the MPO site tensors, right environment (Fig. 1d) — to a
changing local tensor dozens of times.  The chain is described once per bond
as a list of :class:`MatvecStage` and applied by running each stage through
``backend.contract``: the backend's plan cache skips the symbolic block
pairing on every application after the first, and ``contract`` is the single
place a backend charges its cost model and moves its layout tracker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..obs import trace
from .block_tensor import BlockSparseTensor


@dataclass(frozen=True)
class MatvecStage:
    """One contraction of the matvec chain: a static operand applied to the
    flowing tensor (``static_side`` names which tensordot operand is static)."""

    static: BlockSparseTensor
    static_side: str                       # 'a' or 'b'
    axes: Tuple[Tuple[int, ...], Tuple[int, ...]]
    operand_keys: Tuple[Optional[str], Optional[str]] = (None, None)
    out_key: Optional[str] = None


class MatvecCompiler:
    """Applies one effective Hamiltonian's stage list through its backend.

    (The name is pinned, see below: nothing is compiled.)
    """

    def __init__(self, backend, stages: Sequence[MatvecStage]):
        self.backend = backend
        self.stages = list(stages)

    def apply(self, x: BlockSparseTensor) -> BlockSparseTensor:
        """Run ``x`` through every stage's ``backend.contract`` in order."""
        self.backend.matvec_applies += 1
        contract = self.backend.contract
        with trace.span("matvec", "matvec"):
            for stg in self.stages:
                a, b = (stg.static, x) if stg.static_side == "a" \
                    else (x, stg.static)
                x = contract(a, b, axes=stg.axes,
                             operand_keys=stg.operand_keys,
                             out_key=stg.out_key)
        return x


# --------------------------------------------------------------------------- #
# Pinned by benchmarks/e2e (off-limits to the change that removed the compiled
# matvec programs): ``layers.ENTRIES`` must resolve ``MatvecCompiler.apply``,
# ``MatvecProgram.execute`` and ``SweepProgramCache.bind`` here plus the
# compiled-stage charge hook of ``ContractionBackend`` (``backends/base.py``),
# and ``run.py::per_layer`` indexes the zero report keys listed in
# ``obs.metrics.PINNED_ZERO_RUN_METRICS``.  The placeholders are never
# constructed or called; the [benchmark] change that re-declares the layer
# table and re-baselines ``baseline.json`` deletes them and renames
# ``MatvecCompiler``.
# --------------------------------------------------------------------------- #
class MatvecProgram:
    """Placeholder for a removed class (see the pin comment above)."""

    def execute(self, x, backend):
        """Removed with the compiled matvec programs."""
        raise NotImplementedError("compiled matvec programs were removed")


class SweepProgramCache:
    """Placeholder for a removed class (see the pin comment above)."""

    def bind(self, bond_key, signature, statics):
        """Removed with the compiled matvec programs."""
        raise NotImplementedError("compiled matvec programs were removed")
