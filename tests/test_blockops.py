"""Tests for the pluggable block-operations layer (blockops seam).

The contract under test: the instance passed as ``block_ops=`` is the one
that executes (shown with a call-counting :class:`BlockOps` subclass, the
way a device implementation would plug in), and the modelled cost
accounting (profiler seconds, plan statistics, layout-tracker state) never
sees the implementation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.symmetry import BlockOps, NumpyOps, resolve_block_ops


class CountingOps(BlockOps):
    """The numpy kernels plus a per-kernel call count (an injected fake)."""

    name = "counting"

    def __init__(self):
        self.calls = Counter()

    def matmul(self, a, b, out=None):
        self.calls["matmul"] += 1
        return super().matmul(a, b, out=out)

    def svd(self, mat):
        self.calls["svd"] += 1
        return super().svd(mat)

    def qr(self, mat):
        self.calls["qr"] += 1
        return super().qr(mat)

    def eigh(self, mat):
        self.calls["eigh"] += 1
        return super().eigh(mat)


class TestResolution:
    def test_named_singletons(self):
        # no name registry any more: ``None`` is the one numpy instance
        from repro.backends import DirectBackend
        default = resolve_block_ops(None)
        assert default is resolve_block_ops(None)
        assert type(default) is BlockOps and default.name == "numpy"
        assert DirectBackend().block_ops is default

    def test_unknown_name_rejected(self):
        from repro.backends import DirectBackend
        for name in ("numpy", "threaded", "cupy"):
            with pytest.raises(TypeError, match="BlockOps instance"):
                resolve_block_ops(name)
        with pytest.raises(TypeError, match="BlockOps instance"):
            DirectBackend(block_ops="numpy")

    def test_resolve_coercions(self):
        from repro.backends import DirectBackend
        ops = CountingOps()
        assert resolve_block_ops(ops) is ops
        assert DirectBackend(block_ops=ops).block_ops is ops
        assert resolve_block_ops(None).name == "numpy"
        with pytest.raises(TypeError):
            resolve_block_ops(42)

    def test_numpy_alias_and_name(self):
        assert NumpyOps is BlockOps
        assert BlockOps().name == "numpy"


class TestModelledCostsInvariant:
    """Plans, modelled seconds and tracker state never see the kernels."""

    @pytest.mark.parametrize("backend_name",
                             ["list", "sparse-dense", "sparse-sparse"])
    def test_dmrg_costs_bit_identical(self, backend_name):
        from repro.backends import make_backend
        from repro.ctf import BLUE_WATERS, SimWorld
        from repro.dmrg import DMRGConfig, Sweeps, dmrg
        from repro.models import heisenberg_chain_model
        from repro.mps import MPS, build_mpo

        lattice, sites, opsum, config_state = heisenberg_chain_model(8)
        mpo = build_mpo(opsum, sites, compress=True)
        psi0 = MPS.product_state(sites, config_state)
        sweeps = Sweeps.fixed(16, 3, cutoff=1e-10)
        out = []
        for ops in (None, CountingOps()):
            gemms_after_sweep = []

            def hook(sweep_index, psi, result):
                gemms_after_sweep.append(ops.calls["matmul"] if ops else 0)

            world = SimWorld(nodes=4, procs_per_node=16, machine=BLUE_WATERS)
            backend = make_backend(backend_name, world, block_ops=ops)
            res, _ = dmrg(mpo, psi0,
                          DMRGConfig(sweeps=sweeps, sweep_hook=hook),
                          backend=backend, rng=np.random.default_rng(9))
            out.append((res.energy, world.modelled_seconds(),
                        world.layout_tracker.snapshot(),
                        res.metrics["plan_cache.hits"],
                        res.metrics["plan_cache.misses"]))
        (e0, sec0, trk0, h0, m0), (e1, sec1, trk1, h1, m1) = out
        assert e0 == e1              # bit-identical arithmetic
        assert sec0 == sec1          # modelled seconds bit-identical
        assert trk0 == trk1          # layout-tracker state bit-identical
        assert (h0, m0) == (h1, m1)  # plan statistics unchanged
        # the injected instance is the one that executed, in every sweep
        assert 0 < gemms_after_sweep[0] < gemms_after_sweep[1] \
            < gemms_after_sweep[2]
        assert ops.calls["svd"] > 0
        assert backend.block_ops is ops

    def test_compiled_matvec_identical(self):
        from repro.backends import DirectBackend
        from repro.dmrg import EffectiveHamiltonian
        from repro.perf.microbench import heff_setup

        left, w1, w2, right, x = heff_setup(10, 12)
        counting = CountingOps()
        ys = []
        for ops in (None, counting):
            backend = DirectBackend(block_ops=ops)
            heff = EffectiveHamiltonian(left, (w1, w2), right, backend)
            ys.append(heff.apply(x))
        assert (ys[0] - ys[1]).norm() == 0.0
        assert counting.calls["matmul"] > 0


class TestDavidsonSubspaceDtype:
    def test_subspace_dtype_table(self):
        from repro.dmrg.davidson import _subspace_dtype
        assert _subspace_dtype(np.dtype(np.float32)) == np.float64
        assert _subspace_dtype(np.dtype(np.float64)) == np.float64
        assert _subspace_dtype(np.dtype(np.complex64)) == np.complex128
        assert _subspace_dtype(np.dtype(np.complex128)) == np.complex128


class TestRunSpecEngineFields:
    #: run ids of the benchmark's four workload specs at seed 0, computed
    #: while the removed fields still existed; no removal may move them
    WORKLOAD_RUN_IDS = (
        ({"model": "j1j2-cylinder", "params": {"lx": 6, "ly": 4},
          "schedule": "ramp", "maxdim": 256, "nsweeps": 6, "seed": 0},
         "j1j2-cylinder-two-site-95c9cb6453b1"),
        ({"model": "triangular-hubbard", "params": {"lx": 4, "ly": 3},
          "schedule": "ramp", "maxdim": 256, "nsweeps": 6, "seed": 0},
         "triangular-hubbard-two-site-cdc0c515249d"),
        ({"model": "j1j2-cylinder", "params": {"lx": 6, "ly": 4},
          "schedule": "fixed", "maxdim": 96, "nsweeps": 16, "seed": 0},
         "j1j2-cylinder-two-site-06a5f2f2bdee"),
        ({"model": "j1j2-cylinder", "params": {"lx": 6, "ly": 4},
          "schedule": "ramp", "maxdim": 128, "nsweeps": 6,
          "backend": "sparse-sparse", "machine": "blue-waters", "nodes": 4,
          "procs_per_node": 16, "seed": 0},
         "j1j2-cylinder-two-site-c8ec0988f1fe"),
    )

    def test_defaults_keep_run_id(self):
        from repro.exp import RunSpec
        base = RunSpec.from_dict({"model": "heisenberg-chain"})
        # archived reports and spec files carry the removed fields at their
        # only surviving values; neither was part of the hashed payload
        explicit = RunSpec.from_dict({"model": "heisenberg-chain",
                                      "block_ops": "numpy",
                                      "mixed_precision": False})
        assert base == explicit and base.run_id == explicit.run_id
        for gone in ("block_ops", "mixed_precision"):
            assert gone not in base.canonical_json()
            assert gone not in base.to_dict()
        for spec, run_id in self.WORKLOAD_RUN_IDS:
            assert RunSpec.from_dict(spec).run_id == run_id
            archived = {**spec, "block_ops": "numpy",
                        "mixed_precision": False}
            assert RunSpec.from_dict(archived).run_id == run_id

    def test_non_default_changes_run_id(self):
        from repro.exp import RunSpec
        base = RunSpec.from_dict({"model": "heisenberg-chain"})
        assert base.run_id != replace(base, seed=1).run_id
        with pytest.raises(ValueError, match="warm-up was removed"):
            RunSpec.from_dict({"model": "heisenberg-chain",
                               "mixed_precision": True})

    def test_roundtrip_and_validation(self):
        from repro.exp import RunSpec
        spec = RunSpec.from_dict({"model": "heisenberg-chain"})
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec and again.run_id == spec.run_id
        assert "mixed-precision" not in spec.summary()
        assert "ops=" not in spec.summary()
        with pytest.raises(ValueError, match="warm-up was removed"):
            RunSpec.from_dict({"model": "heisenberg-chain",
                               "mixed_precision": 1})
        for gone in ("threaded", "process"):
            with pytest.raises(ValueError, match="executors were removed"):
                RunSpec.from_dict({"model": "heisenberg-chain",
                                   "block_ops": gone})
