"""Tests for the pluggable block-operations layer (blockops seam).

The contract under test: the instance passed as ``block_ops=`` is the one
that executes (shown with a call-counting :class:`BlockOps` subclass, the
way a device implementation would plug in), the modelled cost accounting
(profiler seconds, plan statistics, layout-tracker state) never sees the
implementation, and a float32 warm-up run converges to the float64 answer.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.symmetry import (BlockOps, BlockSparseTensor, Index,
                            MixedPrecisionOps, NumpyOps, resolve_block_ops)


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


def random_pair(seed):
    """A contractable pair of randomized block tensors."""
    rng = np.random.default_rng(seed)
    i1 = Index([(0,), (1,)], [3, 4], flow=1)
    i2 = Index([(0,), (1,), (2,)], [2, 3, 2], flow=1)
    i3 = Index([(-1,), (0,), (1,), (2,)], [2, 3, 3, 2], flow=-1)
    i4 = Index([(0,), (1,), (2,)], [3, 2, 2], flow=-1)
    a = BlockSparseTensor.random([i1, i2, i3], flux=(0,), rng=rng)
    b = BlockSparseTensor.random([i3.dual(), i4], flux=(0,), rng=rng)
    return a, b


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
        with pytest.raises(TypeError, match="BlockOps instance"):
            MixedPrecisionOps("numpy")

    def test_resolve_coercions(self):
        from repro.backends import DirectBackend
        ops = CountingOps()
        assert resolve_block_ops(ops) is ops
        assert DirectBackend(block_ops=ops).block_ops is ops
        assert resolve_block_ops(None).name == "numpy"
        with pytest.raises(TypeError):
            resolve_block_ops(42)

    def test_numpy_alias_and_describe(self):
        assert NumpyOps is BlockOps
        assert BlockOps().describe() == {"name": "numpy"}


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
        for warmup in ({}, {"warmup_dtype": "float32", "warmup_sweeps": 1}):
            out = []
            for ops in (None, CountingOps()):
                gemms_after_sweep = []

                def hook(sweep_index, psi, result):
                    gemms_after_sweep.append(ops.calls["matmul"] if ops
                                             else 0)

                world = SimWorld(nodes=4, procs_per_node=16,
                                 machine=BLUE_WATERS)
                backend = make_backend(backend_name, world, block_ops=ops)
                res, _ = dmrg(mpo, psi0,
                              DMRGConfig(sweeps=sweeps, sweep_hook=hook,
                                         **warmup),
                              backend=backend,
                              rng=np.random.default_rng(9))
                out.append((res.energy, world.modelled_seconds(),
                            world.layout_tracker.snapshot(),
                            res.metrics["plan_cache.hits"],
                            res.metrics["plan_cache.misses"]))
            (e0, sec0, trk0, h0, m0), (e1, sec1, trk1, h1, m1) = out
            assert e0 == e1              # bit-identical arithmetic
            assert sec0 == sec1          # modelled seconds bit-identical
            assert trk0 == trk1          # layout-tracker state bit-identical
            assert (h0, m0) == (h1, m1)  # plan statistics unchanged
            # the injected instance is the one that executed: in every
            # sweep, the float32 warm-up sweep (the wrapper delegates its
            # kernels to the instance the backend holds) included
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


class TestMixedPrecisionOps:
    def test_result_type_demotion(self):
        ops = MixedPrecisionOps(compute_dtype=np.float32)
        assert ops.result_type(np.float64) == np.float32
        assert ops.result_type(np.float32, np.float64) == np.float32
        assert ops.result_type(np.complex128) == np.complex64
        ops64 = MixedPrecisionOps(compute_dtype=np.float64)
        assert ops64.result_type(np.float64) == np.float64

    def test_prepare_downcasts(self):
        ops = MixedPrecisionOps(compute_dtype=np.float32)
        mat = np.ones((3, 3))
        assert ops.prepare(mat).dtype == np.float32
        f32 = np.ones((3, 3), dtype=np.float32)
        assert ops.prepare(f32) is f32  # already reduced: no copy

    def test_invalid_compute_dtype(self):
        with pytest.raises(ValueError):
            MixedPrecisionOps(compute_dtype=np.int32)

    def test_contract_runs_in_float32(self):
        a, b = random_pair(5)
        base = CountingOps()
        ops = MixedPrecisionOps(base, np.float32)
        assert ops.name == "counting+mixed[float32]"
        assert ops.describe() == {"name": ops.name,
                                  "compute_dtype": "float32"}
        res = a.contract(b, axes=([2], [0]), ops=ops)
        assert res.dtype == np.float32
        # the planned path's GEMMs run on the wrapped base
        from repro.backends import DirectBackend
        planned = DirectBackend(block_ops=ops).contract(a, b,
                                                        axes=([2], [0]))
        assert planned.dtype == np.float32 and base.calls["matmul"] > 0
        assert (planned - res).norm() < 1e-5 * max(1.0, res.norm())
        ref = a.contract(b, axes=([2], [0]))
        assert (res.astype(np.float64) - ref).norm() < 1e-5 * max(
            1.0, ref.norm())


class TestDavidsonSubspaceDtype:
    def test_subspace_dtype_table(self):
        from repro.dmrg.davidson import _subspace_dtype
        assert _subspace_dtype(np.dtype(np.float32)) == np.float64
        assert _subspace_dtype(np.dtype(np.float64)) == np.float64
        assert _subspace_dtype(np.dtype(np.complex64)) == np.complex128
        assert _subspace_dtype(np.dtype(np.complex128)) == np.complex128


class TestMixedPrecisionDMRG:
    def test_warmup_matches_float64(self):
        from repro.backends import DirectBackend
        from repro.dmrg import DMRGConfig, Sweeps, dmrg
        from repro.models import heisenberg_chain_model
        from repro.mps import MPS, build_mpo

        lattice, sites, opsum, config_state = heisenberg_chain_model(8)
        mpo = build_mpo(opsum, sites, compress=True)
        psi0 = MPS.product_state(sites, config_state)
        sweeps = Sweeps.fixed(16, 4, cutoff=1e-10)

        dtypes_seen = []

        def hook(sweep_index, psi, result):
            dtypes_seen.append(
                np.result_type(*(t.dtype for t in psi.tensors)))

        backend = DirectBackend()
        base_ops = backend.block_ops
        res64, _ = dmrg(mpo, psi0, DMRGConfig(sweeps=sweeps),
                        backend=DirectBackend(),
                        rng=np.random.default_rng(2))
        res_mix, psi_mix = dmrg(
            mpo, psi0,
            DMRGConfig(sweeps=sweeps, warmup_dtype="float32",
                       warmup_sweeps=2, sweep_hook=hook),
            backend=backend, rng=np.random.default_rng(2))

        assert abs(res_mix.energy - res64.energy) < 1e-8
        # warm-up sweeps optimized in float32, polish back in float64
        assert dtypes_seen[0] == np.float32
        assert dtypes_seen[-1] == np.float64
        assert all(t.dtype == np.float64 for t in psi_mix.tensors)
        # the base kernels are restored after the run (whatever they were)
        assert backend.block_ops is base_ops


class TestRunSpecEngineFields:
    def test_defaults_keep_run_id(self):
        from repro.exp import RunSpec
        base = RunSpec.from_dict({"model": "heisenberg-chain"})
        # archived reports and spec files carry the removed selector at its
        # only surviving value; it was never part of the hashed payload
        explicit = RunSpec.from_dict({"model": "heisenberg-chain",
                                      "block_ops": "numpy",
                                      "mixed_precision": False})
        assert base == explicit and base.run_id == explicit.run_id
        assert "block_ops" not in base.canonical_json()
        assert "block_ops" not in base.to_dict()
        assert "mixed_precision" not in base.canonical_json()

    def test_non_default_changes_run_id(self):
        from repro.exp import RunSpec
        base = RunSpec.from_dict({"model": "heisenberg-chain"})
        mixed = base.with_overrides(mixed_precision=True)
        assert base.run_id != mixed.run_id

    def test_roundtrip_and_validation(self):
        from repro.exp import RunSpec
        spec = RunSpec.from_dict({"model": "heisenberg-chain",
                                  "mixed_precision": 1})
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec and again.run_id == spec.run_id
        assert spec.mixed_precision is True
        assert "mixed-precision" in spec.summary()
        assert "ops=" not in spec.summary()
        for gone in ("threaded", "process"):
            with pytest.raises(ValueError, match="executors were removed"):
                RunSpec.from_dict({"model": "heisenberg-chain",
                                   "block_ops": gone})
