"""Tests for the pluggable block-operations layer (blockops seam).

The contract under test: swapping the kernel implementation (numpy vs
threaded, with or without the mixed-precision wrapper) changes wall-clock
and numerics only — the threaded path is *bit-identical* to numpy, the
modelled cost accounting (profiler seconds, plan statistics, layout-tracker
state) never sees the implementation, and a float32 warm-up run converges
to the float64 answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.symmetry import (BlockOps, BlockSparseTensor, Index,
                            MixedPrecisionOps, NumpyOps, ThreadedOps,
                            default_block_ops, make_block_ops, qr,
                            resolve_block_ops, svd)
from repro.symmetry.blockops import BLOCK_OPS_ENV


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


def assert_tensors_identical(x, y):
    assert set(x.blocks) == set(y.blocks)
    for key, blk in x.blocks.items():
        np.testing.assert_array_equal(blk, y.blocks[key])


class TestResolution:
    def test_named_singletons(self):
        assert make_block_ops("numpy") is make_block_ops("numpy")
        assert make_block_ops("threaded") is make_block_ops("threaded")
        assert make_block_ops("numpy").name == "numpy"
        assert make_block_ops("threaded").name == "threaded"
        assert isinstance(make_block_ops("threaded"), ThreadedOps)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown block ops"):
            make_block_ops("cupy")

    def test_resolve_coercions(self):
        ops = ThreadedOps(max_workers=2)
        assert resolve_block_ops(ops) is ops
        assert resolve_block_ops("threaded") is make_block_ops("threaded")
        assert resolve_block_ops(None).name in ("numpy", "threaded",
                                                "process")
        with pytest.raises(TypeError):
            resolve_block_ops(42)

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(BLOCK_OPS_ENV, "threaded")
        assert default_block_ops().name == "threaded"
        monkeypatch.delenv(BLOCK_OPS_ENV)
        assert default_block_ops().name == "numpy"

    def test_numpy_alias_and_describe(self):
        assert NumpyOps is BlockOps
        d = make_block_ops("threaded").describe()
        assert d["name"] == "threaded" and d["parallel"]
        assert d["max_workers"] >= 1


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestThreadedBitIdentical:
    """threaded == numpy exactly, on randomized block tensors."""

    def test_contract(self, seed):
        a, b = random_pair(seed)
        res_np = a.contract(b, axes=([2], [0]), ops=make_block_ops("numpy"))
        res_th = a.contract(b, axes=([2], [0]),
                            ops=ThreadedOps(max_workers=4))
        assert_tensors_identical(res_np, res_th)

    def test_planned_backend_contract(self, seed):
        from repro.backends import DirectBackend
        a, b = random_pair(seed)
        res_np = DirectBackend(block_ops="numpy").contract(
            a, b, axes=([2], [0]))
        res_th = DirectBackend(
            block_ops=ThreadedOps(max_workers=4)).contract(
            a, b, axes=([2], [0]))
        assert_tensors_identical(res_np, res_th)

    def test_svd(self, seed):
        a, _ = random_pair(seed)
        u0, s0, vh0, _ = svd(a, [0, 1], ops=make_block_ops("numpy"))
        u1, s1, vh1, _ = svd(a, [0, 1], ops=ThreadedOps(max_workers=4))
        assert_tensors_identical(u0, u1)
        assert_tensors_identical(vh0, vh1)
        assert len(s0.values) == len(s1.values)
        for g0, g1 in zip(s0.values, s1.values):
            np.testing.assert_array_equal(np.asarray(g0), np.asarray(g1))

    def test_qr(self, seed):
        a, _ = random_pair(seed)
        q0, r0 = qr(a, [0, 1], ops=make_block_ops("numpy"))
        q1, r1 = qr(a, [0, 1], ops=ThreadedOps(max_workers=4))
        assert_tensors_identical(q0, q1)
        assert_tensors_identical(r0, r1)


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
        out = {}
        for ops_name in ("numpy", "threaded"):
            world = SimWorld(nodes=4, procs_per_node=16,
                             machine=BLUE_WATERS)
            backend = make_backend(backend_name, world,
                                   block_ops=ops_name)
            res, _ = dmrg(mpo, psi0, DMRGConfig(sweeps=sweeps),
                          backend=backend,
                          rng=np.random.default_rng(9))
            out[ops_name] = (res.energy, world.modelled_seconds(),
                             world.layout_tracker.snapshot(),
                             res.metrics["plan_cache.hits"],
                             res.metrics["plan_cache.misses"])
        e0, sec0, trk0, h0, m0 = out["numpy"]
        e1, sec1, trk1, h1, m1 = out["threaded"]
        assert e0 == e1              # bit-identical arithmetic
        assert sec0 == sec1          # modelled seconds bit-identical
        assert trk0 == trk1          # layout-tracker state bit-identical
        assert (h0, m0) == (h1, m1)  # plan statistics unchanged

    def test_compiled_matvec_identical(self):
        from repro.backends import DirectBackend
        from repro.dmrg import EffectiveHamiltonian
        from repro.perf.microbench import heff_setup

        left, w1, w2, right, x = heff_setup(10, 12)
        ys = {}
        for ops_name in ("numpy", "threaded"):
            backend = DirectBackend(block_ops=ops_name)
            heff = EffectiveHamiltonian(left, (w1, w2), right, backend)
            ys[ops_name] = heff.apply(x)
        assert (ys["numpy"] - ys["threaded"]).norm() == 0.0


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

    def test_composes_with_threaded(self):
        base = ThreadedOps(max_workers=2)
        ops = MixedPrecisionOps(base, np.float32)
        assert ops.parallel
        assert ops.name == "threaded+mixed[float32]"
        assert ops.describe()["compute_dtype"] == "float32"

    def test_contract_runs_in_float32(self):
        a, b = random_pair(5)
        ops = MixedPrecisionOps(compute_dtype=np.float32)
        res = a.contract(b, axes=([2], [0]), ops=ops)
        assert res.dtype == np.float32
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


class TestCtfLinalgViaOps:
    def test_distributed_factorizations_route_through_ops(self):
        from repro.ctf import BLUE_WATERS, SimWorld
        from repro.ctf.linalg import (distributed_eigh, distributed_qr,
                                      distributed_svd)

        rng = np.random.default_rng(0)
        mat = rng.standard_normal((12, 8))
        world_a = SimWorld(nodes=1, procs_per_node=4, machine=BLUE_WATERS)
        world_b = SimWorld(nodes=1, procs_per_node=4, machine=BLUE_WATERS)
        u0, s0, v0 = distributed_svd(mat, world_a)
        u1, s1, v1 = distributed_svd(mat, world_b,
                                     ops=ThreadedOps(max_workers=2))
        np.testing.assert_array_equal(u0, u1)
        np.testing.assert_array_equal(s0, s1)
        np.testing.assert_array_equal(v0, v1)
        # modelled charge is independent of the ops implementation
        assert (world_a.modelled_seconds() == world_b.modelled_seconds())

        q0, r0 = distributed_qr(mat, world_a)
        q1, r1 = distributed_qr(mat, world_b, ops=make_block_ops("threaded"))
        np.testing.assert_array_equal(q0, q1)
        np.testing.assert_array_equal(r0, r1)

        sym = mat[:8] + mat[:8].T
        w0, v0 = distributed_eigh(sym, world_a)
        w1, v1 = distributed_eigh(sym, world_b,
                                  ops=make_block_ops("threaded"))
        np.testing.assert_array_equal(w0, w1)
        np.testing.assert_array_equal(v0, v1)


class TestRunSpecEngineFields:
    def test_defaults_keep_run_id(self):
        from repro.exp import RunSpec
        base = RunSpec.from_dict({"model": "heisenberg-chain"})
        explicit = RunSpec.from_dict({"model": "heisenberg-chain",
                                      "block_ops": "numpy",
                                      "mixed_precision": False})
        assert base.run_id == explicit.run_id
        assert "block_ops" not in base.canonical_json()
        assert "mixed_precision" not in base.canonical_json()

    def test_non_default_changes_run_id(self):
        from repro.exp import RunSpec
        base = RunSpec.from_dict({"model": "heisenberg-chain"})
        threaded = base.with_overrides(block_ops="threaded")
        mixed = base.with_overrides(mixed_precision=True)
        assert len({base.run_id, threaded.run_id, mixed.run_id}) == 3

    def test_roundtrip_and_validation(self):
        from repro.exp import RunSpec
        spec = RunSpec.from_dict({"model": "heisenberg-chain",
                                  "block_ops": "threaded",
                                  "mixed_precision": 1})
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec and again.run_id == spec.run_id
        assert spec.mixed_precision is True
        assert "ops=threaded" in spec.summary()
        with pytest.raises(ValueError, match="unknown block_ops"):
            RunSpec.from_dict({"model": "heisenberg-chain",
                               "block_ops": "gpu"})
