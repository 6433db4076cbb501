"""Cross-implementation conformance suite for the block-ops seam.

Every implementation registered with
:func:`repro.symmetry.blockops.register_block_ops` is held to the same
contract, automatically: each kernel must be *bit-identical* to the
implementation's own serial reference twin (plain kernels answer with the
numpy baseline; the mixed-precision wrapper is compared against a
mixed-wrapped reference computing in the same dtype), and the modelled cost
accounting — profiler seconds, layout-tracker charges, plan statistics —
must never see the implementation at all.

The suite parametrizes over :func:`registered_block_ops`, so a future GPU
or MPI implementation joins the battery just by registering its factory.
The process executor runs here with its dispatch thresholds forced to zero:
every GEMM and factorization, however tiny, crosses the process boundary,
which is exactly the regime where layout or accumulation-order bugs would
surface as one-ulp divergence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.symmetry import BlockOps, BlockSparseTensor, Index
from repro.symmetry.blockops import (_FACTORIES, create_block_ops,
                                     register_block_ops,
                                     registered_block_ops)

#: implementations whose arithmetic must match the numpy baseline exactly
#: (the mixed wrapper intentionally computes in float32, so it is compared
#: only against its own reduced-precision twin, never against float64)
EXACT_IMPLS = ("numpy", "threaded", "process")


def _force_dispatch(ops):
    """Push every kernel through an implementation's slow path, if it has one.

    For the process executor this zeroes the flop/byte thresholds so even
    4-element GEMMs are pinned, shipped and executed on the workers.
    """
    if hasattr(ops, "min_dispatch_flops"):
        ops.min_dispatch_flops = 0.0
    if hasattr(ops, "min_pin_bytes"):
        ops.min_pin_bytes = 0
    return ops


@pytest.fixture(params=registered_block_ops())
def impl(request):
    """A fresh, fully-dispatching instance of each registered implementation."""
    ops = _force_dispatch(create_block_ops(request.param))
    yield ops
    shutdown = getattr(ops, "shutdown", None)
    if callable(shutdown):
        shutdown()


@pytest.fixture
def reference(impl):
    """The implementation's serial twin, judged bit-for-bit against it."""
    return impl.serial_reference()


def _operand_pairs(rng):
    """GEMM operand pairs covering the layouts the engine actually produces.

    C-contiguous panels, Fortran-ordered transposed views (BLAS picks a
    different micro-kernel per layout), 3-D batch stacks, and exotic strided
    slices that neither pickle nor descriptors may silently re-layout.
    """
    a = rng.standard_normal((17, 33))
    b = rng.standard_normal((33, 9))
    big = rng.standard_normal((48, 40))
    pairs = [
        (a, b),                                        # plain C-contiguous
        (rng.standard_normal((33, 17)).T, b),          # Fortran view lhs
        (a, rng.standard_normal((9, 33)).T),           # Fortran view rhs
        (rng.standard_normal((4, 11, 21)),             # batched 3-D GEMM
         rng.standard_normal((4, 21, 6))),
        (big[::2, ::2], rng.standard_normal((20, 7))), # exotic strides
        (rng.standard_normal((1, 5)),
         rng.standard_normal((5, 1))),                 # degenerate shapes
        (rng.standard_normal((0, 4)),
         rng.standard_normal((4, 3))),                 # zero-size block
    ]
    return pairs


class TestKernelConformance:
    """Each kernel, bit-for-bit against the implementation's serial twin."""

    def test_matmul(self, impl, reference):
        rng = np.random.default_rng(11)
        for a, b in _operand_pairs(rng):
            np.testing.assert_array_equal(impl.matmul(a, b),
                                          reference.matmul(a, b))

    def test_matmul_out(self, impl, reference):
        rng = np.random.default_rng(12)
        for a, b in _operand_pairs(rng):
            shape = np.matmul(np.zeros_like(a), np.zeros_like(b)).shape
            dtype = impl.result_type(a.dtype, b.dtype)
            got = np.full(shape, np.nan, dtype=dtype)
            want = np.full(shape, np.nan, dtype=dtype)
            impl.matmul(a.astype(dtype, copy=False),
                        b.astype(dtype, copy=False), out=got)
            reference.matmul(a.astype(dtype, copy=False),
                             b.astype(dtype, copy=False), out=want)
            np.testing.assert_array_equal(got, want)

    def test_row_split_matmul(self, impl, reference):
        """A GEMM large enough to be row-split across the worker pool."""
        if hasattr(impl, "split_flops"):
            impl.split_flops = 0.0
        rng = np.random.default_rng(13)
        a = rng.standard_normal((64, 24))
        b = rng.standard_normal((24, 18))
        got = np.empty((64, 18))
        want = np.empty((64, 18))
        impl.matmul(a, b, out=got)
        reference.matmul(a, b, out=want)
        np.testing.assert_array_equal(got, want)

    def test_tensordot(self, impl, reference):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((4, 5, 6))
        b = rng.standard_normal((6, 5, 3))
        axes = ([1, 2], [1, 0])
        np.testing.assert_array_equal(impl.tensordot(a, b, axes),
                                      reference.tensordot(a, b, axes))

    def test_concat_and_stack(self, impl, reference):
        rng = np.random.default_rng(15)
        sets = [
            [rng.standard_normal((7, 5)), rng.standard_normal((7, 9))],
            # Fortran-ordered members: numpy carries the input layout into
            # the result, and the implementation must reproduce that choice
            [rng.standard_normal((6, 8)).T, rng.standard_normal((6, 8)).T],
        ]
        for mats in sets:
            axis = 1 if mats[0].shape[0] == mats[1].shape[0] else 0
            got = impl.concat(mats, axis)
            want = reference.concat(mats, axis)
            np.testing.assert_array_equal(got, want)
            assert got.strides == want.strides  # layout, not just values
        same = [rng.standard_normal((5, 4)) for _ in range(3)]
        got = impl.stack(same)
        want = reference.stack(same)
        np.testing.assert_array_equal(got, want)
        assert got.strides == want.strides

    def test_factorizations(self, impl, reference):
        rng = np.random.default_rng(16)
        for shape in [(12, 8), (8, 12), (16, 16), (1, 1)]:
            mat = rng.standard_normal(shape)
            for u0, u1 in zip(impl.svd(mat), reference.svd(mat)):
                np.testing.assert_array_equal(u0, u1)
            for q0, q1 in zip(impl.qr(mat), reference.qr(mat)):
                np.testing.assert_array_equal(q0, q1)
        sym = rng.standard_normal((10, 10))
        sym = sym + sym.T
        for e0, e1 in zip(impl.eigh(sym), reference.eigh(sym)):
            np.testing.assert_array_equal(e0, e1)

    def test_many_variants_match_singles(self, impl, reference):
        rng = np.random.default_rng(17)
        mats = [rng.standard_normal((9, 6)), rng.standard_normal((4, 12)),
                rng.standard_normal((8, 8))]
        for got, want in zip(impl.svd_many(mats),
                             [reference.svd(m) for m in mats]):
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
        for got, want in zip(impl.qr_many(mats),
                             [reference.qr(m) for m in mats]):
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_vector_algebra_and_dtypes(self, impl, reference):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((6, 7))
        y = rng.standard_normal((6, 7))
        assert impl.norm(x) == reference.norm(x)
        np.testing.assert_array_equal(impl.axpy(0.5, x, y),
                                      reference.axpy(0.5, x, y))
        assert impl.result_type(np.float64) == reference.result_type(
            np.float64)
        assert impl.result_type(np.float32, np.float64) == \
            reference.result_type(np.float32, np.float64)

    def test_run_executes_every_task(self, impl):
        hits = []
        impl.run([lambda i=i: hits.append(i) for i in range(8)])
        assert sorted(hits) == list(range(8))

    def test_prepare_roundtrips_values_and_layout(self, impl, reference):
        rng = np.random.default_rng(19)
        plain = rng.standard_normal((20, 30))
        fortran = rng.standard_normal((30, 20)).T
        exotic = rng.standard_normal((40, 40))[::2, ::2]
        for mat in (plain, fortran, exotic):
            got = impl.prepare(mat)
            want = reference.prepare(mat)
            np.testing.assert_array_equal(got, want)
            # the pin must keep BLAS on the same micro-kernel: contiguity
            # flags survive, and exotic strides are never normalized away
            assert got.flags.c_contiguous == want.flags.c_contiguous
            assert got.flags.f_contiguous == want.flags.f_contiguous


def _contraction_pair(seed):
    rng = np.random.default_rng(seed)
    i1 = Index([(0,), (1,)], [3, 4], flow=1)
    i2 = Index([(0,), (1,), (2,)], [2, 3, 2], flow=1)
    i3 = Index([(-1,), (0,), (1,), (2,)], [2, 3, 3, 2], flow=-1)
    i4 = Index([(0,), (1,), (2,)], [3, 2, 2], flow=-1)
    a = BlockSparseTensor.random([i1, i2, i3], flux=(0,), rng=rng)
    b = BlockSparseTensor.random([i3.dual(), i4], flux=(0,), rng=rng)
    return a, b


class TestPlannedContraction:
    def test_planned_contract_matches_serial(self, impl, reference):
        from repro.backends import DirectBackend
        a, b = _contraction_pair(3)
        got = DirectBackend(block_ops=impl).contract(a, b, axes=([2], [0]))
        want = DirectBackend(block_ops=reference).contract(
            a, b, axes=([2], [0]))
        assert set(got.blocks) == set(want.blocks)
        for key, blk in want.blocks.items():
            np.testing.assert_array_equal(got.blocks[key], blk)


class TestModelledCostsAcrossImplementations:
    """One DMRG per exact implementation: every modelled number identical."""

    @staticmethod
    def _run(block_ops):
        from repro.backends import ListBackend
        from repro.ctf import BLUE_WATERS, SimWorld
        from repro.dmrg import DMRGConfig, Sweeps, dmrg
        from repro.models import heisenberg_chain_model
        from repro.mps import MPS, build_mpo

        lattice, sites, opsum, config_state = heisenberg_chain_model(8)
        mpo = build_mpo(opsum, sites, compress=True)
        psi0 = MPS.product_state(sites, config_state)
        world = SimWorld(nodes=4, procs_per_node=16, machine=BLUE_WATERS)
        res, _ = dmrg(mpo, psi0,
                      DMRGConfig(sweeps=Sweeps.fixed(16, 3, cutoff=1e-10)),
                      backend=ListBackend(world, block_ops=block_ops),
                      rng=np.random.default_rng(3))
        return (res.energy, world.modelled_seconds(),
                world.layout_tracker.snapshot(),
                res.metrics["plan_cache.hits"],
                res.metrics["plan_cache.misses"])

    def test_energy_and_costs_bit_identical(self):
        baseline = self._run(BlockOps())
        for name in EXACT_IMPLS:
            if name == "numpy":
                continue
            ops = _force_dispatch(create_block_ops(name))
            try:
                got = self._run(ops)
            finally:
                shutdown = getattr(ops, "shutdown", None)
                if callable(shutdown):
                    shutdown()
            assert got[0] == baseline[0], name   # energy, bit-identical
            assert got[1] == baseline[1], name   # modelled seconds
            assert got[2] == baseline[2], name   # layout-tracker charges
            assert got[3:] == baseline[3:], name  # plan statistics

    def test_exact_impls_cover_registry(self):
        """Every registered impl is either exact or an explicit wrapper."""
        for name in registered_block_ops():
            assert name in EXACT_IMPLS or name == "mixed", (
                f"new implementation {name!r} must be added to EXACT_IMPLS "
                "(or given its own accuracy contract here)")


class TestRegistryPlumbing:
    def test_new_registration_joins_suite(self):
        """A registered factory shows up in the conformance parametrization."""

        class _Doubled(BlockOps):
            name = "doubled-demo"

        register_block_ops("doubled-demo", _Doubled)
        try:
            assert "doubled-demo" in registered_block_ops()
            assert isinstance(create_block_ops("doubled-demo"), _Doubled)
        finally:
            _FACTORIES.pop("doubled-demo", None)
        assert "doubled-demo" not in registered_block_ops()

    def test_broken_implementation_fails_loudly(self):
        """The bit-identity assertion really can fail (meta-test)."""

        class _Broken(BlockOps):
            name = "broken-demo"

            def matmul(self, a, b, out=None):
                res = BlockOps.matmul(self, a, b, out=out)
                res = res + 1e-16 * np.ones_like(res)  # one-ulp-ish drift
                if out is not None:
                    out[...] = res
                    return out
                return res

        impl = _Broken()
        reference = impl.serial_reference()
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        with pytest.raises(AssertionError):
            np.testing.assert_array_equal(impl.matmul(a, b),
                                          reference.matmul(a, b))
