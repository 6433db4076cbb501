"""Contract test of the block-ops seam over the instances that exist.

``BlockOps()`` is judged against *direct numpy calls in the instance's
compute dtype* — an oracle that shares no code with the seam — kernel by
kernel and bit-for-bit, over the operand layouts the engine actually
produces.  An injected implementation (a device
backend passed as ``block_ops=``) joins the battery by being added to
``INSTANCES`` below.  That the modelled cost accounting never sees the
implementation is checked on whole DMRG runs here and in
``tests/test_blockops.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.symmetry import BlockOps, BlockSparseTensor, Index

#: id -> (factory, the dtype the instance computes float64 input in)
INSTANCES = {
    "numpy": (BlockOps, np.float64),
}


@pytest.fixture(params=sorted(INSTANCES))
def instance(request):
    factory, dtype = INSTANCES[request.param]
    return factory(), np.dtype(dtype)


@pytest.fixture
def impl(instance):
    """A fresh instance of each implementation."""
    return instance[0]


@pytest.fixture
def compute(instance):
    """The dtype the numpy oracle must compute in to match ``impl``."""
    return instance[1]


def _operand_pairs(rng):
    """GEMM operand pairs covering the layouts the engine actually produces.

    C-contiguous panels, Fortran-ordered transposed views (BLAS picks a
    different micro-kernel per layout), 3-D batch stacks, exotic strided
    slices, and degenerate / zero-size blocks.
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


def _assert_all_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


class TestKernelConformance:
    """Each kernel, bit-for-bit against numpy in the compute dtype."""

    def test_matmul(self, impl, compute):
        rng = np.random.default_rng(11)
        for a, b in _operand_pairs(rng):
            got = impl.matmul(a, b)
            want = np.matmul(a.astype(compute), b.astype(compute))
            assert got.dtype == compute
            np.testing.assert_array_equal(got, want)

    def test_matmul_out(self, impl, compute):
        rng = np.random.default_rng(12)
        for a, b in _operand_pairs(rng):
            a, b = a.astype(compute), b.astype(compute)
            want = np.matmul(a, b)
            got = np.full(want.shape, np.nan, dtype=compute)
            assert impl.matmul(a, b, out=got) is got
            np.testing.assert_array_equal(got, want)

    def test_tensordot(self, impl, compute):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((4, 5, 6))
        b = rng.standard_normal((6, 5, 3))
        axes = ([1, 2], [1, 0])
        got = impl.tensordot(a, b, axes)
        assert got.dtype == compute
        np.testing.assert_array_equal(
            got, np.tensordot(a.astype(compute), b.astype(compute), axes))

    def test_concat_and_stack(self, impl):
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
            want = np.concatenate(mats, axis=axis)
            np.testing.assert_array_equal(got, want)
            assert got.strides == want.strides  # layout, not just values
            out = np.empty_like(want)
            assert impl.concat(mats, axis, out=out) is out
            np.testing.assert_array_equal(out, want)
        same = [rng.standard_normal((5, 4)) for _ in range(3)]
        got = impl.stack(same)
        want = np.stack(same)
        np.testing.assert_array_equal(got, want)
        assert got.strides == want.strides
        out = np.empty_like(want)
        assert impl.stack(same, out=out) is out
        np.testing.assert_array_equal(out, want)

    def test_factorizations(self, impl, compute):
        rng = np.random.default_rng(16)
        tol = 50 * np.finfo(compute).eps
        for shape in [(12, 8), (8, 12), (16, 16), (1, 1)]:
            mat = rng.standard_normal(shape)
            u, s, vh = impl.svd(mat)
            _assert_all_equal((u, s, vh), np.linalg.svd(
                mat.astype(compute), full_matrices=False))
            np.testing.assert_allclose((u * s) @ vh, mat, atol=tol * s[0])
            q, r = impl.qr(mat)
            _assert_all_equal((q, r), np.linalg.qr(mat.astype(compute),
                                                   mode="reduced"))
            np.testing.assert_allclose(q @ r, mat, atol=tol * s[0])
        sym = rng.standard_normal((10, 10))
        sym = sym + sym.T
        w, v = impl.eigh(sym)
        _assert_all_equal((w, v), np.linalg.eigh(sym.astype(compute)))
        np.testing.assert_allclose((v * w) @ v.T, sym,
                                   atol=tol * abs(w).max())

    def test_many_variants_match_singles(self, impl):
        rng = np.random.default_rng(17)
        mats = [rng.standard_normal((9, 6)), rng.standard_normal((4, 12)),
                rng.standard_normal((8, 8))]
        for got, want in zip(impl.svd_many(mats),
                             [impl.svd(m) for m in mats]):
            _assert_all_equal(got, want)
        for got, want in zip(impl.qr_many(mats),
                             [impl.qr(m) for m in mats]):
            _assert_all_equal(got, want)

    def test_prepare_roundtrips_values_and_layout(self, impl, compute):
        rng = np.random.default_rng(19)
        plain = rng.standard_normal((20, 30))
        fortran = rng.standard_normal((30, 20)).T
        exotic = rng.standard_normal((40, 40))[::2, ::2]
        for mat in (plain, fortran, exotic):
            got = impl.prepare(mat)
            want = mat.astype(compute, copy=False)
            assert got.dtype == compute
            np.testing.assert_array_equal(got, want)
            # BLAS must stay on the same micro-kernel: contiguity flags
            # survive, and exotic strides are never normalized away
            assert got.flags.c_contiguous == want.flags.c_contiguous
            assert got.flags.f_contiguous == want.flags.f_contiguous
            # an operand already in the compute dtype is not copied
            assert impl.prepare(want) is want


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
    def test_planned_contract_matches_serial(self, impl, compute):
        """Fused/batched plan execution against the naive per-pair loop."""
        from repro.backends import DirectBackend
        a, b = _contraction_pair(3)
        got = DirectBackend(block_ops=impl).contract(a, b, axes=([2], [0]))
        want = DirectBackend(use_planner=False, block_ops=impl).contract(
            a, b, axes=([2], [0]))
        assert got.dtype == want.dtype == compute
        assert set(got.blocks) == set(want.blocks)
        # fusing pairs into one GEMM reorders the summation
        tol = 50 * np.finfo(compute).eps * want.norm()
        for key, blk in want.blocks.items():
            np.testing.assert_allclose(got.blocks[key], blk, atol=tol)


class TestModelledCostsAcrossImplementations:
    """One DMRG per instance: every modelled number identical."""

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
        """An injected subclass that forwards its kernels to numpy's is
        pure delegation: nothing moves a bit."""

        class Forwarding(BlockOps):
            name = "forwarding"

            def matmul(self, a, b, out=None):
                return super().matmul(a, b, out=out)

            def concat(self, mats, axis, out=None):
                return super().concat(mats, axis, out=out)

            def stack(self, mats, out=None):
                return super().stack(mats, out=out)

            def svd(self, mat):
                return super().svd(mat)

        baseline = self._run(BlockOps())
        got = self._run(Forwarding())
        assert got[0] == baseline[0]    # energy, bit-identical
        assert got[1] == baseline[1]    # modelled seconds
        assert got[2] == baseline[2]    # layout-tracker charges
        assert got[3:] == baseline[3:]  # plan statistics
