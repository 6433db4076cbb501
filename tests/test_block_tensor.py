"""Unit tests for the block-sparse tensor (storage, algebra, Algorithm 2)."""

import numpy as np
import pytest

from repro.symmetry import BlockSparseTensor, Index
from repro.perf import count_flops


def dense_pair(rng):
    """A contractable pair of block tensors plus their dense images."""
    i1 = Index([(0,), (1,)], [2, 3], flow=1)
    i2 = Index([(0,), (1,), (2,)], [2, 2, 1], flow=1)
    i3 = Index([(-1,), (0,), (1,), (2,)], [1, 2, 2, 1], flow=-1)
    i4 = Index([(0,), (2,)], [2, 2], flow=-1)
    a = BlockSparseTensor.random([i1, i2, i3], flux=(0,), rng=rng)
    b = BlockSparseTensor.random([i3.dual(), i4], flux=(0,), rng=rng)
    return a, b


class TestConstruction:
    def test_zeros_and_fill(self, small_indices):
        t = BlockSparseTensor.zeros(small_indices, flux=(0,), fill_allowed=True)
        assert t.num_blocks > 0
        assert t.norm() == 0.0

    def test_random_blocks_respect_conservation(self, random_tensor):
        for key in random_tensor.blocks:
            assert random_tensor.key_allowed(key)

    def test_block_shape_matches_indices(self, random_tensor):
        for key, blk in random_tensor.blocks.items():
            assert blk.shape == random_tensor.block_shape(key)

    def test_invalid_block_raises(self, small_indices):
        bad = {(0, 0, 3): np.ones((2, 2, 1))}
        with pytest.raises(ValueError):
            BlockSparseTensor(small_indices, bad, flux=(0,))

    def test_wrong_shape_block_raises(self, small_indices):
        t = BlockSparseTensor.zeros(small_indices, flux=(0,), fill_allowed=True)
        key = next(iter(t.blocks))
        bad = {key: np.ones((1, 1, 1, 1))}
        with pytest.raises(ValueError):
            BlockSparseTensor(small_indices, bad, flux=(0,))

    def test_flux_rank_checked(self, small_indices):
        with pytest.raises(ValueError):
            BlockSparseTensor.zeros(small_indices, flux=(0, 0))

    def test_from_dense_roundtrip(self, random_tensor):
        dense = random_tensor.to_dense()
        back = BlockSparseTensor.from_dense(dense, random_tensor.indices,
                                            flux=random_tensor.flux)
        assert np.allclose(back.to_dense(), dense)

    def test_from_dense_rejects_asymmetric(self, small_indices):
        dense = np.random.default_rng(0).standard_normal(
            tuple(ix.dim for ix in small_indices))
        with pytest.raises(ValueError):
            BlockSparseTensor.from_dense(dense, small_indices, flux=(0,))

    def test_dense_path_single_block(self):
        """With no symmetry the tensor degenerates to one dense block."""
        ix = [Index.trivial(3, nsym=0), Index.trivial(4, nsym=0, flow=-1)]
        t = BlockSparseTensor.random(ix, rng=np.random.default_rng(1))
        assert t.num_blocks == 1
        assert t.fill_fraction == 1.0


class TestAlgebra:
    def test_add_sub_scale(self, random_tensor):
        t2 = random_tensor * 2.0
        s = t2 - random_tensor
        assert np.allclose(s.to_dense(), random_tensor.to_dense())
        assert np.allclose((-random_tensor).to_dense(), -random_tensor.to_dense())
        assert np.allclose((random_tensor / 2.0).to_dense(),
                           random_tensor.to_dense() / 2.0)

    def test_norm_matches_dense(self, random_tensor):
        assert random_tensor.norm() == pytest.approx(
            np.linalg.norm(random_tensor.to_dense()))

    def test_inner_matches_dense(self, random_tensor, rng):
        other = BlockSparseTensor.random(random_tensor.indices, flux=(0,),
                                         rng=rng)
        expected = np.vdot(random_tensor.to_dense(), other.to_dense())
        assert random_tensor.inner(other) == pytest.approx(expected)

    def test_add_incompatible_raises(self, random_tensor):
        other = random_tensor.transpose([1, 0, 2])
        with pytest.raises(ValueError):
            random_tensor + other

    def test_conj_flips_flows_and_flux(self, small_indices, rng):
        t = BlockSparseTensor.random(small_indices, flux=(1,), rng=rng)
        c = t.conj()
        assert c.flux == (-1,)
        assert all(ci.flow == -ti.flow for ci, ti in zip(c.indices, t.indices))
        assert np.allclose(c.to_dense(), np.conj(t.to_dense()))

    def test_transpose_matches_dense(self, random_tensor):
        perm = [2, 0, 1]
        assert np.allclose(random_tensor.transpose(perm).to_dense(),
                           random_tensor.to_dense().transpose(perm))

    def test_transpose_invalid_perm(self, random_tensor):
        with pytest.raises(ValueError):
            random_tensor.transpose([0, 0, 1])


def _parent_add(x, y) -> dict:
    """``x + y`` as the tensor computed it before one allocation per block:
    copy ``x``, cast, then add ``y`` block by block."""
    dtype = np.result_type(x.dtype, y.dtype)
    out = {k: v.copy() for k, v in x.blocks.items()}
    for k, blk in out.items():
        if blk.dtype != dtype:
            out[k] = blk.astype(dtype)
    for k, blk in y.blocks.items():
        out[k] = out[k] + blk if k in out else blk.astype(dtype)
    return out


class TestElementwiseOneAllocation:
    @pytest.mark.parametrize("layout", ["c", "fortran"])
    @pytest.mark.parametrize("dtypes", [("f8", "f8"), ("f4", "f8"),
                                        ("f8", "f4"), ("c16", "f8"),
                                        ("f4", "c8")])
    def test_add_sub_equal_the_copy_then_add_bits(self, small_indices,
                                                  dtypes, layout):
        """``a + b`` and ``a - b`` give the old results bit for bit and in
        the old layout, over partly shared block sets, and no output block
        aliases an operand."""
        rng = np.random.default_rng(31)
        x, y = (BlockSparseTensor.random(small_indices, flux=(0,), rng=rng,
                                         dtype=np.dtype(d))
                for d in dtypes)
        if layout == "fortran":
            for t in (x, y):
                t.blocks = {k: np.asfortranarray(v)
                            for k, v in t.blocks.items()}
        keys = sorted(x.blocks)
        x.blocks = {k: x.blocks[k] for k in keys[1:]}   # only in y: keys[0]
        y.blocks = {k: y.blocks[k] for k in keys[:-1]}  # only in x: keys[-1]
        for got, want in ((x + y, _parent_add(x, y)),
                          (x - y, _parent_add(x, y * -1.0))):
            assert got.dtype == np.result_type(x.dtype, y.dtype)
            assert list(got.blocks) == list(want)
            for key, blk in got.blocks.items():
                assert blk.dtype == got.dtype == want[key].dtype
                assert blk.tobytes() == want[key].tobytes()
                assert blk.strides == want[key].strides
                assert not any(np.shares_memory(blk, op)
                               for op in (*x.blocks.values(),
                                          *y.blocks.values()))


class TestContraction:
    def test_matches_dense_tensordot(self, rng):
        a, b = dense_pair(rng)
        c = a.contract(b, axes=([2], [0]))
        ref = np.tensordot(a.to_dense(), b.to_dense(), axes=([2], [0]))
        assert np.allclose(c.to_dense(), ref)

    def test_multi_axis_contraction(self, rng):
        a, b = dense_pair(rng)
        b2 = BlockSparseTensor.random([a.indices[1].dual(), a.indices[2].dual()],
                                      flux=(0,), rng=rng)
        c = a.contract(b2, axes=([1, 2], [0, 1]))
        ref = np.tensordot(a.to_dense(), b2.to_dense(), axes=([1, 2], [0, 1]))
        assert np.allclose(c.to_dense(), ref)

    def test_full_contraction_returns_scalar(self, random_tensor, rng):
        other = BlockSparseTensor.random(
            [ix.dual() for ix in random_tensor.indices], flux=(0,), rng=rng)
        val = random_tensor.contract(other, axes=([0, 1, 2], [0, 1, 2]))
        ref = np.tensordot(random_tensor.to_dense(), other.to_dense(),
                           axes=([0, 1, 2], [0, 1, 2]))
        assert np.allclose(float(val), ref)

    def test_incompatible_axes_raise(self, rng):
        a, b = dense_pair(rng)
        with pytest.raises(ValueError):
            a.contract(b, axes=([0], [0]))

    def test_flop_counting(self, rng):
        a, b = dense_pair(rng)
        with count_flops() as counter:
            a.contract(b, axes=([2], [0]))
        assert counter.gemm > 0

    def test_nonzero_flux_contraction(self, rng):
        """Contraction of tensors with nonzero flux adds the fluxes."""
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [2, 2], flow=-1)
        a = BlockSparseTensor.random([i1, i2], flux=(1,), rng=rng)
        b = BlockSparseTensor.random([i2.dual(), i2], flux=(-1,), rng=rng)
        c = a.contract(b, axes=([1], [0]))
        assert c.flux == (0,)
        ref = np.tensordot(a.to_dense(), b.to_dense(), axes=([1], [0]))
        assert np.allclose(c.to_dense(), ref)


class TestStructure:
    def test_sparsity_counts(self, random_tensor):
        assert random_tensor.nnz == sum(b.size for b in
                                        random_tensor.blocks.values())
        assert 0 < random_tensor.fill_fraction <= 1.0
        assert random_tensor.dense_size == np.prod(random_tensor.shape)

    def test_allowed_keys_superset_of_blocks(self, random_tensor):
        allowed = set(random_tensor.allowed_keys())
        assert set(random_tensor.blocks).issubset(allowed)
