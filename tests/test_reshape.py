"""Tests for fusing block-sparse tensor modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symmetry import BlockSparseTensor, Index, fuse_modes


def _dense_fuse(arr, groups):
    """Dense reference: permute modes and reshape each group into one axis."""
    perm = [ax for grp in groups for ax in grp]
    arr = np.transpose(arr, perm)
    shape = []
    pos = 0
    for grp in groups:
        size = 1
        for _ in grp:
            size *= arr.shape[pos]
            pos += 1
        shape.append(size)
    return arr.reshape(shape)


class TestFuseModes:
    def test_preserves_norm_and_nnz(self, random_tensor):
        fused, recs = fuse_modes(random_tensor, [[0, 1], [2]])
        assert fused.ndim == 2
        assert len(recs) == 1
        assert fused.norm() == pytest.approx(random_tensor.norm())

    def test_total_dimension_preserved(self, random_tensor):
        fused, _ = fuse_modes(random_tensor, [[0, 1], [2]])
        d0 = random_tensor.indices[0].dim * random_tensor.indices[1].dim
        assert fused.indices[0].dim == d0
        assert fused.indices[1].dim == random_tensor.indices[2].dim

    def test_groups_must_partition(self, random_tensor):
        with pytest.raises(ValueError):
            fuse_modes(random_tensor, [[0, 1]])
        with pytest.raises(ValueError):
            fuse_modes(random_tensor, [[0, 1], [1, 2]])

    def test_singleton_groups_pass_through(self, random_tensor):
        fused, recs = fuse_modes(random_tensor, [[0], [1], [2]])
        assert recs == []
        assert fused.indices == random_tensor.indices
        assert fused.norm() == pytest.approx(random_tensor.norm())

    def test_matches_dense_reshape_up_to_permutation(self, random_tensor):
        """Every dense element must survive the fuse (as a multiset)."""
        fused, _ = fuse_modes(random_tensor, [[0, 2], [1]])
        dense_in = random_tensor.to_dense()
        dense_out = fused.to_dense()
        assert dense_out.shape == _dense_fuse(dense_in, [[0, 2], [1]]).shape
        assert np.sort(np.abs(dense_out).ravel()) == pytest.approx(
            np.sort(np.abs(dense_in).ravel()))

    def test_charge_conservation_of_fused_blocks(self, random_tensor):
        fused, _ = fuse_modes(random_tensor, [[0, 1], [2]], flows=[1, -1])
        for key in fused.blocks:
            assert fused.key_allowed(key)


class TestSplitMode:
    def test_split_after_contraction(self, small_indices, rng):
        """Fused bonds on neighbouring tensors stay contractible."""
        i1, i2, i3 = small_indices
        a = BlockSparseTensor.random((i1, i2, i3), flux=(0,), rng=rng)
        b = BlockSparseTensor.random((i3.dual(), i2.dual(), i1.dual()),
                                     flux=(0,), rng=rng)
        fa, recs_a = fuse_modes(a, [[0, 1], [2]], flows=[1, -1])
        # fuse b's legs in the same (i1, i2) order so offsets line up
        fb, _ = fuse_modes(b, [[2, 1], [0]], flows=[-1, 1])
        # fa's fused mode and fb's fused mode cover the same (i1, i2) space
        assert fa.indices[0].same_space(fb.indices[0])
        res = fa.contract(fb, axes=([0], [0]))
        ref = a.contract(b, axes=([0, 1], [2, 1]))
        assert np.allclose(res.to_dense(), ref.to_dense())


@st.composite
def _block_tensor(draw):
    """A random small rank-3 U(1) block tensor."""
    nsec = draw(st.integers(min_value=1, max_value=3))
    charges = draw(st.lists(st.integers(min_value=-2, max_value=2),
                            min_size=nsec, max_size=nsec, unique=True))
    dims = draw(st.lists(st.integers(min_value=1, max_value=3),
                         min_size=nsec, max_size=nsec))
    i1 = Index([(c,) for c in charges], dims, flow=1)
    i2 = Index([(0,), (1,)], [2, 1], flow=1)
    i3 = Index([(c,) for c in sorted({c + d for c in charges for d in (0, 1)})],
               [2] * len({c + d for c in charges for d in (0, 1)}), flow=-1)
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    t = BlockSparseTensor.random((i1, i2, i3), flux=(0,),
                                 rng=np.random.default_rng(seed))
    return t


class TestFuseSplitProperties:
    @settings(max_examples=25, deadline=None)
    @given(t=_block_tensor())
    def test_fused_blocks_conserve_charge(self, t):
        fused, _ = fuse_modes(t, [[0, 2], [1]], flows=[1, 1])
        for key in fused.blocks:
            assert fused.key_allowed(key)
