"""Unit tests for block-wise SVD / QR and truncation bookkeeping."""

import numpy as np
import pytest

from repro.symmetry import BlockSparseTensor, Index, qr, svd


@pytest.fixture
def tensor(rng):
    i1 = Index([(0,), (1,)], [3, 4], flow=1)
    i2 = Index([(0,), (1,)], [2, 2], flow=1)
    i3 = Index([(-1,), (0,), (1,), (2,)], [2, 3, 3, 2], flow=-1)
    return BlockSparseTensor.random([i1, i2, i3], flux=(0,), rng=rng)


class TestSVD:
    def test_exact_reconstruction(self, tensor):
        u, s, vh, info = svd(tensor, row_axes=[0, 1], absorb="left")
        rec = u.contract(vh, axes=([2], [0]))
        assert np.allclose(rec.to_dense(), tensor.to_dense())
        assert info.truncation_error < 1e-12

    def test_isometry_of_u(self, tensor):
        u, s, vh, _ = svd(tensor, row_axes=[0, 1], absorb="right")
        uu = u.conj().contract(u, axes=([0, 1], [0, 1]))
        assert np.allclose(uu.to_dense(), np.eye(uu.shape[0]))

    def test_isometry_of_vh(self, tensor):
        u, s, vh, _ = svd(tensor, row_axes=[0, 1], absorb="left")
        vv = vh.contract(vh.conj(), axes=([1], [1]))
        assert np.allclose(vv.to_dense(), np.eye(vv.shape[0]))

    def test_truncation_by_max_dim(self, tensor):
        u, s, vh, info = svd(tensor, row_axes=[0, 1], max_dim=3, absorb="right")
        assert info.kept_dim <= 3
        rec = u.contract(vh, axes=([2], [0]))
        err = (np.linalg.norm(rec.to_dense() - tensor.to_dense()) /
               np.linalg.norm(tensor.to_dense())) ** 2
        assert err == pytest.approx(info.truncation_error, rel=1e-6, abs=1e-12)

    def test_singular_values_match_dense(self, tensor):
        _, s, _, _ = svd(tensor, row_axes=[0, 1])
        mine = np.sort(s.all_values())[::-1]
        dense = tensor.to_dense().reshape(tensor.shape[0] * tensor.shape[1],
                                          tensor.shape[2])
        ref = np.linalg.svd(dense, compute_uv=False)
        ref = ref[ref > 1e-12]
        assert np.allclose(mine[:len(ref)], ref, atol=1e-10)

    def test_cutoff_discards_weight(self, tensor):
        _, _, _, info = svd(tensor, row_axes=[0, 1], cutoff=1e-2)
        assert info.truncation_error <= 1e-2 + 1e-12

    def test_svd_min_floor(self, tensor):
        _, s, _, _ = svd(tensor, row_axes=[0, 1], svd_min=1e-1)
        assert (s.all_values() >= 1e-1).all()

    def test_absorb_none_reconstruction(self, tensor):
        u, s, vh, _ = svd(tensor, row_axes=[0, 1])
        for key, blk in vh.blocks.items():   # absorb S into Vh by hand
            blk *= s.values[key[0]][:, None]
        rec = u.contract(vh, axes=([2], [0]))
        assert np.allclose(rec.to_dense(), tensor.to_dense())

    def test_invalid_absorb(self, tensor):
        with pytest.raises(ValueError):
            svd(tensor, row_axes=[0, 1], absorb="both")

    def test_bad_partition(self, tensor):
        with pytest.raises(ValueError):
            svd(tensor, row_axes=[0], col_axes=[1])

    def test_spectrum_entropy_nonnegative(self, tensor):
        _, s, _, _ = svd(tensor, row_axes=[0, 1])
        assert s.entanglement_entropy() >= 0.0

    def test_non_finite_block_raises(self, tensor):
        """LAPACK returns NaN, raises or never returns on an inf block; the
        SVD refuses it before LAPACK sees it."""
        key = next(iter(tensor.blocks))
        tensor.blocks[key][...] = np.inf
        with pytest.raises(FloatingPointError, match="non-finite"):
            svd(tensor, row_axes=[0, 1], max_dim=4)

    def test_overflowing_weight_raises(self, tensor):
        """Finite blocks whose squared singular values overflow would make
        every truncation weight NaN; the SVD says so instead."""
        with np.errstate(over="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite"):
            svd(tensor * 1e200, row_axes=[0, 1], max_dim=4)

    def test_new_bond_flux_convention(self, tensor):
        """U carries zero flux; Vh carries the flux of the input tensor."""
        i1 = Index([(0,), (1,)], [2, 2], flow=1)
        i2 = Index([(0,), (1,)], [2, 2], flow=-1)
        t = BlockSparseTensor.random([i1, i2], flux=(1,),
                                     rng=np.random.default_rng(0))
        u, _, vh, _ = svd(t, row_axes=[0], absorb="right")
        assert u.flux == (0,)
        assert vh.flux == (1,)


class TestQR:
    def test_reconstruction(self, tensor):
        q, r = qr(tensor, row_axes=[0, 1])
        rec = q.contract(r, axes=([2], [0]))
        assert np.allclose(rec.to_dense(), tensor.to_dense())

    def test_q_isometry(self, tensor):
        q, _ = qr(tensor, row_axes=[0, 1])
        qq = q.conj().contract(q, axes=([0, 1], [0, 1]))
        assert np.allclose(qq.to_dense(), np.eye(qq.shape[0]))

    def test_row_cols_partition_checked(self, tensor):
        with pytest.raises(ValueError):
            qr(tensor, row_axes=[0], col_axes=[1])

    def test_single_row_axis(self, tensor):
        q, r = qr(tensor, row_axes=[0])
        rec = q.contract(r, axes=([1], [0]))
        assert np.allclose(rec.to_dense(), tensor.to_dense())
