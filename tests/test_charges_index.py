"""Unit tests for charge arithmetic and symmetric indices."""

import numpy as np
import pytest

from repro.symmetry import (Index, add_charges, fuse_indices, negate_charge,
                            zero_charge)
from repro.symmetry.charges import validate_charge


class TestCharges:
    def test_zero_charge(self):
        assert zero_charge(0) == ()
        assert zero_charge(2) == (0, 0)

    def test_add(self):
        assert add_charges((1, -2), (3, 4)) == (4, 2)

    def test_add_rank_mismatch(self):
        with pytest.raises(ValueError):
            add_charges((1,), (1, 2))

    def test_negate(self):
        assert negate_charge((2, -3)) == (-2, 3)

    def test_validate(self):
        assert validate_charge([1, 2], 2) == (1, 2)
        with pytest.raises(ValueError):
            validate_charge([1], 2)


class TestIndex:
    def test_basic_properties(self):
        ix = Index([(0,), (2,)], [3, 4], flow=1, tag="x")
        assert ix.dim == 7
        assert ix.nsectors == 2
        assert ix.nsym == 1
        assert ix.sector_dim(1) == 4
        assert ix.sector_charge(1) == (2,)
        assert ix.sector_slice(0) == slice(0, 3)

    def test_invalid_flow(self):
        with pytest.raises(ValueError):
            Index([(0,)], [1], flow=0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Index([(0,), (1,)], [1])

    def test_nonpositive_dim(self):
        with pytest.raises(ValueError):
            Index([(0,)], [0])

    def test_trivial(self):
        ix = Index.trivial(5, nsym=2)
        assert ix.dim == 5
        assert ix.sector_charge(0) == (0, 0)

    def test_dual_flips_flow(self):
        ix = Index([(1,)], [2], flow=1)
        assert ix.dual().flow == -1
        assert ix.dual().dual() == ix

    def test_can_contract(self):
        a = Index([(0,), (1,)], [2, 2], flow=1)
        assert a.can_contract_with(a.dual())
        assert not a.can_contract_with(a)
        b = Index([(0,), (2,)], [2, 2], flow=-1)
        assert not a.can_contract_with(b)

    def test_with_flow_and_tag(self):
        ix = Index([(0,)], [1], flow=1, tag="a")
        assert ix.with_flow(-1).flow == -1
        assert ix.with_tag("b").tag == "b"

    def test_hash_and_eq(self):
        a = Index([(0,), (1,)], [1, 2], flow=1)
        b = Index([(0,), (1,)], [1, 2], flow=1)
        assert a == b and hash(a) == hash(b)
        assert a != a.dual()

class TestFuse:
    def test_fuse_dims(self):
        a = Index([(0,), (1,)], [2, 3], flow=1)
        b = Index([(0,), (1,)], [1, 2], flow=1)
        fused, fusemap = fuse_indices([a, b], flow=1)
        assert fused.dim == a.dim * b.dim
        # charges 0, 1, 2 are reachable
        assert set(fused.sectors) == {(0,), (1,), (2,)}
        # every sector combination maps into the fused index
        assert set(fusemap) == {(i, j) for i in range(2) for j in range(2)}

    def test_fuse_respects_flows(self):
        a = Index([(0,), (1,)], [1, 1], flow=1)
        b = Index([(0,), (1,)], [1, 1], flow=-1)
        fused, _ = fuse_indices([a, b], flow=1)
        assert set(fused.sectors) == {(-1,), (0,), (1,)}

    def test_fuse_empty(self):
        with pytest.raises(ValueError):
            fuse_indices([])
