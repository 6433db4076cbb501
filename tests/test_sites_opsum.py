"""Unit tests for site definitions and operator sums (incl. fermion handling)."""

import numpy as np
import pytest

from repro.mps import ElectronSite, OpSum, SiteSet, SpinHalfSite
from repro.mps.opsum import combine_terms, normalize_opsum, normalize_term


class TestSpinHalfSite:
    def test_operator_algebra(self):
        s = SpinHalfSite()
        sz, sp, sm = s.op("Sz"), s.op("S+"), s.op("S-")
        assert np.allclose(sp @ sm - sm @ sp, 2 * sz)
        assert np.allclose(sz @ sp - sp @ sz, sp)

    def test_charges(self):
        s = SpinHalfSite()
        assert s.state_charges == ((1,), (-1,))
        assert s.op_charge("S+") == (2,)
        assert s.op_charge("Sz") == (0,)

    def test_sx_has_no_definite_charge(self):
        s = SpinHalfSite()
        with pytest.raises(ValueError):
            s.op_charge("Sx")

    def test_no_conservation(self):
        s = SpinHalfSite(conserve=None)
        assert s.nsym == 0
        assert s.op_charge("Sx") == ()

    def test_composite_operator(self):
        s = SpinHalfSite()
        assert np.allclose(s.op("S+*S-"), s.op("S+") @ s.op("S-"))

    def test_unknown_operator(self):
        with pytest.raises(KeyError):
            SpinHalfSite().op("Qx")

    def test_invalid_conserve(self):
        with pytest.raises(ValueError):
            SpinHalfSite(conserve="Q")


class TestElectronSite:
    def test_anticommutation_on_site(self):
        s = ElectronSite()
        cup, cdn = s.op("Cup"), s.op("Cdn")
        cdagup = s.op("Cdagup")
        # {c_up, c^+_up} = 1, {c_up, c_dn} = 0 within a site
        assert np.allclose(cup @ cdagup + cdagup @ cup, np.eye(4))
        assert np.allclose(cup @ cdn + cdn @ cup, np.zeros((4, 4)))

    def test_number_operators(self):
        s = ElectronSite()
        assert np.allclose(np.diag(s.op("Ntot")), [0, 1, 1, 2])
        assert np.allclose(np.diag(s.op("Nupdn")), [0, 0, 0, 1])

    def test_jw_string(self):
        s = ElectronSite()
        f = s.op("F")
        assert np.allclose(f @ f, np.eye(4))
        assert np.allclose(np.diag(f), [1, -1, -1, 1])

    def test_charges_nsz(self):
        s = ElectronSite()
        assert s.op_charge("Cdagup") == (1, 1)
        assert s.op_charge("Cdn") == (-1, 1)
        assert s.op_charge("Nupdn") == (0, 0)

    def test_fermionic_parity(self):
        s = ElectronSite()
        assert s.is_fermionic("Cup")
        assert not s.is_fermionic("Ntot")
        assert not s.is_fermionic("Cdagup*Cup")
        assert s.is_fermionic("Cdagup*F")

    def test_conserve_n_only(self):
        s = ElectronSite(conserve="N")
        assert s.nsym == 1
        assert s.op_charge("Cdagdn") == (1,)


class TestSiteSet:
    def test_uniform(self):
        sites = SiteSet.uniform(SpinHalfSite(), 5)
        assert len(sites) == 5
        assert sites.dims == [2] * 5
        assert sites.nsym == 1

    def test_total_charge(self):
        sites = SiteSet.uniform(SpinHalfSite(), 4)
        assert sites.total_charge(["Up", "Up", "Dn", "Dn"]) == (0,)
        assert sites.total_charge([0, 0, 0, 1]) == (2,)

    def test_mixed_nsym_rejected(self):
        with pytest.raises(ValueError):
            SiteSet([SpinHalfSite(), SpinHalfSite(conserve=None)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SiteSet([])


class TestOpSum:
    def test_add_and_iterate(self):
        os = OpSum()
        os.add(1.0, "Sz", 0, "Sz", 1)
        os += (0.5, "S+", 1, "S-", 2)
        assert len(os) == 2
        assert [f.site for f in os.terms[1].factors] == [1, 2]

    def test_invalid_add(self):
        with pytest.raises(ValueError):
            OpSum().add(1.0, "Sz")
        with pytest.raises(TypeError):
            OpSum().add(1.0, 0, "Sz")

    def test_scaled_and_sum(self):
        a = OpSum().add(1.0, "Sz", 0)
        b = OpSum().add(2.0, "Sz", 1)
        c = a + b
        assert len(c) == 2
        assert [t.coefficient for t in c] == [1.0, 2.0]


class TestNormalization:
    def test_bosonic_term_sorted(self):
        sites = SiteSet.uniform(SpinHalfSite(), 4)
        os = OpSum().add(2.0, "Sz", 3, "Sz", 1)
        nt = normalize_term(os.terms[0], sites)
        assert [s for s, _ in nt.site_ops] == [1, 3]
        assert nt.coefficient == 2.0
        assert nt.jw_sites == []

    def test_fermionic_reorder_sign(self):
        sites = SiteSet.uniform(ElectronSite(), 4)
        os = OpSum().add(1.0, "Cdagup", 2, "Cup", 0)
        nt = normalize_term(os.terms[0], sites)
        # reordering two fermionic operators flips the sign
        assert nt.coefficient == -1.0
        assert [s for s, _ in nt.site_ops] == [0, 2]
        assert nt.jw_sites == [1]
        # the leftmost fermionic operator picks up the on-site string
        assert nt.site_ops[0][1].endswith("*F")

    def test_same_site_merge(self):
        sites = SiteSet.uniform(ElectronSite(), 2)
        os = OpSum().add(1.0, "Cdagup", 0, "Cup", 0)
        nt = normalize_term(os.terms[0], sites)
        assert len(nt.site_ops) == 1
        assert nt.site_ops[0][1] == "Cdagup*Cup"

    def test_odd_parity_rejected(self):
        sites = SiteSet.uniform(ElectronSite(), 2)
        os = OpSum().add(1.0, "Cup", 0)
        with pytest.raises(ValueError):
            normalize_term(os.terms[0], sites)

    def test_combine_terms_merges_duplicates(self):
        sites = SiteSet.uniform(SpinHalfSite(), 3)
        os = OpSum()
        os.add(1.0, "Sz", 0, "Sz", 1)
        os.add(2.0, "Sz", 0, "Sz", 1)
        os.add(-3.0, "Sz", 1, "Sz", 2)
        os.add(3.0, "Sz", 1, "Sz", 2)
        combined = combine_terms(normalize_opsum(os, sites), tol=1e-12)
        assert len(combined) == 1
        assert combined[0].coefficient == pytest.approx(3.0)
