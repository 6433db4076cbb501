"""Tests for lattice builders and model Hamiltonians."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.models import (chain, heisenberg_opsum, hubbard_opsum,
                          j1j2_cylinder_model, square_cylinder,
                          triangular_cylinder_xc, triangular_hubbard_model,
                          tfim_opsum)


class TestLattices:
    def test_chain(self):
        lat = chain(5)
        assert lat.nsites == 5
        assert len(lat.bonds) == 4
        assert max(abs(b.i - b.j) for b in lat.bonds) == 1

    def test_chain_periodic(self):
        lat = chain(5, periodic=True)
        assert len(lat.bonds) == 5

    def test_square_cylinder_counts(self):
        lx, ly = 4, 3
        lat = square_cylinder(lx, ly, next_nearest=False)
        # vertical bonds: lx*ly (periodic ring), horizontal: (lx-1)*ly
        assert len(lat.bonds_of_kind("nn")) == lx * ly + (lx - 1) * ly
        assert len(lat.bonds_of_kind("nnn")) == 0

    def test_square_cylinder_nnn(self):
        lx, ly = 4, 3
        lat = square_cylinder(lx, ly, next_nearest=True)
        assert len(lat.bonds_of_kind("nnn")) == 2 * (lx - 1) * ly

    def test_paper_spin_lattice(self):
        lat = square_cylinder(20, 10)
        assert lat.nsites == 200
        assert max(abs(b.i - b.j) for b in lat.bonds) <= 2 * 10 + 1

    def test_triangular_cylinder(self):
        lat = triangular_cylinder_xc(6, 6)
        assert lat.nsites == 36
        # each site has 6 neighbours in the bulk of a triangular lattice
        degrees = [0] * lat.nsites
        for b in lat.bonds:
            degrees[b.i] += 1
            degrees[b.j] += 1
        assert max(degrees) == 6

    def test_runner_import_leaves_networkx_and_scipy_unloaded(self):
        """Nothing in the program imports networkx and only exact
        diagonalization needs scipy; importing the run path loads neither."""
        code = ("import sys, repro.exp.runner\n"
                "print(sorted({'networkx', 'scipy'} & set(sys.modules)))")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, check=True)
        assert out.stdout.strip() == "[]"

class TestModelOpSums:
    def test_heisenberg_term_count(self):
        lat = square_cylinder(3, 2, next_nearest=True)
        os = heisenberg_opsum(lat, j1=1.0, j2=0.5)
        assert len(os) == 3 * len(lat.bonds)

    def test_heisenberg_j2_zero_skips_nnn(self):
        lat = square_cylinder(3, 2, next_nearest=True)
        os = heisenberg_opsum(lat, j1=1.0, j2=0.0)
        assert len(os) == 3 * len(lat.bonds_of_kind("nn"))

    def test_hubbard_term_count(self):
        lat = triangular_cylinder_xc(3, 2)
        os = hubbard_opsum(lat, t=1.0, u=8.5)
        assert len(os) == 4 * len(lat.bonds_of_kind("nn")) + lat.nsites

    def test_tfim_term_count(self):
        os = tfim_opsum(6, j=1.0, h=0.5)
        assert len(os) == 5 + 6

    def test_paper_models_configuration(self):
        lat, sites, os_, config = j1j2_cylinder_model(4, 3)
        assert sites.total_charge(config) == (0,)
        lat, sites, os_, config = triangular_hubbard_model(3, 2)
        n = lat.nsites
        assert sites.total_charge(config) == (n, 0)

    def test_half_filling_even_sites(self):
        lat, sites, os_, config = triangular_hubbard_model(2, 2)
        charges = sites.total_charge(config)
        assert charges[0] == lat.nsites  # one electron per site
        assert charges[1] == 0           # Sz = 0
