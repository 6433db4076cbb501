"""Tests for contraction mapping decisions and memory sizing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctf import (BLUE_WATERS, STAMPEDE2, CollectiveModel, GemmShape,
                       OutOfMemoryError, candidate_mappings,
                       choose_mapping, dmrg_step_footprint_bytes,
                       minimum_nodes, redistribution_plan, summa_25d,
                       summa_2d, summa_3d)


@pytest.fixture
def model64():
    return CollectiveModel.for_machine(BLUE_WATERS, nodes=64,
                                       procs_per_node=16)


class TestGemmShape:
    def test_total_words(self):
        s = GemmShape(100, 200, 50)
        assert s.total_words == 100 * 50 + 50 * 200 + 100 * 200


class TestMappingDecisions:
    def test_3d_moves_fewer_words_than_2d(self, model64):
        shape = GemmShape(4096, 4096, 4096)
        d2 = summa_2d(shape, 1024, model64)
        d3 = summa_3d(shape, 1024, model64)
        assert d3.words_per_rank < d2.words_per_rank

    def test_3d_needs_more_memory_than_2d(self, model64):
        shape = GemmShape(4096, 4096, 4096)
        d2 = summa_2d(shape, 1024, model64)
        d3 = summa_3d(shape, 1024, model64)
        assert d3.memory_words_per_rank > d2.memory_words_per_rank

    def test_replication_capped_at_cube_root(self, model64):
        shape = GemmShape(1024, 1024, 1024)
        d = summa_25d(shape, 64, replication=1000, model=model64)
        assert d.replication <= 4

    def test_choose_without_budget_prefers_avoiding(self, model64):
        shape = GemmShape(8192, 8192, 8192)
        best = choose_mapping(shape, 512, model64)
        d2 = summa_2d(shape, 512, model64)
        assert best.seconds <= d2.seconds

    def test_memory_budget_forces_2d(self, model64):
        shape = GemmShape(8192, 8192, 8192)
        d2 = summa_2d(shape, 512, model64)
        tight = choose_mapping(shape, 512, model64,
                               memory_words_per_rank=d2.memory_words_per_rank)
        assert tight.replication == 1

    def test_impossible_budget_falls_back_to_smallest(self, model64):
        shape = GemmShape(4096, 4096, 4096)
        decision = choose_mapping(shape, 64, model64, memory_words_per_rank=10)
        cands = candidate_mappings(shape, 64, model64)
        assert decision.memory_words_per_rank == min(
            c.memory_words_per_rank for c in cands)

    def test_candidates_include_2d(self, model64):
        shape = GemmShape(256, 256, 256)
        names = {c.algorithm for c in candidate_mappings(shape, 64, model64)}
        assert "summa-2d" in names

    @pytest.mark.parametrize("nprocs", [8, 64, 1000])
    def test_no_duplicate_3d_candidate(self, model64, nprocs):
        """Dropping the repeated 3D candidate keeps every choice unchanged.

        The reference list is the earlier one: 2D, 2.5D at every power of
        two up to the cube root, then ``summa_3d`` even when the doubling
        loop had already priced it.
        """
        shape = GemmShape(2048, 512, 1024)
        cands = candidate_mappings(shape, nprocs, model64)
        assert len(set(cands)) == len(cands)
        cmax = round(nprocs ** (1.0 / 3.0))
        reference = ([summa_2d(shape, nprocs, model64)]
                     + [summa_25d(shape, nprocs, 2 ** i, model64)
                        for i in range(1, cmax.bit_length())]
                     + [summa_3d(shape, nprocs, model64)])
        assert cands == list(dict.fromkeys(reference))
        for budget in [None, 10.0] + [c.memory_words_per_rank
                                      for c in reference]:
            fitting = [c for c in reference if budget is None
                       or c.memory_words_per_rank <= budget]
            expected = (min(fitting, key=lambda c: (c.seconds,
                                                    c.words_per_rank))
                        if fitting else
                        min(reference, key=lambda c: c.memory_words_per_rank))
            assert choose_mapping(shape, nprocs, model64,
                                  memory_words_per_rank=budget) == expected

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(min_value=64, max_value=8192),
           n=st.integers(min_value=64, max_value=8192),
           k=st.integers(min_value=64, max_value=8192),
           p=st.sampled_from([16, 64, 256, 1024]))
    def test_communication_decreases_with_more_processors(self, m, n, k, p):
        """The best-available communication volume shrinks with more ranks."""
        model = CollectiveModel.for_machine(STAMPEDE2, nodes=max(p // 64, 1))
        shape = GemmShape(m, n, k)
        few = min(c.words_per_rank
                  for c in candidate_mappings(shape, p, model))
        many = min(c.words_per_rank
                   for c in candidate_mappings(shape, 4 * p, model))
        assert many <= few + 1e-9


class TestRedistribution:
    def test_plan_scales_with_size(self, model64):
        small = redistribution_plan(1e6, 64, model64)
        large = redistribution_plan(1e8, 64, model64)
        assert large.seconds > small.seconds
        assert large.words_per_rank == pytest.approx(1e8 / 64)


class TestMinimumNodes:
    def test_small_problem_fits_on_one_node(self):
        assert minimum_nodes(10e9, BLUE_WATERS) == 1

    def test_large_problem_needs_many_nodes(self):
        assert minimum_nodes(1000e9, BLUE_WATERS) >= 16

    def test_sparse_electron_minimum_matches_paper_shape(self):
        """Sparse format at m=8192 needs more Stampede2 nodes than BW nodes
        relative to a single node (4 vs 2 in the paper's setup)."""
        foot_sparse = dmrg_step_footprint_bytes(8192, 26, 4, nsites=36,
                                                algorithm="sparse-dense", q=10)
        bw = minimum_nodes(foot_sparse, BLUE_WATERS)
        s2 = minimum_nodes(foot_sparse, STAMPEDE2)
        assert bw >= 1 and s2 >= 1
        # the list format always needs fewer or equal nodes
        foot_list = dmrg_step_footprint_bytes(8192, 26, 4, nsites=36,
                                              algorithm="list", q=10)
        assert minimum_nodes(foot_list, BLUE_WATERS) <= bw

    def test_replicated_data_limits(self):
        with pytest.raises(OutOfMemoryError):
            minimum_nodes(1e9, BLUE_WATERS, replicated_bytes=100e9)

    def test_footprint_model_monotone_in_m(self):
        small = dmrg_step_footprint_bytes(4096, 26, 4, nsites=36)
        large = dmrg_step_footprint_bytes(32768, 26, 4, nsites=36)
        assert large > small

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            dmrg_step_footprint_bytes(1024, 26, 4, nsites=36, algorithm="dense")
