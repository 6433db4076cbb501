"""Tests for the interconnect topologies and collective cost models."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctf import (BLUE_WATERS, STAMPEDE2, CollectiveModel, FatTree,
                       SingleNode, Torus3D, topology_for_machine)


class TestTorus3D:
    def test_node_count(self):
        t = Torus3D((4, 4, 4))
        assert t.nodes == 64

    def test_for_nodes_factors_near_cubic(self):
        t = Torus3D.for_nodes(256)
        assert t.nodes == 256
        assert max(t.dims) / min(t.dims) <= 4

    def test_average_hops_grow_with_size(self):
        small = Torus3D.for_nodes(8)
        large = Torus3D.for_nodes(512)
        assert large.average_hops() > small.average_hops()

    def test_single_node_degenerate(self):
        t = Torus3D((1, 1, 1))
        assert t.average_hops() == 0.0

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            Torus3D((0, 2, 2))

    def test_bisection_smaller_than_fat_tree(self):
        """A torus has lower relative bisection than a full fat-tree."""
        n = 256
        torus = Torus3D.for_nodes(n)
        tree = FatTree(n)
        assert torus.bisection_links() < tree.bisection_links() * 2
        assert torus.alltoall_congestion() >= tree.alltoall_congestion()


class TestFatTree:
    def test_levels_grow_with_nodes(self):
        assert FatTree(16).levels() <= FatTree(4096).levels()

    def test_full_bisection_congestion_is_one(self):
        assert FatTree(128).alltoall_congestion() == pytest.approx(1.0)

    def test_oversubscription_increases_congestion(self):
        tapered = FatTree(128, oversubscription=2.0)
        assert tapered.alltoall_congestion() > 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FatTree(0)
        with pytest.raises(ValueError):
            FatTree(16, radix=1)
        with pytest.raises(ValueError):
            FatTree(16, oversubscription=0.5)


class TestTopologyFactory:
    def test_machine_presets(self):
        assert isinstance(topology_for_machine("blue-waters", 64), Torus3D)
        assert isinstance(topology_for_machine(BLUE_WATERS.name, 64), Torus3D)
        assert isinstance(topology_for_machine("stampede2", 64), FatTree)
        assert isinstance(topology_for_machine(STAMPEDE2.name, 64), FatTree)
        assert isinstance(topology_for_machine("laptop", 1), SingleNode)

    def test_single_node_always_degenerate(self):
        assert isinstance(topology_for_machine("blue-waters", 1), SingleNode)

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError):
            topology_for_machine("summit", 16)

    def test_effective_bandwidth_patterns(self):
        t = Torus3D.for_nodes(64)
        assert t.effective_bandwidth_gb_s("nearest") >= \
            t.effective_bandwidth_gb_s("alltoall")
        with pytest.raises(ValueError):
            t.effective_bandwidth_gb_s("ring")


class TestCollectiveModel:
    @pytest.fixture
    def model(self):
        return CollectiveModel.for_machine(BLUE_WATERS, nodes=64,
                                           procs_per_node=16)

    def test_costs_are_positive(self, model):
        for name in ("broadcast", "allreduce", "allgather", "reduce_scatter",
                     "alltoall"):
            cost = getattr(model, name)(1e6, 64)
            assert cost.seconds > 0
            assert cost.words > 0

    def test_single_rank_is_free(self, model):
        assert model.broadcast(1e6, 1).seconds == 0.0
        assert model.allreduce(1e6, 1).seconds == 0.0

    def test_allreduce_is_reduce_scatter_plus_allgather(self, model):
        n, p = 3e6, 32
        combined = model.reduce_scatter(n, p) + model.allgather(n, p)
        assert model.allreduce(n, p).seconds == pytest.approx(combined.seconds)

    def test_broadcast_scales_logarithmically(self, model):
        c8 = model.broadcast(1e6, 8)
        c64 = model.broadcast(1e6, 64)
        assert c64.messages == pytest.approx(c8.messages * 2)

    def test_alltoall_congestion_on_torus(self):
        torus_model = CollectiveModel.for_machine(BLUE_WATERS, nodes=256)
        tree_model = CollectiveModel.for_machine(STAMPEDE2, nodes=256)
        # relative to its own nearest-neighbour beta, the torus pays a larger
        # all-to-all penalty than the full-bisection fat tree
        torus_penalty = torus_model.beta("alltoall") / torus_model.beta("nearest")
        tree_penalty = tree_model.beta("alltoall") / tree_model.beta("nearest")
        assert torus_penalty >= tree_penalty

    def test_more_ranks_per_node_share_bandwidth(self):
        one = CollectiveModel.for_machine(STAMPEDE2, nodes=16, procs_per_node=1)
        many = CollectiveModel.for_machine(STAMPEDE2, nodes=16, procs_per_node=64)
        assert many.beta() > one.beta()

    @settings(max_examples=30, deadline=None)
    @given(nwords=st.floats(min_value=1.0, max_value=1e9),
           nprocs=st.integers(min_value=2, max_value=4096))
    def test_costs_monotone_in_message_size(self, nwords, nprocs):
        model = CollectiveModel.for_machine(BLUE_WATERS, nodes=max(nprocs // 16, 2))
        small = model.allreduce(nwords, nprocs)
        large = model.allreduce(2 * nwords, nprocs)
        assert large.seconds >= small.seconds
        assert large.words >= small.words

    @settings(max_examples=30, deadline=None)
    @given(nprocs=st.integers(min_value=2, max_value=2048))
    def test_bandwidth_term_bounded_by_full_volume(self, nprocs):
        """Ring algorithms never move more than the full buffer per rank."""
        model = CollectiveModel.for_machine(STAMPEDE2, nodes=max(nprocs // 64, 2))
        n = 1e7
        assert model.allgather(n, nprocs).words <= n
        assert model.reduce_scatter(n, nprocs).words <= n
