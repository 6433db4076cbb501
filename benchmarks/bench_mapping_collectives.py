"""Ablation: contraction mapping, interconnect topology, and memory floors.

Table II's communication column rests on which distributed-GEMM mapping each
algorithm can afford: the block-wise contractions of the ``list`` algorithm
get the communication-avoiding ``O(M_D / p^{2/3})`` mapping, the whole-tensor
sparse contractions the 2D ``O(M_D / p^{1/2})`` one.  This benchmark makes the
underlying decisions visible for the paper's actual contraction sizes:

* the words/rank and memory/rank of SUMMA-2D vs 2.5D vs 3D for the dominant
  Davidson contraction at each bond dimension,
* how the same collective traffic prices out on the Blue Waters torus vs the
  Stampede2 fat tree,
* the minimum node counts imposed by memory (the "4 nodes on Stampede2 /
  2 on Blue Waters" floor of Section VI-B).
"""

import pytest
from conftest import save_result

from repro.ctf import (BLUE_WATERS, STAMPEDE2, CollectiveModel, GemmShape,
                       choose_mapping, dmrg_step_footprint_bytes,
                       minimum_nodes, redistribution_plan, summa_25d,
                       summa_2d, summa_3d, topology_for_machine)
from repro.perf import format_table

BOND_DIMENSIONS = [4096, 8192, 16384, 32768]
MPO_K = 26
PHYS_D = 4


def _davidson_gemm(m: int) -> GemmShape:
    """GEMM shape of the dominant environment x two-site-tensor contraction."""
    return GemmShape(m * MPO_K, m * PHYS_D * PHYS_D, m)


def _run_once(benchmark, func):
    return benchmark.pedantic(func, rounds=1, iterations=1)


def test_mapping_choice_table(benchmark):
    """SUMMA variant comparison for the dominant contraction at each m.

    DMRG's dominant contraction is strongly rectangular (the contracted index
    is the bare bond dimension, the free indices carry the MPO bond and the
    physical dimensions), so unlike the square-GEMM case the replicated
    2.5D/3D variants do not pay off at every size — the memory-aware chooser
    falls back toward 2D as ``m`` grows, which is consistent with Table II
    charging the whole-tensor contractions the 2D ``O(M_D / p^{1/2})`` volume.
    """
    rows = _run_once(benchmark, _mapping_choice_rows)
    text = format_table(
        ["machine", "nodes", "m", "2D words/rank", "2.5D words/rank",
         "3D words/rank", "chosen (memory-aware)", "c"],
        rows, title="Distributed-GEMM mapping for the dominant DMRG "
                    "contraction (electrons, k = 26, d = 4)")
    save_result("mapping_choice", text)
    # per machine, the communication volume of every variant grows with m,
    # and the replication factor the memory-aware chooser affords shrinks
    by_machine = {}
    for row in rows:
        by_machine.setdefault(row[0], []).append(row)
    for machine_rows in by_machine.values():
        words_2d = [float(r[3]) for r in machine_rows]
        assert all(b >= a for a, b in zip(words_2d, words_2d[1:]))
        replication = [int(r[7]) for r in machine_rows]
        assert all(b <= a for a, b in zip(replication, replication[1:]))


def _mapping_choice_rows():
    rows = []
    for nodes, machine in ((64, BLUE_WATERS), (16, STAMPEDE2)):
        model = CollectiveModel.for_machine(machine, nodes,
                                            procs_per_node=machine.cores_per_node)
        nprocs = nodes * machine.cores_per_node
        for m in BOND_DIMENSIONS:
            shape = _davidson_gemm(m)
            d2 = summa_2d(shape, nprocs, model)
            d25 = summa_25d(shape, nprocs, 4, model)
            d3 = summa_3d(shape, nprocs, model)
            budget = machine.memory_bytes_per_node() / machine.cores_per_node / 8
            best = choose_mapping(shape, nprocs, model,
                                  memory_words_per_rank=budget)
            rows.append((machine.name.split()[0], nodes, m,
                         f"{d2.words_per_rank:.3e}",
                         f"{d25.words_per_rank:.3e}",
                         f"{d3.words_per_rank:.3e}",
                         best.algorithm, best.replication))
    return rows


def test_topology_comparison_table(benchmark):
    """Torus vs fat tree: latency, bisection, all-to-all congestion."""
    rows = _run_once(benchmark, _topology_rows)
    text = format_table(
        ["nodes", "torus hops", "fat-tree hops", "torus bisection GB/s",
         "fat-tree bisection GB/s", "torus a2a congestion",
         "fat-tree a2a congestion"],
        rows, title="Interconnect comparison: Gemini 3D torus (Blue Waters) "
                    "vs Omni-Path fat tree (Stampede2)")
    save_result("topology_comparison", text)
    # congestion can only grow with machine size on the torus
    assert float(rows[-1][5]) >= float(rows[0][5]) - 1e-9


def _topology_rows():
    rows = []
    for nodes in (16, 64, 256):
        torus = topology_for_machine("blue-waters", nodes)
        tree = topology_for_machine("stampede2", nodes)
        rows.append((nodes,
                     f"{torus.average_hops():.2f}", f"{tree.average_hops():.2f}",
                     f"{torus.bisection_bandwidth_gb_s():.0f}",
                     f"{tree.bisection_bandwidth_gb_s():.0f}",
                     f"{torus.alltoall_congestion():.2f}",
                     f"{tree.alltoall_congestion():.2f}"))
    return rows


def test_redistribution_and_memory_floor_table(benchmark):
    """CTF-transposition proxy and memory-imposed minimum node counts."""
    rows = _run_once(benchmark, _memory_floor_rows)
    text = format_table(
        ["machine", "m", "redistribution ms (16 nodes)",
         "min nodes (list)", "min nodes (sparse intermediates)"],
        rows, title="Layout-change cost and memory floors for the electron "
                    "system (k = 26, d = 4, 36 sites)")
    save_result("mapping_memory_floor", text)
    # sparse/dense intermediates always need at least as many nodes as list
    for row in rows:
        assert row[4] >= row[3]


def _memory_floor_rows():
    rows = []
    for machine, ppn in ((BLUE_WATERS, 16), (STAMPEDE2, 64)):
        for m in BOND_DIMENSIONS:
            nodes_guess = 16
            model = CollectiveModel.for_machine(machine, nodes_guess,
                                                procs_per_node=ppn)
            elems = float(m) * PHYS_D * PHYS_D * m
            redis = redistribution_plan(elems, nodes_guess * ppn, model)
            floors = {}
            for algo in ("list", "sparse-dense"):
                foot = dmrg_step_footprint_bytes(m, MPO_K, PHYS_D, nsites=36,
                                                 algorithm=algo, q=10)
                floors[algo] = minimum_nodes(foot, machine)
            rows.append((machine.name.split()[0], m,
                         f"{redis.seconds * 1e3:.2f}",
                         floors["list"], floors["sparse-dense"]))
    return rows


@pytest.mark.parametrize("machine,nodes", [(BLUE_WATERS, 64), (STAMPEDE2, 16)])
def test_collective_model_runtime(benchmark, machine, nodes):
    """Micro-benchmark: evaluating the full mapping decision is cheap."""
    model = CollectiveModel.for_machine(machine, nodes,
                                        procs_per_node=machine.cores_per_node)
    shape = _davidson_gemm(16384)

    def decide():
        return choose_mapping(shape, nodes * machine.cores_per_node, model)

    decision = benchmark(decide)
    assert decision.words_per_rank > 0
