"""Shared fixtures and helpers for the benchmark harness.

Every figure/table benchmark writes the series it regenerates to
``benchmarks/results/<name>.txt`` (and prints it); ``make bench`` reruns all
of them (``pytest benchmarks/bench_*.py --benchmark-only``).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def save_result(name: str, text: str) -> None:
    """Persist a benchmark's printed table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(text)


@pytest.fixture(scope="session")
def spins_full():
    """The paper's 20x10 J1-J2 Heisenberg benchmark system."""
    from repro.perf import spins_system
    return spins_system()


@pytest.fixture(scope="session")
def electrons_full():
    """The paper's 6x6 triangular Hubbard benchmark system."""
    from repro.perf import electrons_system
    return electrons_system()


@pytest.fixture(scope="session")
def spins_small():
    """A reduced 8x4 spin system for fast model evaluations."""
    from repro.perf import get_system
    return get_system("spins", small=True)


@pytest.fixture(scope="session")
def electrons_small():
    """A reduced 4x3 electron system for fast model evaluations."""
    from repro.perf import get_system
    return get_system("electrons", small=True)


def run_once(benchmark, func, *args, **kwargs):
    """Run a (possibly expensive) callable exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
