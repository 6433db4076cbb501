"""The shape-level step model against a pinned golden.

``tests/data/shape_model_golden.json`` pins what :func:`model_dmrg_step` and
:func:`itensor_reference` report for one two-site step of the small spin and
electron systems: every algorithm without (``plan-aware``) and with
(``tracked``) the layout tracker, plus the single-node ITensor reference.
Together with ``test_engine_parity.py`` (real runs on the four backends) it
pins both sides of the one cost model.

Every value must be reproduced exactly.  Regenerate only on purpose:
``PYTHONPATH=src python tests/test_shape_model_parity.py --regenerate``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.ctf import BLUE_WATERS, SimWorld
from repro.perf import get_system, itensor_reference, model_dmrg_step

GOLDEN = Path(__file__).parent / "data" / "shape_model_golden.json"

M = 48
SYSTEMS = ("spins", "electrons")
ALGORITHMS = ("list", "sparse-dense", "sparse-sparse")
MODES = {"plan-aware": {}, "tracked": {"track_layout": True}}
CASES = ([(s, a, mode) for s in SYSTEMS for a in ALGORITHMS for mode in MODES]
         + [(s, "itensor", "reference") for s in SYSTEMS])


def _case_id(case) -> str:
    return "/".join(case)


def collect(case):
    """The pinned fields of one modelled step, as JSON-native values."""
    name, algorithm, mode = case
    system = get_system(name, small=True)
    if algorithm == "itensor":
        step = itensor_reference(system, M, BLUE_WATERS)
    else:
        world = SimWorld(nodes=4, procs_per_node=16, machine=BLUE_WATERS)
        step = model_dmrg_step(system, M, world, algorithm, **MODES[mode])
    return {"seconds": step.seconds, "breakdown": step.breakdown,
            "comm_words": step.comm_words, "supersteps": step.supersteps,
            "useful_flops": step.useful_flops,
            "layout": [step.layout_moves, step.layout_reuses]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_matches_golden(case, golden):
    want = golden[_case_id(case)]
    assert collect(case) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_shape_model_parity.py --regenerate")
    GOLDEN.parent.mkdir(exist_ok=True)
    rows = [f"{json.dumps(_case_id(c))}: "
            f"{json.dumps(collect(c), sort_keys=True)}" for c in CASES]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
