"""Checkpointing of MPS tensors and DMRG runs.

The paper notes that production DMRG runs "can often take many weeks on a
single node" and that writing tensors to disk "generates additional
significant latency" (Section III).  A distributed run that takes days still
needs to survive machine failures and queue limits, so the library provides a
simple, dependency-free on-disk format: every block-sparse tensor is flattened
into plain NumPy arrays (sector tables, block keys, block data) and the whole
state is stored in a single ``.npz`` archive.  Loading requires the original
:class:`~repro.mps.sites.SiteSet` (sites define the physics, not the data) and
reproduces the tensors bit-for-bit.

``save_checkpoint`` / ``load_checkpoint`` additionally store the sweep
schedule position and energy history so an interrupted run can resume from the
last completed sweep.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from ..mps.mps import MPS
from ..mps.sites import SiteSet
from ..symmetry import BlockSparseTensor, Index


def _atomic_savez(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    """Write an ``.npz`` archive atomically (tmp file + ``os.replace``).

    A checkpoint is written while the run may be killed at any moment (queue
    limits, the sweep scheduler's per-run timeout); writing into the final
    path directly could leave a truncated archive that permanently wedges
    every later resume attempt.  The per-writer tmp name also keeps two
    processes from interleaving writes into the same scratch file.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed write
            try:
                tmp.unlink()
            except OSError:
                pass


# --------------------------------------------------------------------------- #
# tensor <-> arrays
# --------------------------------------------------------------------------- #
def _index_to_arrays(ix: Index, prefix: str, out: Dict[str, np.ndarray]) -> None:
    out[f"{prefix}.sectors"] = np.asarray(ix.sectors, dtype=np.int64).reshape(
        ix.nsectors, ix.nsym)
    out[f"{prefix}.dims"] = np.asarray(ix.dims, dtype=np.int64)
    out[f"{prefix}.flow"] = np.asarray(ix.flow, dtype=np.int64)
    out[f"{prefix}.tag"] = np.asarray(ix.tag)


def _index_from_arrays(prefix: str, data) -> Index:
    sectors = [tuple(int(c) for c in row) for row in data[f"{prefix}.sectors"]]
    dims = [int(d) for d in data[f"{prefix}.dims"]]
    flow = int(data[f"{prefix}.flow"])
    tag = str(data[f"{prefix}.tag"])
    return Index(sectors, dims, flow=flow, tag=tag)


def tensor_to_arrays(t: BlockSparseTensor, prefix: str
                     ) -> Dict[str, np.ndarray]:
    """Flatten a block-sparse tensor into a dict of plain NumPy arrays."""
    out: Dict[str, np.ndarray] = {}
    out[f"{prefix}.ndim"] = np.asarray(t.ndim, dtype=np.int64)
    out[f"{prefix}.flux"] = np.asarray(t.flux, dtype=np.int64)
    out[f"{prefix}.nblocks"] = np.asarray(t.num_blocks, dtype=np.int64)
    for k, ix in enumerate(t.indices):
        _index_to_arrays(ix, f"{prefix}.ix{k}", out)
    for b, (key, blk) in enumerate(sorted(t.blocks.items())):
        out[f"{prefix}.b{b}.key"] = np.asarray(key, dtype=np.int64)
        out[f"{prefix}.b{b}.data"] = np.asarray(blk)
    return out


def tensor_from_arrays(prefix: str, data) -> BlockSparseTensor:
    """Rebuild a block-sparse tensor from the arrays of :func:`tensor_to_arrays`."""
    ndim = int(data[f"{prefix}.ndim"])
    flux = tuple(int(c) for c in np.atleast_1d(data[f"{prefix}.flux"]))
    nblocks = int(data[f"{prefix}.nblocks"])
    indices = [_index_from_arrays(f"{prefix}.ix{k}", data) for k in range(ndim)]
    blocks = {}
    dtype = np.float64
    for b in range(nblocks):
        key = tuple(int(s) for s in data[f"{prefix}.b{b}.key"])
        blk = np.asarray(data[f"{prefix}.b{b}.data"])
        blocks[key] = blk
        dtype = np.result_type(dtype, blk.dtype)
    return BlockSparseTensor(indices, blocks, flux=flux, dtype=dtype,
                             check=False)


# --------------------------------------------------------------------------- #
# MPS
# --------------------------------------------------------------------------- #
def save_mps(path: str | Path, psi: MPS, extra: Dict[str, float] | None = None
             ) -> Path:
    """Write an MPS to a ``.npz`` archive.  Returns the path written."""
    path = Path(path)
    arrays: Dict[str, np.ndarray] = {
        "kind": np.asarray("mps"),
        "nsites": np.asarray(len(psi), dtype=np.int64),
        "center": np.asarray(-1 if psi.center is None else psi.center,
                             dtype=np.int64),
        "extra": np.asarray(json.dumps(extra or {})),
    }
    for j, t in enumerate(psi.tensors):
        arrays.update(tensor_to_arrays(t, f"t{j}"))
    _atomic_savez(path, arrays)
    return path


def load_mps(path: str | Path, sites: SiteSet) -> MPS:  # repro-lint: ok(test-only): reads back what run --save-state writes
    """Load an MPS written by :func:`save_mps` onto the given site set."""
    with np.load(Path(path), allow_pickle=False) as data:
        if str(data["kind"]) != "mps":
            raise ValueError(f"{path} does not contain an MPS")
        n = int(data["nsites"])
        if n != len(sites):
            raise ValueError(f"archive has {n} sites, site set has {len(sites)}")
        tensors = [tensor_from_arrays(f"t{j}", data) for j in range(n)]
        center = int(data["center"])
    return MPS(sites, tensors, center=None if center < 0 else center)


# --------------------------------------------------------------------------- #
# DMRG checkpoints
# --------------------------------------------------------------------------- #
@dataclass
class Checkpoint:
    """A resumable snapshot of a DMRG run.

    ``metadata`` is an arbitrary JSON-native dict; the experiment runner
    (:mod:`repro.exp.runner`) stores the owning spec's content-hash
    ``run_id`` there so a stale checkpoint from a *different* experiment is
    rejected instead of silently resumed.
    """

    psi: MPS
    completed_sweeps: int
    energies: List[float] = field(default_factory=list)
    energy: float = float("inf")
    metadata: Dict[str, object] = field(default_factory=dict)


def save_checkpoint(path: str | Path, psi: MPS, *, completed_sweeps: int,
                    energies: List[float] | None = None,
                    metadata: Dict[str, object] | None = None) -> Path:
    """Persist the state of a partially completed DMRG run."""
    path = Path(path)
    energies = list(energies or [])
    arrays: Dict[str, np.ndarray] = {
        "kind": np.asarray("checkpoint"),
        "nsites": np.asarray(len(psi), dtype=np.int64),
        "center": np.asarray(-1 if psi.center is None else psi.center,
                             dtype=np.int64),
        "completed_sweeps": np.asarray(completed_sweeps, dtype=np.int64),
        "energies": np.asarray(energies, dtype=np.float64),
        "metadata": np.asarray(json.dumps(metadata or {})),
    }
    for j, t in enumerate(psi.tensors):
        arrays.update(tensor_to_arrays(t, f"t{j}"))
    _atomic_savez(path, arrays)
    return path


def load_checkpoint(path: str | Path, sites: SiteSet) -> Checkpoint:
    """Load a snapshot written by :func:`save_checkpoint`."""
    with np.load(Path(path), allow_pickle=False) as data:
        if str(data["kind"]) != "checkpoint":
            raise ValueError(f"{path} does not contain a DMRG checkpoint")
        n = int(data["nsites"])
        if n != len(sites):
            raise ValueError(f"archive has {n} sites, site set has {len(sites)}")
        tensors = [tensor_from_arrays(f"t{j}", data) for j in range(n)]
        center = int(data["center"])
        completed = int(data["completed_sweeps"])
        energies = [float(e) for e in data["energies"]]
        metadata = json.loads(str(data["metadata"]))
    psi = MPS(sites, tensors, center=None if center < 0 else center)
    energy = energies[-1] if energies else float("inf")
    return Checkpoint(psi=psi, completed_sweeps=completed, energies=energies,
                      energy=energy, metadata=metadata)


def resume_sweep_schedule(full: "Sweeps", checkpoint: Checkpoint):
    """The remaining sweep schedule after a checkpoint.

    Returns a new :class:`~repro.dmrg.config.Sweeps` covering only the sweeps
    not yet completed (empty schedules are returned as-is with zero entries).
    """
    from .config import Sweeps
    done = checkpoint.completed_sweeps
    return Sweeps(full.maxdims[done:], full.cutoffs[done:],
                  full.davidson_iterations[done:])
