"""Checkpointing of MPS tensors and DMRG runs.

The paper notes that production DMRG runs "can often take many weeks on a
single node" and that writing tensors to disk "generates additional
significant latency" (Section III).  A distributed run that takes days still
needs to survive machine failures and queue limits, so the library provides a
simple, dependency-free on-disk format: the whole state is stored in a single
uncompressed ``.npz`` archive, and every block-sparse tensor becomes the same
six arrays however many blocks it has (``<p>`` is the tensor's prefix,
``t0``, ``t1``, ...):

``<p>.flux``
    the tensor's total charge, ``(nsym,)`` ``int64``;
``<p>.modes``
    ``(ndim, 2)`` ``int64``: each index's flow and number of sectors;
``<p>.tags``
    ``(ndim,)`` strings: each index's tag;
``<p>.sectors``
    ``(sum of nsectors, nsym + 1)`` ``int64``: every index's sector charges
    followed by the sector dimension, index after index;
``<p>.keys``
    ``(nblocks, ndim)`` ``int64`` block keys in sorted order;
``<p>.data``
    one 1-D array in the tensor's dtype: every block raveled in C order and
    concatenated in key order.

Block shapes are not stored: they follow from the keys and the sector
dimensions, and loading rebuilds each block as a reshaped view of
``<p>.data``.  The archive's ``format`` entry names this layout
(:data:`FORMAT`); an archive without it (such as the earlier one-member-per-
block layout) is rejected with ``ValueError``, as is a key outside its
index's sectors or a data array whose length differs from the sum of the
block sizes.  Loading requires the original :class:`~repro.mps.sites.SiteSet`
(sites define the physics, not the data) and reproduces the tensors
bit-for-bit.

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

#: the archive layout described in the module docstring
FORMAT = "repro-blocksparse/2"


def _atomic_savez(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    """Write an uncompressed ``.npz`` atomically (tmp file + ``os.replace``).

    A checkpoint is written while the run may be killed at any moment (queue
    limits, the sweep scheduler's per-run timeout); writing into the final
    path directly could leave a truncated archive that permanently wedges
    every later resume attempt.  The per-writer tmp name also keeps two
    processes from interleaving writes into the same scratch file.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, format=np.asarray(FORMAT), **arrays)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed write
            try:
                tmp.unlink()
            except OSError:
                pass


def _check_archive(path: str | Path, data, kind: str, what: str) -> None:
    """Raise ``ValueError`` unless ``data`` is a :data:`FORMAT` ``kind``."""
    found = str(data["format"]) if "format" in data.files else None
    if found != FORMAT:
        raise ValueError(f"{path} has format {found!r}, not {FORMAT!r}")
    if str(data["kind"]) != kind:
        raise ValueError(f"{path} does not contain {what}")


# --------------------------------------------------------------------------- #
# tensor <-> arrays
# --------------------------------------------------------------------------- #
def tensor_to_arrays(t: BlockSparseTensor, prefix: str
                     ) -> Dict[str, np.ndarray]:
    """Flatten a block-sparse tensor into the six arrays of :data:`FORMAT`."""
    items = sorted(t.blocks.items())
    dtype = np.result_type(t.dtype, *{blk.dtype for _, blk in items})
    data = (np.concatenate([blk.ravel() for _, blk in items], dtype=dtype)
            if items else np.empty(0, dtype=dtype))
    sectors = [charge + (dim,) for ix in t.indices
               for charge, dim in zip(ix.sectors, ix.dims)]
    keys = np.asarray([key for key, _ in items], dtype=np.int64)
    return {
        f"{prefix}.flux": np.asarray(t.flux, dtype=np.int64),
        f"{prefix}.modes": np.asarray([(ix.flow, ix.nsectors)
                                       for ix in t.indices], dtype=np.int64),
        f"{prefix}.tags": np.asarray([ix.tag for ix in t.indices]),
        f"{prefix}.sectors": np.asarray(sectors, dtype=np.int64),
        f"{prefix}.keys": keys.reshape(len(items), t.ndim),
        f"{prefix}.data": data,
    }


def tensor_from_arrays(prefix: str, data) -> BlockSparseTensor:
    """Rebuild a block-sparse tensor from the arrays of :func:`tensor_to_arrays`.

    Every block is a reshaped view of the one ``<prefix>.data`` array.
    """
    flux = tuple(int(c) for c in data[f"{prefix}.flux"])
    modes = data[f"{prefix}.modes"]
    tags = data[f"{prefix}.tags"]
    table = data[f"{prefix}.sectors"]
    keys = data[f"{prefix}.keys"]
    flat = data[f"{prefix}.data"]
    ndim = len(modes)
    if (modes.shape != (ndim, 2) or tags.shape != (ndim,)
            or table.shape != (int(modes[:, 1].sum()), len(flux) + 1)
            or keys.ndim != 2 or keys.shape[1] != ndim or flat.ndim != 1):
        raise ValueError(f"{prefix}: index tables, keys and data do not "
                         f"agree in shape")
    indices = []
    start = 0
    for (flow, nsectors), tag in zip(modes.tolist(), tags.tolist()):
        rows = table[start:start + nsectors]
        start += nsectors
        indices.append(Index([tuple(r) for r in rows[:, :-1].tolist()],
                             rows[:, -1].tolist(), flow=flow, tag=tag))
    shapes = np.empty(keys.shape, dtype=np.int64)
    for k, ix in enumerate(indices):
        if keys.size and (keys[:, k].min() < 0
                          or keys[:, k].max() >= ix.nsectors):
            raise ValueError(f"{prefix}: a block key falls outside the "
                             f"{ix.nsectors} sectors of index {k}")
        shapes[:, k] = np.asarray(ix.dims)[keys[:, k]]
    ends = np.cumsum(shapes.prod(axis=1))
    needed = int(ends[-1]) if len(ends) else 0
    if needed != flat.size:
        raise ValueError(f"{prefix}: data holds {flat.size} values, the "
                         f"blocks need {needed}")
    blocks = {}
    begin = 0
    for key, shape, end in zip(keys.tolist(), shapes.tolist(), ends.tolist()):
        blocks[tuple(key)] = flat[begin:end].reshape(shape)
        begin = end
    return BlockSparseTensor(indices, blocks, flux=flux, dtype=flat.dtype,
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
        _check_archive(path, data, "mps", "an MPS")
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
        _check_archive(path, data, "checkpoint", "a DMRG checkpoint")
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
