"""Declarative scenario specs for experiment campaigns.

The paper's results are *campaigns*: weak/strong-scaling grids over models,
bond dimensions, backends and machine shapes (Figs. 7-13), not single
hand-launched runs.  This module provides the declarative layer those
campaigns are written in:

* :class:`RunSpec` — a complete, JSON-serializable description of one DMRG
  run (model + parameter overrides, engine, backend, simulated machine
  shape, sweep schedule, seed, observables).  Every spec has a
  deterministic :attr:`~RunSpec.run_id` derived from a canonical content
  hash, so the same physics always maps to the same registry record no
  matter which process, machine or dict ordering produced the spec.
* :class:`GridSpec` — a grid *over* run specs: cartesian ``axes`` (every
  combination) and ``zips`` (axes varied together, e.g. weak scaling's
  "system size grows with node count"), expanded deterministically into a
  list of :class:`RunSpec`.

Specs are plain data: building one performs no physics and imports no heavy
machinery, so grids can be expanded, hashed and diffed cheaply (including
inside the scheduler's worker processes).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

#: bump when the hashed payload's schema changes incompatibly, so old
#: registry records are never silently confused with new ones
SPEC_VERSION = 1

ENGINES = ("two-site", "single-site", "excited")
BACKENDS = ("direct", "list", "sparse-dense", "sparse-sparse")
SCHEDULES = ("ramp", "fixed")
INITIAL_STATES = ("product", "random")

#: int-valued spec fields (coerced on load so ``64`` and ``64.0`` hash equal)
_INT_FIELDS = ("nodes", "procs_per_node", "maxdim", "nsweeps", "nstates",
               "seed", "initial_bond_dim")
_FLOAT_FIELDS = ("cutoff",)


@dataclass(frozen=True)
class RunSpec:
    """A declarative, content-addressed description of one DMRG run.

    Attributes mirror the knobs of ``python -m repro run``; everything is
    JSON-native so the spec can cross process boundaries, live in registry
    records and be hashed canonically.
    """

    model: str
    params: Tuple[Tuple[str, object], ...] = ()
    engine: str = "two-site"
    backend: str = "direct"
    machine: str = "blue-waters"
    nodes: int = 1
    procs_per_node: int = 16
    maxdim: int = 64
    nsweeps: int = 4
    cutoff: float = 1e-10
    schedule: str = "ramp"
    nstates: int = 2
    seed: int = 0
    initial_state: str = "product"
    initial_bond_dim: int = 8
    observables: Tuple[str, ...] = ()
    #: free-form human tag for grid files and reports; cosmetic only — it is
    #: excluded from the content hash, so relabelling the same physics keeps
    #: the same run id (and the registry keeps a single record)
    label: str = ""

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"choose from {ENGINES}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"choose from {BACKENDS}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}; "
                             f"choose from {SCHEDULES}")
        if self.initial_state not in INITIAL_STATES:
            raise ValueError(f"unknown initial_state {self.initial_state!r}; "
                             f"choose from {INITIAL_STATES}")
        # normalize container fields so construction paths hash identically
        object.__setattr__(self, "params",
                           tuple(sorted((str(k), v) for k, v in
                                        dict(self.params).items())))
        object.__setattr__(self, "observables",
                           tuple(str(o) for o in self.observables))

    # -- serialization ------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-native dict (params as a sub-dict)."""
        d = asdict(self)
        d["params"] = dict(self.params)
        d["observables"] = list(self.observables)
        return d

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunSpec":
        """Build a spec from a dict, validating keys and coercing numbers.

        Unknown keys are rejected (a typo in a grid file must not silently
        produce a differently-hashed spec of the *default* physics).
        """
        clean = dict(data)
        # spec files written while the compiled matvec path existed carry
        # its switch; every archived run id was hashed with ``true``
        if not clean.pop("compile_matvec", True):
            raise ValueError("compile_matvec=false: the compiled matvec "
                             "path this switched off was removed (the "
                             "planned chain is the only matvec); drop the "
                             "field — the run gets the id of the default")
        # likewise the executor selector: archived reports and spec files
        # carry ``"numpy"``, which was never part of the hashed payload
        legacy_ops = clean.pop("block_ops", "numpy")
        if legacy_ops != "numpy":
            raise ValueError(f"block_ops={legacy_ops!r}: the threaded and "
                             "process executors were removed (numpy is the "
                             "only block-ops executor); drop the field — "
                             "the run gets the id of the default")
        # and the float32 warm-up switch, which ``to_dict`` wrote at
        # ``false``; it was omitted from the hashed payload at that value
        if clean.pop("mixed_precision", False):
            raise ValueError("mixed_precision=true: the float32 warm-up was "
                             "removed (DMRG runs in double precision); drop "
                             "the field — the run gets the id of the "
                             "default")
        known = set(cls.__dataclass_fields__)
        unknown = set(clean) - known
        if unknown:
            raise ValueError(f"unknown spec field(s): {sorted(unknown)}; "
                             f"known fields: {sorted(known)}")
        if "model" not in clean:
            raise ValueError("spec needs at least a 'model' field")
        clean["params"] = tuple(sorted(
            (str(k), v) for k, v in dict(clean.get("params", {})).items()))
        clean["observables"] = tuple(clean.get("observables", ()))
        for key in _INT_FIELDS:
            if key in clean:
                clean[key] = int(clean[key])
        for key in _FLOAT_FIELDS:
            if key in clean:
                clean[key] = float(clean[key])
        return cls(**clean)

    # -- content addressing ------------------------------------------------- #
    def canonical_json(self) -> str:
        """The canonical JSON form the run id is derived from.

        Keys are sorted recursively and separators are fixed, so two dicts
        with different insertion orders — or the same spec built in another
        process — serialize byte-identically.
        """
        # the removed field's constant keeps every existing run id
        payload = {"spec_version": SPEC_VERSION, "compile_matvec": True}
        payload.update(self.to_dict())
        payload.pop("label", None)    # cosmetic, not part of the identity
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @property
    def content_hash(self) -> str:
        """Full SHA-256 hex digest of :meth:`canonical_json`."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @property
    def run_id(self) -> str:
        """Deterministic registry id: ``<model>-<engine>-<12 hash chars>``."""
        return f"{self.model}-{self.engine}-{self.content_hash[:12]}"

    def summary(self) -> str:
        """One-line human description (for campaign tables and logs)."""
        params = ",".join(f"{k}={v}" for k, v in self.params)
        bits = [self.model + (f"({params})" if params else ""),
                self.engine, self.backend, f"m={self.maxdim}",
                f"sweeps={self.nsweeps}"]
        if self.backend != "direct":
            bits.append(f"{self.nodes}x{self.procs_per_node}@{self.machine}")
        return " ".join(bits)


# --------------------------------------------------------------------------- #
# grids
# --------------------------------------------------------------------------- #
def _set_axis_value(fields: Dict[str, object], key: str, value) -> None:
    """Assign an axis value; ``params.x`` dotted keys reach into params."""
    if key.startswith("params."):
        params = dict(fields.get("params", {}))
        params[key[len("params."):]] = value
        fields["params"] = params
    else:
        fields[key] = value


@dataclass
class GridSpec:
    """A named grid of run specs: cartesian axes and zipped axis groups.

    ``axes`` maps a spec field (or a dotted ``params.<name>`` model
    parameter) to the list of values it takes; the grid is the cartesian
    product over all axes.  Each entry of ``zips`` is a dict of equal-length
    axes that vary *together* (one grid dimension), the natural encoding of
    weak scaling where the system grows with the machine.
    """

    base: Dict[str, object]
    axes: Dict[str, List] = field(default_factory=dict)
    zips: List[Dict[str, List]] = field(default_factory=list)
    name: str = "campaign"

    def __post_init__(self):
        for group in self.zips:
            lengths = {len(v) for v in group.values()}
            if len(lengths) > 1:
                raise ValueError(f"zipped axes must have equal lengths, got "
                                 f"{ {k: len(v) for k, v in group.items()} }")

    def expand(self) -> List[RunSpec]:
        """The grid's runs, in deterministic (sorted-axis) order."""
        # each cartesian dimension is a list of {key: value} assignments
        dimensions: List[List[Dict[str, object]]] = []
        for key in sorted(self.axes):
            dimensions.append([{key: v} for v in self.axes[key]])
        for group in self.zips:
            keys = sorted(group)
            length = len(group[keys[0]]) if keys else 0
            dimensions.append([{k: group[k][i] for k in keys}
                               for i in range(length)])
        specs: List[RunSpec] = []
        for combo in itertools.product(*dimensions) if dimensions else [()]:
            fields = json.loads(json.dumps(self.base))  # deep copy, JSON-native
            for assignment in combo:
                for key, value in assignment.items():
                    _set_axis_value(fields, key, value)
            specs.append(RunSpec.from_dict(fields))
        return dedupe_specs(specs)            # zip/axes collisions collapse

    # -- serialization ------------------------------------------------------ #

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GridSpec":
        """Build a grid from a dict (the JSON grid-file format)."""
        known = {"name", "base", "axes", "zips", "runs"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown grid field(s): {sorted(unknown)}; "
                             f"known fields: {sorted(known)}")
        if "runs" in data:
            raise ValueError("explicit 'runs' lists are expanded by "
                             "load_specs(), not GridSpec")
        return cls(base=dict(data.get("base", {})),
                   axes={str(k): list(v)
                         for k, v in dict(data.get("axes", {})).items()},
                   zips=[{str(k): list(v) for k, v in dict(g).items()}
                         for g in data.get("zips", [])],
                   name=str(data.get("name", "campaign")))


def load_specs(source: Dict[str, object] | str | Path) -> Tuple[str, List[RunSpec]]:
    """Load ``(campaign name, run specs)`` from a grid dict or JSON file.

    The file format accepts either a grid (``base``/``axes``/``zips``) or an
    explicit ``runs`` list of spec dicts (each merged over ``base``); both
    may be combined with a ``name``.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        default_name = Path(source).stem
    else:
        data = dict(source)
        default_name = "campaign"
    name = str(data.get("name", default_name))
    if "runs" in data:
        base = dict(data.get("base", {}))
        specs: List[RunSpec] = []
        for entry in data["runs"]:
            fields = dict(base)
            entry = dict(entry)
            if "params" in base or "params" in entry:
                params = dict(base.get("params", {}))
                params.update(dict(entry.pop("params", {})))
                fields["params"] = params
            fields.update(entry)
            specs.append(RunSpec.from_dict(fields))
        return name, dedupe_specs(specs)
    grid = GridSpec.from_dict(data)
    if isinstance(source, (str, Path)) and "name" not in data:
        grid.name = default_name
    return grid.name, grid.expand()


def dedupe_specs(specs: Iterable[RunSpec]) -> List[RunSpec]:
    """Drop specs whose run id repeats, preserving first-seen order."""
    seen = set()
    out: List[RunSpec] = []
    for spec in specs:
        if spec.run_id not in seen:
            seen.add(spec.run_id)
            out.append(spec)
    return out
