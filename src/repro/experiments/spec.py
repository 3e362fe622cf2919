"""Declarative experiment scenarios: validated grids with stable content IDs.

The paper's evaluation is a *matrix* — algorithms x payload sizes x rank
counts x MPI baselines — and this module is the layer that describes such a
matrix declaratively instead of in hand-written per-figure loops:

* :class:`Scenario` — one fully-specified cell of the matrix (machine preset,
  placement, rank count, operation/sorter, implementation, vendor, payload,
  repetitions, seed).  Validated eagerly; hashable into a stable content ID
  (``scenario_id``) that keys the on-disk result cache.
* :class:`Grid` — a Cartesian product: ``fixed`` fields shared by every cell
  plus ordered ``axes``.  An axis value may be a scalar (assigned to the
  field named like the axis) or a mapping (several fields varied together,
  e.g. ``{impl: "mpi", vendor: "intel", label: "Intel MPI"}``).
* :class:`ExperimentSpec` — a named list of grids, loadable from TOML or JSON
  files (``[[grid]]`` array of tables), by shipped name, or built
  programmatically (the paper's figures: :mod:`repro.experiments.figures`).

Scenario IDs are content hashes over the *kind-relevant* canonical fields, so
adding a new scenario kind (or new defaults for another kind) never
invalidates existing IDs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tomllib
from dataclasses import dataclass, field, fields, replace
from typing import List, Mapping, Optional

from ..bench.harness import COLLECTIVE_OPS
from ..mpi.vendor import VENDORS
from ..simulator.costmodel import MACHINE_PRESETS, Placement, machine_preset

__all__ = [
    "SCENARIO_KINDS",
    "Scenario",
    "Grid",
    "ExperimentSpec",
    "build_placement",
    "shipped_spec_names",
    "shipped_spec_path",
]

#: Supported scenario kinds (what the runner knows how to execute).
SCENARIO_KINDS = ("collective", "jquick", "comm_create")

_IMPLS = ("rbc", "mpi")
#: ``comm_create``: what is created (Fig. 5 / 6 / 7) and by which call.
_COMM_CREATE_OPERATIONS = ("split_halves", "overlapping", "range_bcast")
_METHODS = ("rbc", "create_group", "split")
_SCHEDULES = ("alternating", "cascaded")
_WORKLOADS = ("uniform", "gaussian", "duplicates", "few_distinct",
              "all_equal", "sorted", "reverse", "zipf", "staggered")
_PLACEMENT_KINDS = ("single_node", "regular", "cyclic")

#: Directory of the specs shipped with the package.
_SPECS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "specs")


def build_placement(spec: Optional[Mapping], num_ranks: int) -> Optional[Placement]:
    """Materialise a placement from its declarative form.

    ``None`` keeps the cost model's default placement.  Otherwise ``spec``
    is a mapping with a ``kind`` of ``"single_node"``, ``"regular"``
    (``ranks_per_node``, ``nodes_per_island``) or ``"cyclic"``
    (``num_nodes``, optional ``nodes_per_island``).
    """
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "single_node":
        return Placement.single_node(num_ranks)
    if kind == "regular":
        return Placement.regular(num_ranks,
                                 ranks_per_node=int(spec["ranks_per_node"]),
                                 nodes_per_island=int(spec["nodes_per_island"]))
    if kind == "cyclic":
        nodes_per_island = spec.get("nodes_per_island")
        return Placement.cyclic(
            num_ranks, num_nodes=int(spec["num_nodes"]),
            nodes_per_island=None if nodes_per_island is None
            else int(nodes_per_island))
    raise ValueError(
        f"unknown placement kind {kind!r}; expected one of {_PLACEMENT_KINDS}")


@dataclass(frozen=True)
class Scenario:
    """One fully-specified experimental configuration.

    Common fields apply to every kind; ``operation``/``impl``/``vendor``/
    ``words`` describe a collective microbenchmark cell, ``n_per_proc``/
    ``workload``/``schedule`` (with ``impl``/``vendor`` reused as the
    backend) a JQuick sorting cell, and ``operation``/``method``/``vendor``
    a communicator-creation cell (``schedule`` orders the two creations of
    an ``overlapping`` boundary rank; a ``range_bcast`` then broadcasts
    ``words`` elements ``num_bcasts`` times).  ``label`` is a display name
    carried into result tables (it participates in the content hash, so
    relabelling a scenario is a new scenario — IDs stay unambiguous).
    """

    kind: str = "collective"
    machine: str = "flat"
    placement: Optional[Mapping] = None
    num_ranks: int = 8
    repetitions: int = 1
    seed: int = 0
    label: Optional[str] = None
    # --- collective fields
    operation: str = "bcast"
    impl: str = "rbc"
    vendor: str = "generic"
    words: int = 1
    # --- jquick fields
    n_per_proc: int = 64
    workload: str = "uniform"
    schedule: str = "alternating"
    # --- comm_create fields
    method: str = "rbc"
    num_bcasts: int = 1

    # ------------------------------------------------------------ validation

    def validate(self) -> "Scenario":
        """Raise ``ValueError`` on any inconsistent field; returns self."""
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; expected "
                             f"one of {SCENARIO_KINDS}")
        if self.machine not in MACHINE_PRESETS:
            raise ValueError(f"unknown machine preset {self.machine!r}; "
                             f"expected one of {sorted(MACHINE_PRESETS)}")
        if self.num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        if self.repetitions <= 0:
            raise ValueError("repetitions must be positive")
        if self.impl not in _IMPLS:
            raise ValueError(f"unknown impl {self.impl!r}; expected one of {_IMPLS}")
        if self.vendor not in VENDORS:
            raise ValueError(f"unknown vendor {self.vendor!r}; expected one "
                             f"of {sorted(VENDORS)}")
        if self.kind == "collective":
            if self.operation not in COLLECTIVE_OPS:
                raise ValueError(
                    f"unknown collective operation {self.operation!r}; "
                    f"expected one of {COLLECTIVE_OPS}")
            if self.words < 0:
                raise ValueError("words must be non-negative")
        elif self.kind == "comm_create":
            if self.operation not in _COMM_CREATE_OPERATIONS:
                raise ValueError(
                    f"unknown comm_create operation {self.operation!r}; "
                    f"expected one of {_COMM_CREATE_OPERATIONS}")
            if self.method not in _METHODS:
                raise ValueError(f"unknown method {self.method!r}; expected "
                                 f"one of {_METHODS}")
            if self.operation == "overlapping" and self.method == "split":
                raise ValueError("MPI_Comm_split (method 'split') cannot "
                                 "create overlapping communicators")
            if self.schedule not in _SCHEDULES:
                raise ValueError(f"unknown schedule {self.schedule!r}")
            if self.words < 0:
                raise ValueError("words must be non-negative")
            if self.num_bcasts <= 0:
                raise ValueError("num_bcasts must be positive")
        else:  # jquick
            if self.n_per_proc <= 0:
                raise ValueError("n_per_proc must be positive")
            if self.num_ranks & (self.num_ranks - 1):
                raise ValueError("jquick scenarios need a power-of-two "
                                 f"num_ranks, got {self.num_ranks}")
            if self.workload not in _WORKLOADS:
                raise ValueError(f"unknown workload {self.workload!r}; "
                                 f"expected one of {_WORKLOADS}")
            if self.schedule not in _SCHEDULES:
                raise ValueError(f"unknown schedule {self.schedule!r}")
        # Materialising the placement validates its shape parameters too.
        build_placement(self.placement, self.num_ranks)
        return self

    # -------------------------------------------------------------- identity

    def canonical(self) -> dict:
        """The kind-relevant fields as a plain, JSON-stable mapping."""
        common = {
            "kind": self.kind,
            "machine": self.machine,
            "placement": None if self.placement is None else dict(self.placement),
            "num_ranks": self.num_ranks,
            "repetitions": self.repetitions,
            "seed": self.seed,
            "label": self.label,
            "impl": self.impl,
            "vendor": self.vendor,
        }
        if self.kind == "collective":
            common.update(operation=self.operation, words=self.words)
        elif self.kind == "comm_create":
            common.update(operation=self.operation, method=self.method,
                          schedule=self.schedule, words=self.words,
                          num_bcasts=self.num_bcasts)
        else:
            common.update(n_per_proc=self.n_per_proc, workload=self.workload,
                          schedule=self.schedule)
        return common

    @property
    def scenario_id(self) -> str:
        """Stable content-hash ID (12 hex digits over the canonical form)."""
        payload = json.dumps(self.canonical(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def describe(self) -> str:
        """One-line human description used by CLI progress and `show`."""
        if self.kind == "collective":
            core = (f"{self.operation} {self.impl}/{self.vendor} "
                    f"words={self.words}")
        elif self.kind == "comm_create":
            core = f"{self.operation} {self.method}/{self.vendor}"
            if self.operation == "overlapping":
                core += f" schedule={self.schedule}"
            elif self.operation == "range_bcast":
                core += f" words={self.words} bcasts={self.num_bcasts}"
        else:
            core = (f"jquick {self.impl}/{self.vendor} "
                    f"n/p={self.n_per_proc} workload={self.workload}")
        return (f"{self.machine} p={self.num_ranks} {core} "
                f"reps={self.repetitions}")

    # ------------------------------------------------------- (de)serialising

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown scenario field(s) {unknown}; "
                             f"expected a subset of {sorted(known)}")
        return cls(**dict(data)).validate()

    def resolve_machine(self):
        """``(cost model, placement or None)`` this scenario runs on."""
        params = machine_preset(self.machine)
        return params, build_placement(self.placement, self.num_ranks)


@dataclass
class Grid:
    """Cartesian product of ``axes`` over a ``fixed`` base configuration."""

    fixed: dict = field(default_factory=dict)
    axes: dict = field(default_factory=dict)  # name -> list of values

    def expand(self) -> List[Scenario]:
        """The grid's scenarios in deterministic (row-major) axis order."""
        names = list(self.axes)
        for name, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"axis {name!r} must be a non-empty list, got {values!r}")
        scenarios = []
        for combo in itertools.product(*(self.axes[name] for name in names)):
            config = dict(self.fixed)
            for name, value in zip(names, combo):
                if isinstance(value, Mapping):
                    config.update(value)
                else:
                    config[name] = value
            scenarios.append(Scenario.from_dict(config))
        return scenarios


@dataclass
class ExperimentSpec:
    """A named experiment: one or more grids expanded into scenarios."""

    name: str
    description: str = ""
    grids: List[Grid] = field(default_factory=list)

    def scenarios(self) -> List[Scenario]:
        """All grids expanded, in declaration order; duplicate IDs rejected."""
        scenarios: List[Scenario] = []
        seen: dict = {}
        for grid in self.grids:
            scenarios.extend(grid.expand())
        for index, scenario in enumerate(scenarios):
            sid = scenario.scenario_id
            if sid in seen:
                raise ValueError(
                    f"spec {self.name!r} expands to duplicate scenarios: "
                    f"#{seen[sid]} and #{index} are both "
                    f"{scenario.describe()!r}")
            seen[sid] = index
        return scenarios

    def override(self, **values) -> "ExperimentSpec":
        """A copy with ``values`` forced into every grid.

        A scalar pins the field in ``fixed``, dropping a same-named
        scalar-valued axis (``--set num_ranks=16`` downscales a shipped
        grid); a list replaces (or introduces) the axis of that name
        (``--set words=[1,64]`` prunes a payload sweep).  Overridden fields
        are stripped *out of* mapping-valued axis entries rather than
        shadowed or dropped wholesale — ``--set impl=mpi`` on a grid whose
        ``impl`` axis co-varies ``{impl, vendor, label}`` pins the
        implementation but keeps the vendor/label panels varying.  The
        override wins everywhere; an axis whose entries all become empty is
        removed.
        """
        grids = []
        for grid in self.grids:
            fixed = dict(grid.fixed)
            axes = {name: list(vals) for name, vals in grid.axes.items()}
            for key, value in values.items():
                if isinstance(value, (list, tuple)):
                    axes[key] = list(value)
                    fixed.pop(key, None)
                else:
                    fixed[key] = value
                    axis_values = axes.get(key)
                    if axis_values is not None and not any(
                            isinstance(entry, Mapping) for entry in axis_values):
                        axes.pop(key)
            for name, axis_values in list(axes.items()):
                stripped = [
                    {k: v for k, v in entry.items() if k not in values}
                    if isinstance(entry, Mapping) else entry
                    for entry in axis_values]
                if all(isinstance(entry, Mapping) and not entry
                       for entry in stripped):
                    axes.pop(name)  # the override consumed the whole axis
                else:
                    axes[name] = stripped
            grids.append(Grid(fixed=fixed, axes=axes))
        return replace(self, grids=grids)

    # ---------------------------------------------------------------- loading

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentSpec":
        if "name" not in data:
            raise ValueError("experiment spec needs a 'name'")
        raw_grids = data.get("grid", data.get("grids", []))
        if isinstance(raw_grids, Mapping):
            raw_grids = [raw_grids]
        if not raw_grids:
            raise ValueError(f"spec {data['name']!r} declares no [[grid]]")
        grids = []
        for raw in raw_grids:
            unknown = sorted(set(raw) - {"fixed", "axes"})
            if unknown:
                raise ValueError(f"unknown grid key(s) {unknown}; each "
                                 "[[grid]] holds 'fixed' and 'axes' tables")
            grids.append(Grid(fixed=dict(raw.get("fixed", {})),
                              axes={k: list(v) for k, v in
                                    raw.get("axes", {}).items()}))
        return cls(name=str(data["name"]),
                   description=str(data.get("description", "")),
                   grids=grids)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentSpec":
        if path.endswith(".json"):
            with open(path, "rb") as handle:
                data = json.load(handle)
        elif path.endswith(".toml"):
            with open(path, "rb") as handle:
                data = tomllib.load(handle)
        else:
            raise ValueError(f"spec files are .toml or .json, got {path!r}")
        return cls.from_dict(data)

    @classmethod
    def load(cls, name_or_path: str) -> "ExperimentSpec":
        """Load a spec from a file path or a shipped spec name."""
        if os.path.sep in name_or_path or name_or_path.endswith((".toml", ".json")):
            return cls.from_file(name_or_path)
        from .figures import figure_spec, figure_spec_names  # builds on this module
        if name_or_path in figure_spec_names():
            return figure_spec(*name_or_path.rsplit("_", 1))
        return cls.from_file(shipped_spec_path(name_or_path))


def shipped_spec_names() -> List[str]:
    """Names :meth:`ExperimentSpec.load` resolves: the spec files under
    ``repro/experiments/specs/`` and the paper's ``<figure>_<scale>`` grids."""
    from .figures import figure_spec_names  # builds on this module
    return sorted([os.path.splitext(name)[0]
                   for name in os.listdir(_SPECS_DIR)
                   if name.endswith((".toml", ".json"))]
                  + figure_spec_names())


def shipped_spec_path(name: str) -> str:
    for extension in (".toml", ".json"):
        path = os.path.join(_SPECS_DIR, name + extension)
        if os.path.exists(path):
            return path
    raise FileNotFoundError(
        f"no shipped spec named {name!r}; available: {shipped_spec_names()}")
