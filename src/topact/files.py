"""Parsing and serialization of the engine's JSON-compatible text formats.

One self-describing format per object kind; the kind is detected from the
keys.  Topologies and filters are stored by generators: the engine always
keeps the generated object and reports use a minimal base.  Cross-file
references ("monoid": path) resolve relative to the referencing file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .actions import MSet, validate_mset
from .congruences import (CongruenceFilter, RightCongruence,
                          congruence_from_class_map, filter_generated)
from .errors import TopactError
from .monoid import FiniteMonoid, SemigroupHom, validate_hom, validate_monoid
from .topology import Topology, generate_topology, minimal_base
from .util import bits, mask_of


class ParseError(TopactError):
    def __init__(self, path: str, message: str, line: Optional[int] = None):
        at = f"{path}:{line}" if line else path
        super().__init__(f"{at}: {message}")
        self.path = path
        self.line = line


class UnknownName(TopactError):
    pass


@dataclass
class Workspace:
    """Registry of loaded and derived objects with provenance strings."""

    monoids: dict[str, FiniteMonoid] = field(default_factory=dict)
    topologies: dict[str, Topology] = field(default_factory=dict)
    topology_carriers: dict[str, FiniteMonoid] = field(default_factory=dict)
    topology_points: dict[str, tuple[str, ...]] = field(default_factory=dict)  # carrier names
    msets: dict[str, MSet] = field(default_factory=dict)
    congruences: dict[str, RightCongruence] = field(default_factory=dict)
    filters: dict[str, CongruenceFilter] = field(default_factory=dict)
    homs: dict[str, SemigroupHom] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)
    loading: set[str] = field(default_factory=set)  # names whose files are being parsed

    def register(self, kind: dict, name: str, value: Any, source: str) -> None:
        if name in self.provenance:
            raise self.clash(name, source)
        kind[name] = value
        self.provenance[name] = source

    def clash(self, name: str, source: str) -> ParseError:
        return ParseError(source, f"duplicate object name {name!r}, "
                                  f"also loaded from {self.provenance[name]}")

    def monoid(self, name: str) -> FiniteMonoid:
        return self._get(self.monoids, name, "monoid")

    def topology(self, name: str) -> Topology:
        return self._get(self.topologies, name, "topology")

    def _get(self, table: dict, name: str, kind: str):
        if name not in table:
            raise UnknownName(f"no {kind} named {name!r} is loaded")
        return table[name]


def _load_json(path: Path) -> Any:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(str(path), str(exc))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), exc.msg, exc.lineno)


# each key's JSON type: strings nested this many lists deep
SHAPES = {"monoid": {"elements": 1, "identity": 0, "table": 2},
          "topology": {"monoid": 0, "carrier": 1, "base": 2},
          "mset": {"monoid": 0, "carrier": 1, "action": 2},
          "congruence": {"monoid": 0, "classes": 2}, "filter": {"monoid": 0, "generators": 3},
          "hom": {"source": 0, "target": 0}}


def _is_shaped(value: Any, depth: int) -> bool:
    if depth == 0:
        return isinstance(value, str)
    if depth == 1:  # by type, without a call per string
        return isinstance(value, list) and set(map(type, value)) <= {str}
    return isinstance(value, list) and all(_is_shaped(v, depth - 1) for v in value)


def detect_kind(obj: Any, path: Path) -> str:
    if not isinstance(obj, dict):
        raise ParseError(str(path), "top-level value must be an object")
    if "table" in obj:
        return "monoid"
    if "base" in obj:
        return "topology"
    if "action" in obj:
        return "mset"
    if "classes" in obj:
        return "congruence"
    if "generators" in obj:
        return "filter"
    if "map" in obj:
        return "hom"
    raise ParseError(str(path), f"cannot detect object kind from keys {sorted(obj)}")


def parse_inputs(paths: list[str]) -> Workspace:
    ws = Workspace()
    for p in paths:
        load_file(ws, Path(p))
    return ws


def load_file(ws: Workspace, path: Path) -> str:
    """Parse one file into the workspace, resolving references; returns the
    registered name (the file stem).  The same file reached again is not
    read again; another file with a registered stem is an error, and so is
    a reference back to a name whose file is still being parsed (a file
    naming itself, or a cycle of references)."""
    name = path.stem
    if name in ws.provenance:
        first = ws.provenance[name]
        # a topology's "monoid" reference mostly repeats a loaded spelling;
        # resolving both paths on every such load (an lstat per component)
        # cost the benchmark's desk workload about 10% of its items/s
        if first != str(path) and Path(first).resolve() != path.resolve():
            raise ws.clash(name, str(path))
        return name
    if name in ws.loading:
        raise ParseError(str(path), f"object name {name!r} is reached again "
                                    f"while its file is still loading")
    obj = _load_json(path)
    ws.loading.add(name)
    try:
        kind = detect_kind(obj, path)
        for key, depth in SHAPES[kind].items():
            if key in obj and not _is_shaped(obj[key], depth):
                shape = "a list of " + "lists of " * (depth - 1) + "strings"
                raise ParseError(str(path), f"{key!r} must be {shape if depth else 'a string'}")
        if kind == "monoid":
            ws.register(ws.monoids, name, parse_monoid(obj, path), str(path))
        elif kind == "topology":
            monoid, topo = parse_topology(obj, ws, path)
            ws.register(ws.topologies, name, topo, str(path))
            ws.topology_points[name] = tuple(obj["carrier"])
            if monoid is not None:
                ws.topology_carriers[name] = monoid
        elif kind == "mset":
            ws.register(ws.msets, name, parse_mset(obj, ws, path), str(path))
        elif kind == "congruence":
            ws.register(ws.congruences, name, parse_congruence(obj, ws, path), str(path))
        elif kind == "filter":
            ws.register(ws.filters, name, parse_filter(obj, ws, path), str(path))
        elif kind == "hom":
            ws.register(ws.homs, name, parse_hom(obj, ws, path), str(path))
    except KeyError as exc:
        raise ParseError(str(path), f"missing key {exc.args[0]!r}") from None
    finally:
        ws.loading.remove(name)
    return name


def _resolve_monoid(obj: Any, ws: Workspace, path: Path) -> FiniteMonoid:
    # an absolute reference replaces the parent
    return ws.monoid(load_file(ws, path.parent / obj["monoid"]))


def parse_monoid(obj: Any, path: Path) -> FiniteMonoid:
    names = list(obj["elements"])
    index = {n: i for i, n in enumerate(names)}
    if len(index) != len(names):
        raise ParseError(str(path), "element names are not unique")
    if obj["identity"] not in index:
        raise ParseError(str(path), f"identity {obj['identity']!r} is not an element")
    table = []
    for i, row in enumerate(obj["table"]):
        out = []
        for v in row:
            if v not in index:
                raise ParseError(str(path), f"table row {i} mentions unknown element {v!r}")
            out.append(index[v])
        table.append(out)
    return validate_monoid(names, table, index[obj["identity"]])


def parse_topology(obj: Any, ws: Workspace, path: Path
                   ) -> tuple[Optional[FiniteMonoid], Topology]:
    carrier = list(obj["carrier"])
    index = {n: i for i, n in enumerate(carrier)}
    if len(index) != len(carrier):
        raise ParseError(str(path), "carrier names are not unique")
    base = []
    for subset in obj["base"]:
        for v in subset:
            if v not in index:
                raise ParseError(str(path), f"base subset mentions unknown element {v!r}")
        base.append(mask_of(index[v] for v in subset))
    monoid = _resolve_monoid(obj, ws, path) if "monoid" in obj else None
    if monoid is not None and list(monoid.elements) != carrier:
        raise ParseError(str(path), "topology carrier does not match its monoid's elements")
    return monoid, generate_topology(len(carrier), base)


def parse_mset(obj: Any, ws: Workspace, path: Path) -> MSet:
    monoid = _resolve_monoid(obj, ws, path)
    carrier = list(obj["carrier"])
    index = {n: i for i, n in enumerate(carrier)}
    act = []
    for i, row in enumerate(obj["action"]):
        if len(row) != monoid.order:
            raise ParseError(str(path), f"action row {i} must list one value per monoid element")
        try:
            act.append([index[v] for v in row])
        except KeyError as exc:
            raise ParseError(str(path), f"action row {i} mentions unknown element "
                                        f"{exc.args[0]!r}") from None
    return validate_mset(monoid, carrier, act)


def _element_index(monoid: FiniteMonoid, v: Any, path: Path) -> int:
    if v not in monoid.elements:
        raise ParseError(str(path), f"unknown element {v!r}")
    return monoid.index(v)


def _classes_to_map(monoid: FiniteMonoid, classes: Any, path: Path) -> list[int]:
    class_of = [-1] * monoid.order
    for cid, cls in enumerate(classes):
        for v in cls:
            i = _element_index(monoid, v, path)
            if class_of[i] >= 0:
                raise ParseError(str(path), f"element {v!r} appears in two classes")
            class_of[i] = cid
    if -1 in class_of:
        missing = monoid.elements[class_of.index(-1)]
        raise ParseError(str(path), f"element {missing!r} missing from the partition")
    return class_of


def parse_congruence(obj: Any, ws: Workspace, path: Path) -> RightCongruence:
    monoid = _resolve_monoid(obj, ws, path)
    return congruence_from_class_map(monoid, _classes_to_map(monoid, obj["classes"], path))


def parse_filter(obj: Any, ws: Workspace, path: Path) -> CongruenceFilter:
    monoid = _resolve_monoid(obj, ws, path)
    gens = [congruence_from_class_map(monoid, _classes_to_map(monoid, classes, path))
            for classes in obj["generators"]]
    return filter_generated(monoid, gens)


def parse_hom(obj: Any, ws: Workspace, path: Path) -> SemigroupHom:
    names = [load_file(ws, path.parent / obj[key]) for key in ("source", "target")]
    source, target = map(ws.monoid, names)
    if not isinstance(obj["map"], dict):
        raise ParseError(str(path), "'map' must be an object")
    mapping = [-1] * source.order
    for k, v in obj["map"].items():
        mapping[_element_index(source, k, path)] = _element_index(target, v, path)
    if -1 in mapping:
        missing = source.elements[mapping.index(-1)]
        raise ParseError(str(path), f"map is missing element {missing!r}")
    return validate_hom(source, target, mapping)


def monoid_to_obj(monoid: FiniteMonoid) -> dict:
    return {
        "elements": list(monoid.elements),
        "identity": monoid.elements[monoid.identity],
        "table": [[monoid.elements[v] for v in row] for row in monoid.table],
    }


def topology_to_obj(topology: Topology, names: tuple[str, ...],
                    monoid_ref: Optional[str] = None) -> dict:
    out: dict[str, Any] = {"carrier": list(names)}
    if monoid_ref:
        out["monoid"] = monoid_ref
    out["base"] = [[names[i] for i in bits(u)] for u in minimal_base(topology)]
    return out


def mset_to_obj(mset: MSet, monoid_ref: str) -> dict:
    return {
        "monoid": monoid_ref,
        "carrier": list(mset.carrier),
        "action": [[mset.carrier[v] for v in row] for row in mset.act],
    }


def filter_to_obj(flt: CongruenceFilter, monoid_ref: str) -> dict:
    names = flt.monoid.elements
    return {
        "monoid": monoid_ref,
        "generators": [[[names[m] for m in cls] for cls in flt.least.classes()]],
    }


def hom_to_obj(hom: SemigroupHom, source_ref: str, target_ref: str) -> dict:
    return {
        "source": source_ref,
        "target": target_ref,
        "map": {hom.source.elements[a]: hom.target.elements[v]
                for a, v in enumerate(hom.map)},
    }


def dump(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
