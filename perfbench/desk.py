"""Workload `desk`: one user at a desk running the command line.

Set-up writes a ladder of monoid and topology files and loads them through
the program.  The ladder has one monoid per order from 4 to 10:
seeded submonoids of T_4 (S4, S5, S6, with at most MAX_S_CONGRUENCES right
congruences, since a large lattice makes `site` on the discrete topology run
for minutes), cyclic groups (C7, C10) and truncated additions (N8, N9).
Each carries a discrete, a coset-partition and a preorder topology, fixed
per monoid.  The seed conjugates the submonoids and presents every monoid
with its topologies in a seeded order of its elements, so the inputs change
with the seed and their isomorphism types do not: in trial runs, drawing
the partitions and preorders afresh for each seed moved the median item by
a tenth from seed to seed.  T3, the full transformation monoid of order 27,
appears only in `analyze` and `congruences`: its powerset action has 2^27
points.

One item is one `topact.cli.main(argv)` call with --json; every topact
cache is cleared before it, as a fresh process would start.  A round is
every command on every input, in a seeded order.  Exit code 1 from
`check` or `morita` is a verdict, not a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# module-qualified calls, so that the tracer's rebinding sees them
from topact import cli, congruences, files, monoid as mon

import oracles
from common import OUT
from oracles import expect

COLD_CACHES = True
# a round takes 10 to 15 s, and the first is not counted: at least three
# rounds, so that a run's figures come from two passes or more
MIN_ROUNDS = 3
# family letter and order; T3 is added to the full ladder
LADDER = ("S4", "S5", "S6", "C7", "N8", "N9", "C10")
TINY_LADDER = ("S4", "C5")
MAX_S_CONGRUENCES = 12
MAX_COSETS = 4
PREORDER_DENSITY = 0.15
TOPOLOGY_COMMANDS = ("analyze", "act-topology", "powder", "mult-core",
                     "complete", "site", "check", "morita")


@dataclass
class MonoidFixture:
    name: str
    names: list
    table: list
    path: str


@dataclass
class TopologyFixture:
    monoid: MonoidFixture
    base: list          # masks
    path: str
    nb: tuple = ()      # oracle data, filled by check_setup
    r0: tuple = ()


@dataclass(frozen=True)
class Item:
    command: str
    argv: tuple
    monoid: str
    topology: str | None


@dataclass
class Inputs:
    monoids: dict
    topologies: dict
    items: list
    verified: set = field(default_factory=set)


# --- the benchmark's own monoid tables -------------------------------------

def cyclic_table(n: int):
    return [str(i) for i in range(n)], [[(a + b) % n for b in range(n)] for a in range(n)]


def truncated_table(n: int):
    cap = n - 1
    return [str(i) for i in range(n)], [[min(a + b, cap) for b in range(n)] for a in range(n)]


def transformation_table(gens, points: int):
    """Submonoid of T_points generated by the maps; a·b is "a, then b"."""
    ident = tuple(range(points))
    elems, seen, frontier = [ident], {ident: 0}, [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                c = tuple(g[a[i]] for i in range(points))
                if c not in seen:
                    seen[c] = len(elems)
                    elems.append(c)
                    fresh.append(c)
        frontier = fresh
    table = [[seen[tuple(b[a[i]] for i in range(points))] for b in elems] for a in elems]
    return ["".join(map(str, e)) for e in elems], table


def _tame_submonoid(rng: random.Random, order: int):
    """A seeded submonoid of T_4 of the given order with a small lattice: a
    fixed one per order, found by a search that does not depend on the seed,
    conjugated by a seeded permutation of the 4 points.  Conjugates are
    isomorphic, so the cost of a round does not hang on the seed."""
    search = random.Random(order)
    for _ in range(100_000):
        gens = [tuple(search.randrange(4) for _ in range(4))
                for _ in range(search.choice((1, 2)))]
        names, table = transformation_table(gens, 4)
        if len(names) != order:
            continue
        monoid = mon.validate_monoid(names, table, 0)
        if len(congruences.enumerate_congruences(monoid)) <= MAX_S_CONGRUENCES:
            break
    else:
        raise RuntimeError(f"no tame submonoid of T_4 of order {order}")
    perm = list(range(4))
    rng.shuffle(perm)
    inverse = [perm.index(i) for i in range(4)]
    return transformation_table(
        [tuple(perm[g[inverse[i]]] for i in range(4)) for g in gens], 4)


def _coset_blocks(table) -> list:
    """Classes of a principal right congruence (for a cyclic group, the
    cosets of a subgroup) with at most MAX_COSETS classes, picked by a
    search that does not depend on the seed."""
    n = len(table)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    random.Random(n).shuffle(pairs)
    best = None
    for pair in pairs:
        class_of = oracles.generated_right_congruence(table, [pair])
        if max(class_of) < MAX_COSETS:
            best = class_of
            break
        if best is None or max(class_of) < max(best):
            best = class_of
    return [oracles.mask(c) for c in oracles.classes(best)]


def _preorder_base(n: int) -> list:
    """Up-sets (minimal neighbourhoods) of a preorder on n points: a fixed
    random preorder per size."""
    shape = random.Random(1000 + n)
    rel = [[i == j or shape.random() < PREORDER_DENSITY for j in range(n)]
           for i in range(n)]
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        rel[i][j] = True
    return [oracles.mask(j for j in range(n) if rel[i][j]) for i in range(n)]


def _relabel(rng: random.Random, names, table, bases: dict):
    """The same monoid and topologies with the elements in a seeded order;
    the identity stays first."""
    n = len(names)
    rest = list(range(1, n))
    rng.shuffle(rest)
    new = [0] + rest                    # old index -> new index
    new_names, new_table = [""] * n, [[0] * n for _ in range(n)]
    for a in range(n):
        new_names[new[a]] = names[a]
        for b in range(n):
            new_table[new[a]][new[b]] = new[table[a][b]]
    new_bases = {kind: [oracles.mask(new[i] for i in oracles.members(b)) for b in base]
                 for kind, base in bases.items()}
    return new_names, new_table, new_bases


# --- set-up ------------------------------------------------------------------

def setup(seed: int, tiny: bool) -> Inputs:
    rng = random.Random(seed)
    directory = OUT / f"desk-seed{seed}{'-tiny' if tiny else ''}"
    directory.mkdir(parents=True, exist_ok=True)
    monoids, topologies, items = {}, {}, []
    ladder = [(name, name[0], int(name[1:]))
              for name in (TINY_LADDER if tiny else LADDER)]
    if not tiny:
        ladder.append(("T3", "T", 27))
    for name, family, order in ladder:
        if family == "S":
            names, table = _tame_submonoid(rng, order)
        elif family == "C":
            names, table = cyclic_table(order)
        elif family == "N":
            names, table = truncated_table(order)
        else:
            names, table = transformation_table(((1, 0, 2), (1, 2, 0), (0, 0, 2)), 3)
        n = len(names)
        bases = {"coset": _coset_blocks(table)}
        if family != "T":
            bases["discrete"] = [1 << i for i in range(n)]
            bases["preorder"] = _preorder_base(n)
        names, table, bases = _relabel(rng, names, table, bases)
        monoid = mon.validate_monoid(names, table, 0)
        path = directory / f"{name}.json"
        path.write_text(files.dump(files.monoid_to_obj(monoid)))
        fixture = MonoidFixture(name, names, table, str(path))
        monoids[name] = fixture
        for kind, base in sorted(bases.items()):
            tname = f"{name}_{kind}"
            tpath = directory / f"{tname}.json"
            tpath.write_text(files.dump({
                "monoid": f"{name}.json", "carrier": names,
                "base": [[names[i] for i in oracles.members(b)] for b in base]}))
            topologies[tname] = TopologyFixture(fixture, base, str(tpath))
        items.append(Item("congruences", ("congruences", str(path), "--json"), name, None))
        for tname in sorted(t for t in topologies if topologies[t].monoid is fixture):
            tpath = topologies[tname].path
            commands = TOPOLOGY_COMMANDS if family != "T" else ("analyze",)
            for command in commands:
                items.append(Item(command, _argv(command, str(path), tpath), name, tname))
    workspace = files.Workspace()
    for fixture in list(monoids.values()) + list(topologies.values()):
        files.load_file(workspace, Path(fixture.path))
    rng.shuffle(items)
    return Inputs(monoids, topologies, items)


def _argv(command: str, monoid: str, topology: str) -> tuple:
    if command in ("complete", "site"):
        return (command, monoid, "--filter", f"open@{topology}", "--json")
    if command == "check":
        return ("check", "atomic", monoid, "--filter", f"open@{topology}", "--json")
    if command == "morita":
        return ("morita", monoid, topology, monoid, topology, "--json")
    return (command, monoid, topology, "--json")


def round_items(inputs: Inputs):
    return inputs.items


def check_setup(inputs: Inputs) -> None:
    for t in inputs.topologies.values():
        n = len(t.monoid.names)
        t.nb = oracles.neighbourhoods(n, t.base)
        t.r0 = oracles.least_open_congruence(t.monoid.table, oracles.components(t.nb))


# --- items ---------------------------------------------------------------------

class CommandError(Exception):
    """The command exited with code 2: a failed item."""


def run_item(inputs: Inputs, item: Item):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(item.argv))
    if code == 2:
        raise CommandError(f"{' '.join(item.argv)}: {err.getvalue().strip()}")
    return code, out.getvalue(), err.getvalue()


def json_report(stdout: str) -> dict:
    """The --json report: the lines from the last bare "{" to the end."""
    lines = stdout.splitlines()
    starts = [i for i, line in enumerate(lines) if line == "{"]
    expect(bool(starts), "no JSON report in the output")
    return json.loads("\n".join(lines[starts[-1]:]))


def check_item(inputs: Inputs, item: Item, out) -> None:
    code, stdout, stderr = out
    key = (item.argv, code, stdout)
    if key in inputs.verified:
        return
    expect(code in ((0, 1) if item.command == "check" else (0,)),
           f"{' '.join(item.argv)}: exit code {code} ({stderr.strip()})")
    report = json_report(stdout)
    monoid = inputs.monoids[item.monoid]
    topology = inputs.topologies.get(item.topology)
    CHECKS[item.command](monoid, topology, report, code)
    inputs.verified.add(key)


def _indices(monoid: MonoidFixture, names) -> list:
    return [monoid.names.index(v) for v in names]


def _class_map(monoid: MonoidFixture, blocks) -> tuple:
    class_of = [-1] * len(monoid.names)
    for c, block in enumerate(blocks):
        for m in _indices(monoid, block):
            expect(class_of[m] < 0, "an element sits in two classes")
            class_of[m] = c
    expect(-1 not in class_of, "a partition misses an element")
    return oracles.canonical(class_of)


def check_analyze(monoid, topology, report, code) -> None:
    table, n = monoid.table, len(monoid.names)
    one = 0
    expect(report["order"] == n, "wrong order")
    expect(report["commutative"] == all(table[a][b] == table[b][a]
                                        for a in range(n) for b in range(n)),
           "wrong commutativity")
    expect(set(_indices(monoid, report["idempotents"]))
           == {e for e in range(n) if table[e][e] == e}, "wrong idempotents")
    expect(set(_indices(monoid, report["units"]))
           == {u for u in range(n)
               if any(table[u][k] == one == table[k][u] for k in range(n))},
           "wrong units")
    zeros = [z for z in range(n) if all(table[m][z] == z == table[z][m] for m in range(n))]
    expect(report["zero"] == (monoid.names[zeros[0]] if zeros else None), "wrong zero")
    if topology is not None:
        nb, got = topology.nb, report["topology"]
        expect(got["opens"] == oracles.count_opens(nb), "wrong number of opens")
        expect(got["t0"] == oracles.is_t0(nb), "wrong T0 flag")
        expect(got["clopen_base"] == oracles.has_clopen_base(nb), "wrong clopen-base flag")
        expect(got["discrete"] == all(nb[x] == 1 << x for x in range(n)),
               "wrong discreteness flag")
        expect(got["topological_monoid"] == oracles.multiplication_continuous(table, nb),
               "wrong topological-monoid flag")


def check_congruences(monoid, topology, report, code) -> None:
    table, n = monoid.table, len(monoid.names)
    lattice = [_class_map(monoid, blocks) for blocks in report["congruences"]]
    found = set(lattice)
    expect(report["count"] == len(lattice) == len(found), "congruences repeat or miscount")
    expect(all(oracles.is_right_stable(table, r) for r in lattice),
           "a listed partition is not right-stable")
    expect(tuple(range(n)) in found and (0,) * n in found, "diagonal or total missing")
    for i, r1 in enumerate(lattice):
        for r2 in lattice[:i]:
            expect(oracles.meet(r1, r2) in found and oracles.join(r1, r2) in found,
                   "the list is not closed under meet and join")
    if monoid.name.startswith("C"):
        expect(len(lattice) == oracles.divisor_count(n), "cyclic: count is not d(n)")
    if n <= 7:
        expect(len(lattice) == oracles.count_right_congruences(table),
               "count differs from the brute force over set partitions")


def check_act_topology(monoid, topology, report, code) -> None:
    sets = {oracles.mask(_indices(monoid, _subset(s))) for s in report["continuous_sets"]}
    expect(len(sets) == len(report["continuous_sets"]), "a continuous subset repeats")
    expect(sets == oracles.unions_of_classes(topology.r0),
           "continuous subsets are not the unions of r0-classes")
    blocks = [oracles.mask(c) for c in oracles.classes(topology.r0)]
    is_partition_of_r0 = all(topology.nb[x] == next(b for b in blocks if b >> x & 1)
                             for x in range(len(monoid.names)))
    expect(report["is_action_topology"] == is_partition_of_r0,
           "wrong is_action_topology flag")


def _subset(text: str) -> list:
    inner = text[1:-1]
    return inner.split(",") if inner else []


def check_powder(monoid, topology, report, code) -> None:
    r0_classes = oracles.classes(topology.r0)
    expect(len(report["elements"]) == len(r0_classes),
           "powder order is not the number of r0-classes")
    expect(set(report["elements"]) == {f"[{monoid.names[c[0]]}]" for c in r0_classes},
           "powder elements are not the r0-classes")
    index = {v: i for i, v in enumerate(report["elements"])}
    expect(oracles.is_associative([[index[v] for v in row] for row in report["table"]]),
           "powder table is not associative")


def check_mult_core(monoid, topology, report, code) -> None:
    opens = oracles.count_opens(topology.nb)
    if oracles.multiplication_continuous(monoid.table, topology.nb):
        expect(report["opens"] == opens, "core of a topological monoid lost opens")
    else:
        expect(report["opens"] < opens, "core kept every open of a non-topological monoid")


def check_complete(monoid, topology, report, code) -> None:
    r0 = topology.r0
    expect(len(report["L"]["elements"]) == max(r0) + 1,
           "completion order is not the number of r0-classes")
    u = report["u"]["map"]
    kernel = oracles.canonical(u[name] for name in monoid.names)
    expect(kernel == r0, "comparison map kernel is not r0")
    expect([_class_map(monoid, b) for b in report["filter_base"]] == [r0],
           "filter base is not r0")


def check_site(monoid, topology, report, code) -> None:
    table, r0 = monoid.table, topology.r0
    objects = [_class_map(monoid, [b.split(",") for b in label.split("|")])
               for label in report["objects"]]
    expect(len(set(objects)) == len(objects), "a site object repeats")
    expect(all(oracles.is_right_stable(table, r) and oracles.coarsens(r0, r)
               for r in objects), "a site object is not an open congruence")
    expect(r0 in objects and (0,) * len(table) in objects, "r0 or the total is missing")
    loops = {src for _, src, tgt in report["arrows"] if src == tgt}
    expect(loops == set(range(len(objects))), "an object has no endomorphism")
    if max(r0) < 7:
        expect(len(objects) == oracles.count_right_congruences(table, above=r0),
               "object count differs from the brute force over coarsenings of r0")


def check_atomic(monoid, topology, report, code) -> None:
    table, r0 = monoid.table, topology.r0
    n = len(table)
    atomic = all(any(r0[table[m][k]] == r0[0] for k in range(n)) for m in range(n))
    expect(report["verdict"] == atomic and code == (0 if atomic else 1),
           "atomicity verdict differs from the r0 criterion")


def check_morita(monoid, topology, report, code) -> None:
    expect(report["verdict"] != "no" and code == 0, "a site is not equivalent to itself")


CHECKS = {
    "analyze": check_analyze,
    "congruences": check_congruences,
    "act-topology": check_act_topology,
    "powder": check_powder,
    "mult-core": check_mult_core,
    "complete": check_complete,
    "site": check_site,
    "check": check_atomic,
    "morita": check_morita,
}
