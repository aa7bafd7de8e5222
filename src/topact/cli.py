"""Command-line surface.

Object arguments are file paths (loaded into the workspace under their
stem) or names of already-loaded objects.  Reports are deterministic;
--json adds a machine-readable copy.  Exit codes: 0 success, 1 a checked
property is false, 2 errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import files
from .completion import (complete, dense_closed_factorization, is_complete,
                         prodiscrete_criteria)
from .congruences import (CongruenceFilter, enumerate_congruences, filter_generated,
                          full_filter, open_congruences)
from .errors import TopactError
from .invariants import (dense_units, is_atomic, joint_covering, morita_equivalent,
                         principal_site, strict_joint_covering,
                         zero_fixed_point_check)
from .monoid import (FiniteMonoid, factor_surjection_inclusion, idempotents,
                     unit_indices, zero_element)
from .reflections import (continuous_subsets, is_topological_filter,
                          is_topological_monoid, mult_continuous_core,
                          powder_reflection, t0_quotient)
from .suite import exhaustive_suite
from .topology import (Topology, connected_components, minimal_base,
                       separation_report)
from .util import render_subset


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except TopactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand or, when command names one, of that
    subcommand alone: a call parses one command line, so it builds only the
    subparser it uses.  Usage, help and errors read the same either way."""
    parser = argparse.ArgumentParser(
        prog="topact",
        description="finite monoids with topologies: actions, reflections, "
                    "completions, sites")
    only = command if command in SUBCOMMANDS else None
    # one subparser shows the metavar that all of them derive from their names
    sub = parser.add_subparsers(
        dest="command",
        metavar=None if only is None else "{" + ",".join(SUBCOMMANDS) + "}")
    for name, (func, arguments) in SUBCOMMANDS.items():
        if only is not None and name != only:
            continue
        p = sub.add_parser(name)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    return parser


def _resolve(ws: files.Workspace, arg: str) -> str:
    path = Path(arg)
    if path.exists():
        return files.load_file(ws, path)
    return arg


def _monoid(ws: files.Workspace, arg: str) -> tuple[str, FiniteMonoid]:
    name = _resolve(ws, arg)
    return name, ws.monoid(name)


def _topology(ws: files.Workspace, arg: str, monoid: FiniteMonoid
              ) -> tuple[str, Topology]:
    name = _resolve(ws, arg)
    topo = ws.topology(name)
    if ws.topology_points[name] != monoid.elements:
        raise TopactError(f"topology {name!r} lives on a different carrier: "
                          f"its points are not the monoid's elements, in order")
    declared = ws.topology_carriers.get(name)
    if declared is not None and declared != monoid:
        raise TopactError(f"topology {name!r} was declared over a different monoid")
    return name, topo


def _filter(ws: files.Workspace, spec: str, monoid: FiniteMonoid) -> CongruenceFilter:
    if spec == "all":
        return full_filter(monoid)
    if spec.startswith("open@"):
        _, topo = _topology(ws, spec[len("open@"):], monoid)
        return open_congruences(monoid, topo)
    name = _resolve(ws, spec)
    if name in ws.filters:
        flt = ws.filters[name]
    elif name in ws.congruences:
        cong = ws.congruences[name]
        flt = filter_generated(cong.monoid, [cong])
    else:
        raise files.UnknownName(f"filter spec {spec!r} names nothing loaded")
    if flt.monoid != monoid:
        raise TopactError(f"filter {name!r} was declared over a different monoid")
    return flt


def _emit(args, report: dict, text: list[str], name: str | None = None) -> None:
    """Print the report's lines and, under --json, its JSON copy; given the
    object's name, --out DIR also gets the copy as DIR/<name>_<command>.json."""
    if name is not None:
        _write_out(args, f"{name}_{args.command}", report)
    for line in text:
        print(line)
    if getattr(args, "as_json", False):
        print(files.dump(report), end="")


def _write_out(args, name: str, obj: dict) -> None:
    out = getattr(args, "out", None)
    if out:
        directory = Path(out)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.json").write_text(files.dump(obj))


def _opens_text(topology: Topology, names: tuple[str, ...]) -> str:
    return " ".join(render_subset(u, names) for u in minimal_base(topology))


def cmd_validate(args) -> int:
    ws = files.Workspace()
    report = {}
    for f in args.files:
        name = files.load_file(ws, Path(f))
        kind = next(k for k, table in (
            ("monoid", ws.monoids), ("topology", ws.topologies), ("mset", ws.msets),
            ("congruence", ws.congruences), ("filter", ws.filters), ("hom", ws.homs),
        ) if name in table)
        print(f"{name}: OK ({kind})")
        report[name] = kind
    if args.as_json:
        print(files.dump(report), end="")
    return 0


def cmd_analyze(args) -> int:
    ws = files.Workspace()
    name, monoid = _monoid(ws, args.monoid_arg)
    names = monoid.elements
    commutative = monoid.is_commutative()
    idem = [names[e] for e in idempotents(monoid)]
    units = [names[u] for u in unit_indices(monoid)]
    z = zero_element(monoid)
    zero = names[z] if z is not None else None
    lines = [
        f"monoid {name}: order {monoid.order}, identity {names[monoid.identity]}",
        f"commutative: {commutative}",
        f"idempotents: {' '.join(idem)}",
        f"units: {' '.join(units)}",
        f"zero: {zero if zero is not None else 'none'}",
    ]
    report: dict = {"order": monoid.order, "commutative": commutative,
                    "idempotents": idem, "units": units, "zero": zero}
    if args.topology_arg:
        tname, topo = _topology(ws, args.topology_arg, monoid)
        sep = separation_report(topo)
        comps = connected_components(topo)
        topological = is_topological_monoid(monoid, topo)
        lines += [
            f"topology {tname}: {len(topo.opens)} opens, base {_opens_text(topo, names)}",
            f"T0: {sep.t0}  clopen base: {sep.clopen_base}  discrete: {sep.discrete}",
            f"components: {' '.join('{' + ','.join(names[i] for i in c) + '}' for c in comps)}",
            f"topological monoid: {topological}",
        ]
        report["topology"] = {"opens": len(topo.opens), "t0": sep.t0,
                              "clopen_base": sep.clopen_base,
                              "discrete": sep.discrete,
                              "topological_monoid": topological}
    _emit(args, report, lines, name)
    return 0


def cmd_congruences(args) -> int:
    ws = files.Workspace()
    name, monoid = _monoid(ws, args.monoid_arg)
    lattice = enumerate_congruences(monoid)
    lines = [f"right congruences of {name}: {len(lattice)}"]
    lines += [f"  {r.label()}" for r in lattice]
    _emit(args, {"count": len(lattice),
                 "congruences": [[list(map(monoid.elements.__getitem__, cls))
                                  for cls in r.classes()] for r in lattice]}, lines, name)
    return 0


def cmd_act_topology(args) -> int:
    ws = files.Workspace()
    name, monoid = _monoid(ws, args.monoid_arg)
    tname, topo = _topology(ws, args.topology_arg, monoid)
    report = continuous_subsets(monoid, topo)
    names = monoid.elements
    # listed before len(topo.opens): the input is finer, so it has at least as
    # many opens, and past the 2^16 cap the error names the union list
    sets = [render_subset(a, names) for a in report.continuous_sets]
    lines = [
        f"input topology {tname}: {len(topo.opens)} opens, "
        f"base {_opens_text(topo, names)}",
        f"continuous subsets of ({name}, {tname}): {' '.join(sets)}",
        f"action topology base: {_opens_text(report.topology, names)}",
        f"is action topology: {report.is_action_topology}",
    ]
    _emit(args, {"continuous_sets": sets,
                 "is_action_topology": report.is_action_topology}, lines, name)
    return 0


def cmd_powder(args) -> int:
    ws = files.Workspace()
    name, monoid = _monoid(ws, args.monoid_arg)
    tname, topo = _topology(ws, args.topology_arg, monoid)
    reflection = powder_reflection(monoid, topo)
    q = reflection.monoid
    lines = [
        f"powder reflection of ({name}, {tname}): order {q.order}",
        f"quotient elements: {' '.join(q.elements)}",
        f"projection: {' '.join(f'{a}->{q.elements[v]}' for a, v in zip(monoid.elements, reflection.projection.map))}",
        "quotient topology: discrete",
    ]
    _emit(args, files.monoid_to_obj(q), lines, name)
    return 0


def cmd_t0(args) -> int:
    ws = files.Workspace()
    name, monoid = _monoid(ws, args.monoid_arg)
    tname, topo = _topology(ws, args.topology_arg, monoid)
    quotient, q_top, projection = t0_quotient(monoid, topo)
    lines = [
        f"T0 quotient of ({name}, {tname}): order {quotient.order}",
        f"projection: {' '.join(f'{a}->{quotient.elements[v]}' for a, v in zip(monoid.elements, projection.map))}",
        f"quotient topology base: {_opens_text(q_top, quotient.elements)}",
    ]
    _emit(args, files.monoid_to_obj(quotient), lines, name)
    return 0


def cmd_mult_core(args) -> int:
    ws = files.Workspace()
    name, monoid = _monoid(ws, args.monoid_arg)
    tname, topo = _topology(ws, args.topology_arg, monoid)
    core = mult_continuous_core(monoid, topo)
    lines = [
        f"multiplication-continuous core of ({name}, {tname}): "
        f"{len(core.opens)} opens, base {_opens_text(core, monoid.elements)}",
    ]
    _emit(args, {"opens": len(core.opens)}, lines, name)
    return 0


def cmd_complete(args) -> int:
    ws = files.Workspace()
    name, monoid = _monoid(ws, args.monoid_arg)
    flt = _filter(ws, args.filter, monoid)
    cpl = complete(monoid, flt)
    crit = prodiscrete_criteria(monoid, flt)
    lines = [
        f"completion of {name} over filter with base {flt.least.label()}",
        f"L: order {cpl.monoid.order}, elements {' '.join(cpl.monoid.elements)}",
        f"u: {' '.join(f'{a}->{cpl.monoid.elements[v]}' for a, v in zip(monoid.elements, cpl.comparison.map))}",
        f"rho base: {_opens_text(cpl.topology, cpl.monoid.elements)}",
        f"criteria: discrete={crit.discrete} prodiscrete={crit.prodiscrete} group={crit.group}",
    ]
    _write_out(args, name, files.monoid_to_obj(monoid))
    _write_out(args, f"{name}_completion", files.monoid_to_obj(cpl.monoid))
    _write_out(args, f"{name}_completion_u",
               files.hom_to_obj(cpl.comparison, f"{name}.json",
                                f"{name}_completion.json"))
    _emit(args, {"L": files.monoid_to_obj(cpl.monoid),
                 "u": files.hom_to_obj(cpl.comparison, f"{name}.json",
                                       f"{name}_completion.json"),
                 "filter_base": [[list(map(monoid.elements.__getitem__, cls))
                                  for cls in flt.least.classes()]],
                 "criteria": {"discrete": crit.discrete,
                              "prodiscrete": crit.prodiscrete,
                              "group": crit.group}}, lines)
    return 0


def cmd_factor_hom(args) -> int:
    ws = files.Workspace()
    name = _resolve(ws, args.hom_arg)
    if name not in ws.homs:
        raise files.UnknownName(f"no hom named {name!r} is loaded")
    hom = ws.homs[name]
    first, second = factor_surjection_inclusion(hom)
    lines = [
        f"surjection-inclusion factorization of {name}:",
        f"  corner monoid: {' '.join(first.target.elements)} "
        f"(identity {first.target.elements[first.target.identity]})",
        f"  monoid hom: {' '.join(f'{a}->{first.target.elements[v]}' for a, v in zip(hom.source.elements, first.map))}",
    ]
    report = {"corner": files.monoid_to_obj(first.target)}
    if args.dense:
        _, t_src = _topology(ws, args.dense[0], hom.source)
        _, t_tgt = _topology(ws, args.dense[1], hom.target)
        dense, closed = dense_closed_factorization(hom, t_src, t_tgt)
        lines += [
            "dense-closed factorization:",
            f"  closure of image: {' '.join(dense.target.elements)}",
        ]
        report["closure"] = files.monoid_to_obj(dense.target)
    _emit(args, report, lines, name)
    return 0


def cmd_site(args) -> int:
    ws = files.Workspace()
    name, monoid = _monoid(ws, args.monoid_arg)
    flt = _filter(ws, args.filter, monoid)
    site = principal_site(monoid, flt)
    lines = [f"principal site of {name}: {len(site.objects)} objects, "
             f"{site.arrow_count} arrows"]
    for i, obj in enumerate(site.objects):
        lines.append(f"  object {obj}")
    for f in range(site.arrow_count):
        marks = "".join(ch for ch, flag in
                        (("e", f in site.epis), ("m", f in site.monos)) if flag)
        lines.append(f"  {site.arrow_names[f]}: {site.objects[site.arrow_src[f]]}"
                     f" -> {site.objects[site.arrow_tgt[f]]}"
                     + (f" [{marks}]" if marks else ""))
    if args.dot:
        lines.append(site_dot(site))
    _emit(args, {"objects": list(site.objects),
                 "arrows": [[site.arrow_names[f], site.arrow_src[f], site.arrow_tgt[f]]
                            for f in range(site.arrow_count)]}, lines, name)
    return 0


def _dot_string(text: str) -> str:
    """A DOT quoted string: backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def site_dot(site) -> str:
    out = ["digraph site {"]
    for i, obj in enumerate(site.objects):
        out.append(f'  n{i} [label={_dot_string(obj)}];')
    for f in range(site.arrow_count):
        if f in site.identities:
            continue
        style = ' style=bold' if f in site.epis else ""
        out.append(f'  n{site.arrow_src[f]} -> n{site.arrow_tgt[f]} '
                   f'[label={_dot_string(site.arrow_names[f])}{style}];')
    out.append("}")
    return "\n".join(out)


def cmd_morita(args) -> int:
    ws = files.Workspace()
    name1, m1 = _monoid(ws, args.monoid_arg)
    _, t1 = _topology(ws, args.topology_arg, m1)
    name2, m2 = _monoid(ws, args.monoid2_arg)
    _, t2 = _topology(ws, args.topology2_arg, m2)
    witness = morita_equivalent(m1, t1, m2, t2)
    if witness is None:
        # only a "no" needs the powder monoids again, for their orders
        q1, q2 = powder_reflection(m1, t1).monoid, powder_reflection(m2, t2).monoid
        pairs = None
        reason = ("powder monoids differ in order" if q1.order != q2.order
                  else "powder monoids are not isomorphic")
    else:
        q1, q2 = witness.source, witness.target
        pairs = {q1.elements[a]: q2.elements[v] for a, v in enumerate(witness.map)}
        reason = "powder monoids are isomorphic"
    verdict = "no" if pairs is None else "yes"
    lines = [f"powder monoid of {name1}: order {q1.order}; "
             f"powder monoid of {name2}: order {q2.order}"]
    if pairs is not None:
        lines.append(f"witness: {' '.join(f'{a}->{v}' for a, v in pairs.items())}")
    lines.append(f"equivalent: {verdict} ({reason})")
    _emit(args, {"verdict": verdict, "reason": reason,
                 "powder_orders": [q1.order, q2.order], "witness": pairs}, lines, name1)
    return 0 if pairs is not None else 1


def cmd_check(args) -> int:
    ws = files.Workspace()
    name, monoid = _monoid(ws, args.monoid_arg)
    what = args.what
    verdict: bool
    detail = ""
    if what in ("atomic", "jcp", "strict-jcp", "zero", "topological-filter"):
        flt = _filter(ws, args.filter, monoid)
        if what == "atomic":
            verdict, witness = is_atomic(monoid, flt)
            if witness:
                detail = f" witness: ({witness[0].label()}, {monoid.elements[witness[1]]})"
        elif what == "jcp":
            verdict = joint_covering(principal_site(monoid, flt))
        elif what == "strict-jcp":
            verdict = strict_joint_covering(principal_site(monoid, flt))
        elif what == "zero":
            verdict = zero_fixed_point_check(monoid, flt)
        else:
            verdict, witness = is_topological_filter(monoid, flt)
            if witness is not None:
                detail = f" witness: {witness.label()}"
    else:
        if not args.topology_arg:
            raise TopactError(f"check {what} needs a topology argument")
        _, topo = _topology(ws, args.topology_arg, monoid)
        if what == "units":
            verdict = dense_units(monoid, topo)
        elif what == "complete":
            verdict = is_complete(monoid, topo)
        else:
            report = continuous_subsets(monoid, topo)
            verdict = report.is_action_topology and separation_report(topo).t0
    print(f"check {what} {name}: {'true' if verdict else 'false'}{detail}")
    if args.as_json:
        print(files.dump({"check": what, "verdict": verdict}), end="")
    return 0 if verdict else 1


def cmd_suite(args) -> int:
    summary = exhaustive_suite(args.order, args.topologies)
    for line in summary.lines():
        print(line)
    if args.as_json:
        print(files.dump({r.name: {"passed": r.passed, "failed": r.failed}
                          for r in summary.records.values()}), end="")
    return 0 if summary.all_passed else 1


def _arg(*flags, **options) -> tuple[tuple, dict]:
    return flags, options


_MONOID, _TOPOLOGY = _arg("monoid_arg"), _arg("topology_arg")
_OUT = _arg("--out", help="directory for emitted object files")
_FILTER = _arg("--filter", default="all",
               help="filter spec: all | open@<topology> | <file>")
_JSON = _arg("--json", action="store_true", dest="as_json")

# name -> (handler, arguments in the order --help lists them)
SUBCOMMANDS = {
    "validate": (cmd_validate, (_arg("files", nargs="+"), _JSON)),
    "analyze": (cmd_analyze, (_MONOID, _OUT, _JSON, _arg("topology_arg", nargs="?"))),
    "congruences": (cmd_congruences, (_MONOID, _OUT, _JSON)),
    "act-topology": (cmd_act_topology, (_MONOID, _TOPOLOGY, _OUT, _JSON)),
    "powder": (cmd_powder, (_MONOID, _TOPOLOGY, _OUT, _JSON)),
    "t0": (cmd_t0, (_MONOID, _TOPOLOGY, _OUT, _JSON)),
    "mult-core": (cmd_mult_core, (_MONOID, _TOPOLOGY, _OUT, _JSON)),
    "complete": (cmd_complete, (_MONOID, _FILTER, _OUT, _JSON)),
    "factor-hom": (cmd_factor_hom, (
        _arg("hom_arg"), _OUT, _JSON,
        _arg("--dense", nargs=2, metavar=("SRC_TOPOLOGY", "TGT_TOPOLOGY"),
             help="also compute the dense-closed factorization"))),
    "site": (cmd_site, (_MONOID, _FILTER, _OUT,
                        _arg("--dot", action="store_true", help="emit a DOT graph"),
                        _JSON)),
    "morita": (cmd_morita, (_MONOID, _TOPOLOGY, _arg("monoid2_arg"),
                            _arg("topology2_arg"), _OUT, _JSON)),
    "check": (cmd_check, (
        _arg("what", choices=("atomic", "jcp", "strict-jcp", "zero", "units",
                              "complete", "powder", "topological-filter")),
        _MONOID, _arg("topology_arg", nargs="?"), _arg("--filter", default="all"),
        _JSON)),
    "suite": (cmd_suite, (_arg("--order", type=int, default=3),
                          _arg("--topologies", type=int, default=3), _JSON)),
}


if __name__ == "__main__":
    sys.exit(main())
