import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import (relabeled_monoid, set_lattice_cap, transformation_closure,
                      transformation_monoid, write_past_cap_inputs)
import topact
from topact import catalog, files
from topact.actions import power_of_m
from topact.catalog import cyclic, left_zeros, truncated_addition
from topact.cli import SUBCOMMANDS, build_parser, main
from topact.congruences import enumerate_congruences, full_filter, generated_congruence
from topact.errors import CapExceeded
from topact.invariants import MAX_SITE_ARROWS, principal_site


@pytest.fixture
def fixture_dir(tmp_path):
    def put(name, obj):
        (tmp_path / name).write_text(json.dumps(obj))
        return str(tmp_path / name)

    put("M_LZ.json", files.monoid_to_obj(left_zeros()))
    put("C4.json", files.monoid_to_obj(cyclic(4)))
    put("C2.json", files.monoid_to_obj(cyclic(2)))
    put("N2.json", files.monoid_to_obj(truncated_addition(2)))
    put("tau_A.json", {"monoid": "M_LZ.json", "carrier": ["1", "x", "y"],
                       "base": [["1"], ["x", "y"]]})
    put("disc3.json", {"monoid": "N2.json", "carrier": ["0", "1", "2"],
                       "base": [["0"], ["1"], ["2"]]})
    put("mod2.json", {"monoid": "C4.json", "classes": [["0", "2"], ["1", "3"]]})
    put("red.json", {"source": "C4.json", "target": "C2.json",
                     "map": {"0": "0", "1": "1", "2": "0", "3": "1"}})
    return tmp_path


def path(fixture_dir, name):
    return str(fixture_dir / name)


def test_validate(fixture_dir, capsys):
    assert main(["validate", path(fixture_dir, "M_LZ.json"),
                 path(fixture_dir, "tau_A.json")]) == 0
    out = capsys.readouterr().out
    assert "M_LZ: OK (monoid)" in out
    assert "tau_A: OK (topology)" in out


def test_validate_error_exit_code(fixture_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"elements": ["a"], "identity": "a",
                               "table": [["a", "a"]]}))
    assert main(["validate", str(bad)]) == 2


def test_act_topology_report(fixture_dir, capsys):
    assert main(["act-topology", path(fixture_dir, "M_LZ.json"),
                 path(fixture_dir, "tau_A.json")]) == 0
    out = capsys.readouterr().out
    assert "is action topology: True" in out
    assert "{1}" in out and "{x,y}" in out


def test_powder_writes_quotient(fixture_dir, tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(["powder", path(fixture_dir, "M_LZ.json"),
                 path(fixture_dir, "tau_A.json"), "--out", str(outdir)]) == 0
    obj = json.loads((outdir / "M_LZ_powder.json").read_text())
    assert sorted(obj["elements"]) == ["[1]", "[x]"]


OUT_ARGV = {
    "analyze": ("M_LZ", ["M_LZ.json", "tau_A.json"]),
    "congruences": ("C4", ["C4.json"]),
    "act-topology": ("M_LZ", ["M_LZ.json", "tau_A.json"]),
    "powder": ("M_LZ", ["M_LZ.json", "tau_A.json"]),
    "t0": ("M_LZ", ["M_LZ.json", "tau_A.json"]),
    "mult-core": ("M_LZ", ["M_LZ.json", "tau_A.json"]),
    "factor-hom": ("red", ["red.json"]),
    "site": ("M_LZ", ["M_LZ.json", "--filter", "all"]),
    "morita": ("M_LZ", ["M_LZ.json", "tau_A.json", "M_LZ.json", "tau_A.json"]),
}


@pytest.mark.parametrize("command", sorted(OUT_ARGV))
def test_out_writes_the_json_report(fixture_dir, tmp_path, capsys, command):
    name, arguments = OUT_ARGV[command]
    outdir = tmp_path / "out"
    argv = [command, *(path(fixture_dir, a) if a.endswith(".json") else a
                       for a in arguments)]
    assert main([*argv, "--out", str(outdir), "--json"]) == 0
    printed = capsys.readouterr().out
    written = (outdir / f"{name}_{command}.json").read_text()
    assert [p.name for p in outdir.iterdir()] == [f"{name}_{command}.json"]
    assert printed.endswith(written) and json.loads(written)
    # the report does not depend on --out
    assert main([*argv, "--json"]) == 0
    assert capsys.readouterr().out == printed


def test_complete_with_congruence_filter(fixture_dir, capsys):
    assert main(["complete", path(fixture_dir, "C4.json"),
                 "--filter", path(fixture_dir, "mod2.json")]) == 0
    out = capsys.readouterr().out
    assert "L: order 2" in out
    assert "group=True" in out


@pytest.mark.parametrize("argv", [["complete", "M_LZ.json", "--filter", "F.json"],
                                  ["check", "topological-filter", "M_LZ.json",
                                   "--filter", "F.json"],
                                  ["check", "atomic", "M_LZ.json", "--filter", "mod2.json"],
                                  ["site", "M_LZ.json", "--filter", "mod2.json"]])
def test_filter_over_another_monoid_exits_2(fixture_dir, capsys, argv):
    (fixture_dir / "F.json").write_text(json.dumps(
        {"monoid": "C4.json", "generators": [[["0", "2"], ["1", "3"]]]}))
    assert main([path(fixture_dir, a) if a.endswith(".json") else a for a in argv]) == 2
    name = argv[-1].removesuffix(".json")
    assert f"filter {name!r} was declared over a different monoid" \
        in capsys.readouterr().err


def test_topology_naming_no_monoid_must_list_the_elements_in_order(tmp_path, capsys):
    # the same two names as the monoid's elements, in the other order: read
    # by position, the base {1} would land on a
    (tmp_path / "M.json").write_text(json.dumps(
        {"elements": ["1", "a"], "identity": "1", "table": [["1", "a"], ["a", "a"]]}))
    (tmp_path / "T.json").write_text(json.dumps({"carrier": ["a", "1"], "base": [["1"]]}))
    m, t = str(tmp_path / "M.json"), str(tmp_path / "T.json")
    for argv in (["analyze", m, t], ["site", m, "--filter", "open@" + t]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: topology 'T' lives on a different carrier: "
                                "its points are not the monoid's elements, in order\n")


def test_complete_with_open_filter(fixture_dir, capsys):
    assert main(["complete", path(fixture_dir, "M_LZ.json"),
                 "--filter", "open@" + path(fixture_dir, "tau_A.json")]) == 0
    out = capsys.readouterr().out
    assert "L: order 2" in out


def test_check_exit_codes(fixture_dir):
    assert main(["check", "atomic", path(fixture_dir, "C4.json"),
                 "--filter", "all"]) == 0
    assert main(["check", "atomic", path(fixture_dir, "N2.json"),
                 "--filter", "all"]) == 1
    assert main(["check", "complete", path(fixture_dir, "M_LZ.json"),
                 path(fixture_dir, "tau_A.json")]) == 1
    assert main(["check", "powder", path(fixture_dir, "M_LZ.json"),
                 path(fixture_dir, "tau_A.json")]) == 1
    assert main(["check", "units", path(fixture_dir, "C4.json"),
                 "disc4"]) == 2  # unknown topology name
    assert main(["check", "zero", path(fixture_dir, "N2.json"),
                 "--filter", "all"]) == 0
    assert main(["check", "topological-filter", path(fixture_dir, "C4.json"),
                 "--filter", path(fixture_dir, "mod2.json")]) == 0


def test_check_atomic_witness_printed(fixture_dir, capsys):
    main(["check", "atomic", path(fixture_dir, "N2.json"), "--filter", "all"])
    out = capsys.readouterr().out
    assert "witness" in out


def test_factor_hom(fixture_dir, capsys):
    assert main(["factor-hom", path(fixture_dir, "red.json")]) == 0
    out = capsys.readouterr().out
    assert "corner monoid: 0 1" in out


def test_morita_yes(fixture_dir, tmp_path, capsys):
    (tmp_path / "B2.json").write_text(json.dumps(
        {"elements": ["1", "e"], "identity": "1",
         "table": [["1", "e"], ["e", "e"]]}))
    (tmp_path / "discB2.json").write_text(json.dumps(
        {"monoid": "B2.json", "carrier": ["1", "e"], "base": [["1"], ["e"]]}))
    code = main(["morita", path(fixture_dir, "M_LZ.json"),
                 path(fixture_dir, "tau_A.json"),
                 str(tmp_path / "B2.json"), str(tmp_path / "discB2.json")])
    assert code == 0
    assert "equivalent: yes" in capsys.readouterr().out


def test_morita_no(fixture_dir, capsys):
    code = main(["morita", path(fixture_dir, "C4.json"), _disc4(fixture_dir),
                 path(fixture_dir, "C2.json"), _disc2(fixture_dir)])
    assert code == 1
    assert "equivalent: no" in capsys.readouterr().out


def test_morita_json_carries_the_witness(fixture_dir, capsys):
    code = main(["morita", path(fixture_dir, "C4.json"), _disc4(fixture_dir),
                 path(fixture_dir, "C4.json"), _disc4(fixture_dir), "--json"])
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert code == 0 and report["verdict"] == "yes"
    assert report["powder_orders"] == [4, 4] and len(report["witness"]) == 4
    assert "witness: " in out
    code = main(["morita", path(fixture_dir, "C4.json"), _disc4(fixture_dir),
                 path(fixture_dir, "C2.json"), _disc2(fixture_dir), "--json"])
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert code == 1 and report["verdict"] == "no" and report["witness"] is None
    assert report["reason"] == "powder monoids differ in order"


def test_files_sharing_a_stem_in_two_directories_are_an_error(tmp_path, capsys):
    for directory, monoid in (("a", cyclic(3)), ("b", left_zeros())):
        (tmp_path / directory).mkdir()
        (tmp_path / directory / "M.json").write_text(json.dumps(files.monoid_to_obj(monoid)))
        (tmp_path / directory / "T.json").write_text(json.dumps(
            {"monoid": "M.json", "carrier": list(monoid.elements),
             "base": [[e] for e in monoid.elements]}))
    a_m, a_t, b_m, b_t = (str(tmp_path / d / f) for d in "ab" for f in ("M.json", "T.json"))
    assert main(["morita", a_m, a_t, b_m, b_t]) == 2
    err = capsys.readouterr().err
    assert "duplicate object name 'M'" in err and a_m in err and b_m in err
    assert main(["validate", a_m, b_m]) == 2
    assert "duplicate object name 'M'" in capsys.readouterr().err
    # the same file reached twice, once through another spelling, loads once
    again = str(tmp_path / "a" / ".." / "a" / "M.json")
    assert main(["morita", a_m, a_t, again, a_t]) == 0
    assert "equivalent: yes" in capsys.readouterr().out


def test_a_file_referring_to_itself_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "T.json").write_text(json.dumps(
        {"monoid": "T.json", "carrier": ["1"], "base": [["1"]]}))
    for name, other in (("A", "B"), ("B", "A")):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"monoid": f"{other}.json", "carrier": ["1"], "base": [["1"]]}))
    for name in ("T", "A"):
        bad = str(tmp_path / f"{name}.json")
        assert main(["validate", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and f"object name {name!r}" in err


def _disc4(fixture_dir):
    p = fixture_dir / "disc4.json"
    p.write_text(json.dumps({"monoid": "C4.json",
                             "carrier": ["0", "1", "2", "3"],
                             "base": [["0"], ["1"], ["2"], ["3"]]}))
    return str(p)


def _disc2(fixture_dir):
    p = fixture_dir / "disc2.json"
    p.write_text(json.dumps({"monoid": "C2.json", "carrier": ["0", "1"],
                             "base": [["0"], ["1"]]}))
    return str(p)


def test_site_dot_output(fixture_dir, capsys):
    assert main(["site", path(fixture_dir, "M_LZ.json"),
                 "--filter", "open@" + path(fixture_dir, "tau_A.json"),
                 "--dot"]) == 0
    out = capsys.readouterr().out
    assert "digraph site {" in out


def test_site_dot_labels_read_back_to_the_names(tmp_path, capsys):
    # element names with a double quote and a backslash
    names = ['a"b', "c\\d"]
    (tmp_path / "Q.json").write_text(json.dumps(
        {"elements": names, "identity": names[0],
         "table": [names, names[::-1]]}))
    assert main(["site", str(tmp_path / "Q.json"), "--filter", "all", "--dot"]) == 0
    dot = capsys.readouterr().out.split("digraph site {")[1]
    labels = [re.sub(r"\\(.)", r"\1", label)
              for label in re.findall(r'label="((?:[^"\\]|\\.)*)"', dot)]
    monoid = files.parse_monoid(json.loads((tmp_path / "Q.json").read_text()), tmp_path)
    site = principal_site(monoid, full_filter(monoid))
    assert labels == [*site.objects, *(site.arrow_names[f] for f in range(site.arrow_count)
                                       if f not in site.identities)]
    assert any('"' in label for label in labels) and any("\\" in label for label in labels)


def test_reports_are_deterministic(fixture_dir, capsys):
    main(["analyze", path(fixture_dir, "M_LZ.json"), path(fixture_dir, "tau_A.json")])
    first = capsys.readouterr().out
    main(["analyze", path(fixture_dir, "M_LZ.json"), path(fixture_dir, "tau_A.json")])
    assert capsys.readouterr().out == first


def test_json_flag(fixture_dir, capsys):
    main(["analyze", path(fixture_dir, "N2.json"), "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["zero"] == "2"
    assert payload["idempotents"] == ["0", "2"]


@pytest.mark.parametrize("value", ["1", "abc"])
def test_congruences_ignore_the_old_cap_variable(fixture_dir, capsys, value):
    assert main(["congruences", path(fixture_dir, "C4.json")]) == 0
    listing = capsys.readouterr().out
    src = str(Path(topact.__file__).parents[1])
    env = {**os.environ, "TOPACT_MAX_CONGRUENCES": value,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "topact.cli", "congruences",
                          path(fixture_dir, "C4.json")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, listing, "")
    assert listing.startswith("right congruences of C4: 3\n")


def test_powerset_cap_stops_act_topology(tmp_path, capsys):
    c17 = cyclic(17)
    halves = [list(c17.elements[:8]), list(c17.elements[8:])]
    with pytest.raises(CapExceeded, match="powerset action carrier"):
        power_of_m(c17)
    (tmp_path / "C17.json").write_text(json.dumps(files.monoid_to_obj(c17)))
    (tmp_path / "halves.json").write_text(json.dumps(
        {"monoid": "C17.json", "carrier": list(c17.elements), "base": halves}))
    # the action topology no longer goes through the powerset action
    assert main(["act-topology", str(tmp_path / "C17.json"),
                 str(tmp_path / "halves.json")]) == 0
    assert "is action topology: False" in capsys.readouterr().out


def test_union_list_cap_stops_act_topology(tmp_path, capsys):
    c17 = cyclic(17)
    (tmp_path / "C17.json").write_text(json.dumps(files.monoid_to_obj(c17)))
    (tmp_path / "disc17.json").write_text(json.dumps(
        {"monoid": "C17.json", "carrier": list(c17.elements),
         "base": [[e] for e in c17.elements]}))
    assert main(["act-topology", str(tmp_path / "C17.json"),
                 str(tmp_path / "disc17.json")]) == 2
    assert "continuous-subset union list: cap exceeded at 131072" \
        in capsys.readouterr().err


@pytest.fixture
def t3_dir(tmp_path):
    """T3, the full transformation monoid on 3 points, with the discrete
    topology and a coset topology: the classes of the first principal right
    congruence (in index order) with at most 4 classes."""
    t3 = transformation_monoid(
        sorted(itertools.product(range(3), repeat=3), key=lambda e: e != (0, 1, 2)))
    coset = next(r for a in range(27) for b in range(a + 1, 27)
                 for r in [generated_congruence(t3, [(a, b)])] if r.num_classes <= 4)
    names = list(t3.elements)
    (tmp_path / "T3.json").write_text(json.dumps(files.monoid_to_obj(t3)))
    for name, blocks in (("coset", coset.classes()), ("disc", [[m] for m in range(27)])):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"monoid": "T3.json", "carrier": names,
             "base": [[names[m] for m in block] for block in blocks]}))
    return tmp_path


@pytest.mark.parametrize("command", ["act-topology", "powder", "mult-core"])
def test_reflections_of_t3_answer_within_a_second(t3_dir, capsys, command):
    start = time.perf_counter()
    assert main([command, str(t3_dir / "T3.json"), str(t3_dir / "coset.json")]) == 0
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["complete", "{}/T3.json", "--filter", "all"],
                                  ["complete", "{}/T3.json", "--filter", "open@{}/disc.json"],
                                  ["check", "complete", "{}/T3.json", "{}/disc.json"]])
def test_completion_of_t3_answers_within_five_seconds(t3_dir, capsys, argv):
    start = time.perf_counter()
    assert main([a.format(t3_dir) for a in argv]) == 0
    assert time.perf_counter() - start < 5.0
    capsys.readouterr()


def test_site_cap_stops_site_on_the_full_filter_of_t3(t3_dir, capsys):
    start = time.perf_counter()
    assert main(["site", str(t3_dir / "T3.json"), "--filter", "all"]) == 2
    assert time.perf_counter() - start < 5.0
    assert f"principal-site arrows: cap exceeded at {MAX_SITE_ARROWS + 1}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["complete", "{}/T3.json", "--filter", "all"],
                                  ["complete", "{}/T3.json", "--filter", "open@{}/disc.json"],
                                  ["check", "topological-filter", "{}/T3.json"]])
def test_filter_commands_reading_only_the_base_need_no_lattice(t3_dir, capsys, monkeypatch,
                                                               argv):
    # a lattice of one member is exceeded by every monoid past order 1
    set_lattice_cap(monkeypatch, 1)
    assert main([a.format(t3_dir) for a in argv]) == 0
    assert enumerate_congruences.cache_info().misses == 0
    capsys.readouterr()


def test_congruence_cap_still_stops_site_on_t3(t3_dir, capsys, monkeypatch):
    set_lattice_cap(monkeypatch, 1)
    assert main(["site", str(t3_dir / "T3.json"), "--filter", "all"]) == 2
    assert "right congruences: cap exceeded at 2" in capsys.readouterr().err


def test_check_zero_reads_no_lattice(tmp_path, capsys, monkeypatch):
    set_lattice_cap(monkeypatch, 1)
    (tmp_path / "N3.json").write_text(json.dumps(files.monoid_to_obj(truncated_addition(3))))
    assert main(["check", "zero", str(tmp_path / "N3.json"), "--filter", "all"]) == 0
    assert enumerate_congruences.cache_info().misses == 0
    assert "true" in capsys.readouterr().out


@pytest.fixture
def lz12_dir(tmp_path):
    """The left-zero monoid {1, z1..z11} (z·m = z) with the topology whose
    base is {1} and the zeros.  Its right congruences, the partitions of the
    zeros and the total one, outnumber the default cap; the open filter is
    the two congruences above r0 = {1} | {z1..z11}."""
    names = ["1"] + [f"z{i}" for i in range(1, 12)]
    (tmp_path / "LZ12.json").write_text(json.dumps(
        {"elements": names, "identity": "1",
         "table": [names] + [[z] * 12 for z in names[1:]]}))
    (tmp_path / "split.json").write_text(json.dumps(
        {"monoid": "LZ12.json", "carrier": names, "base": [["1"], names[1:]]}))
    return tmp_path


def test_site_of_a_left_zero_monoid_lists_only_the_congruences_above_r0(lz12_dir, capsys):
    assert main(["site", str(lz12_dir / "LZ12.json"),
                 "--filter", f"open@{lz12_dir / 'split.json'}"]) == 0
    assert "principal site of LZ12: 2 objects, 5 arrows" in capsys.readouterr().out


@pytest.mark.parametrize("what, code", [("atomic", 1), ("jcp", 0)])
def test_checks_on_a_left_zero_monoid_list_only_the_congruences_above_r0(lz12_dir, capsys,
                                                                          what, code):
    assert main(["check", what, str(lz12_dir / "LZ12.json"),
                 "--filter", f"open@{lz12_dir / 'split.json'}"]) == code
    capsys.readouterr()


@pytest.mark.parametrize("name, obj, message", [
    ("act.json", {"monoid": "C4.json", "carrier": ["a"], "action": [["a", "a", "a", "b"]]},
     "action row 0 mentions unknown element 'b'"),
    ("cong.json", {"monoid": "C4.json", "classes": [["0", "2"], ["1", "q"]]},
     "unknown element 'q'"),
    ("flt.json", {"monoid": "C4.json", "generators": [[["0", "2"], ["1", "q"]]]},
     "unknown element 'q'"),
    ("hom.json", {"source": "C4.json", "target": "C2.json",
                  "map": {"0": "0", "1": "1", "2": "0", "3": "x"}},
     "unknown element 'x'"),
    ("noid.json", {"elements": ["e"], "table": [["e"]]}, "missing key 'identity'"),
], ids=["action", "congruence", "filter", "hom", "missing-key"])
def test_malformed_files_exit_2_naming_the_file(fixture_dir, capsys, name, obj, message):
    (fixture_dir / name).write_text(json.dumps(obj))
    assert main(["validate", path(fixture_dir, name)]) == 2
    assert capsys.readouterr().err == f"error: {fixture_dir / name}: {message}\n"


@pytest.mark.parametrize("name, obj, message", [
    ("elements.json", {"elements": 5, "identity": "e", "table": [["e"]]},
     "'elements' must be a list of strings"),
    ("identity.json", {"elements": ["e"], "identity": ["e"], "table": [["e"]]},
     "'identity' must be a string"),
    ("table.json", {"elements": ["e"], "identity": "e", "table": [5]},
     "'table' must be a list of lists of strings"),
    ("carrier.json", {"monoid": "C4.json", "carrier": 5, "base": []},
     "'carrier' must be a list of strings"),
    ("base.json", {"monoid": "C4.json", "carrier": ["0", "1", "2", "3"], "base": [5]},
     "'base' must be a list of lists of strings"),
    ("act.json", {"monoid": "C4.json", "carrier": ["a"], "action": [5]},
     "'action' must be a list of lists of strings"),
    ("cong.json", {"monoid": "C4.json", "classes": [5]},
     "'classes' must be a list of lists of strings"),
    ("flt.json", {"monoid": "C4.json", "generators": [[5]]},
     "'generators' must be a list of lists of lists of strings"),
    ("hom.json", {"source": 5, "target": "C2.json", "map": {}},
     "'source' must be a string"),
    ("map.json", {"source": "C4.json", "target": "C2.json", "map": []},
     "'map' must be an object"),
], ids=["monoid-elements", "monoid-identity", "monoid-table", "topology-carrier",
        "topology-base", "mset-action", "congruence-classes", "filter-generators",
        "hom-source", "hom-map"])
def test_values_of_the_wrong_type_exit_2_naming_the_file(fixture_dir, capsys, name, obj,
                                                         message):
    (fixture_dir / name).write_text(json.dumps(obj))
    assert main(["validate", path(fixture_dir, name)]) == 2
    assert capsys.readouterr().err == f"error: {fixture_dir / name}: {message}\n"


@pytest.mark.parametrize("obj, message", [
    ([1], "top-level value must be an object"),
    ({"x": 1}, "cannot detect object kind from keys ['x']"),
    ({"elements": ["e", "e"], "identity": "e", "table": [["e", "e"], ["e", "e"]]},
     "element names are not unique"),
    ({"elements": ["e"], "identity": "x", "table": [["e"]]},
     "identity 'x' is not an element"),
    ({"elements": ["e", "a"], "identity": "e", "table": [["e", "b"], ["a", "e"]]},
     "table row 0 mentions unknown element 'b'"),
    ({"monoid": "C4.json", "carrier": ["0", "1", "2", "3"], "base": [["0", "q"]]},
     "base subset mentions unknown element 'q'"),
    ({"monoid": "C4.json", "carrier": ["0", "1", "2", "x"], "base": []},
     "topology carrier does not match its monoid's elements"),
    ({"carrier": ["1", "1"], "base": [["1"]]}, "carrier names are not unique"),
    ({"monoid": "C4.json", "carrier": ["a"], "action": [["a", "a"]]},
     "action row 0 must list one value per monoid element"),
    ({"monoid": "C4.json", "classes": [["0", "2"], ["0", "1", "3"]]},
     "element '0' appears in two classes"),
    ({"monoid": "C4.json", "generators": [[["0", "2"], ["1"]]]},
     "element '3' missing from the partition"),
    ({"source": "C4.json", "target": "C2.json", "map": {"0": "0", "1": "1", "2": "0"}},
     "map is missing element '3'"),
], ids=["top-level", "kind", "unique-names", "identity", "table-row", "base", "carrier",
        "unique-carrier-names", "action-row", "two-classes", "partition", "map"])
def test_parse_errors_name_the_bad_file_among_several(fixture_dir, capsys, obj, message):
    (fixture_dir / "bad.json").write_text(json.dumps(obj))
    assert main(["validate", path(fixture_dir, "C4.json"), path(fixture_dir, "bad.json")]) == 2
    assert capsys.readouterr().err == f"error: {fixture_dir / 'bad.json'}: {message}\n"


def test_validate_checks_c512_within_3_seconds(tmp_path, capsys):
    (tmp_path / "C512.json").write_text(json.dumps(files.monoid_to_obj(cyclic(512))))
    start = time.perf_counter()
    assert main(["validate", str(tmp_path / "C512.json")]) == 0
    assert time.perf_counter() - start < 3
    assert "C512: OK (monoid)" in capsys.readouterr().out


def test_check_atomic_on_a_group_reads_no_lattice(fixture_dir, capsys, monkeypatch):
    set_lattice_cap(monkeypatch, 1)
    assert main(["check", "atomic", path(fixture_dir, "C4.json"), "--filter", "all"]) == 0
    capsys.readouterr()


def test_complete_takes_no_carrier_cap(tmp_path, capsys):
    (tmp_path / "C64.json").write_text(json.dumps(files.monoid_to_obj(cyclic(64))))
    assert main(["complete", str(tmp_path / "C64.json"), "--filter", "all"]) == 0
    out = capsys.readouterr().out
    assert "L: order 64" in out and "discrete=True" in out


@pytest.fixture(scope="module")
def large_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("large")
    write_past_cap_inputs(directory)
    return directory


@pytest.mark.parametrize("name, powder_order", [("T4", 2), ("C512", 4)])
def test_commands_answer_past_thirty_two_points(large_dir, capsys, name, powder_order):
    m, t = str(large_dir / f"{name}.json"), str(large_dir / f"{name}_top.json")
    for argv in (["analyze", m, t], ["act-topology", m, t],
                 ["complete", m, "--filter", f"open@{t}"]):
        assert main(argv) == 0
        capsys.readouterr()
    assert main(["powder", m, t]) == 0
    assert f": order {powder_order}\n" in capsys.readouterr().out


def test_powder_on_discrete_t3_and_c32(t3_dir, tmp_path, capsys):
    assert main(["powder", str(t3_dir / "T3.json"), str(t3_dir / "disc.json")]) == 0
    assert "order 27" in capsys.readouterr().out
    c32 = cyclic(32)
    (tmp_path / "C32.json").write_text(json.dumps(files.monoid_to_obj(c32)))
    (tmp_path / "disc32.json").write_text(json.dumps(
        {"monoid": "C32.json", "carrier": list(c32.elements),
         "base": [[e] for e in c32.elements]}))
    assert main(["powder", str(tmp_path / "C32.json"), str(tmp_path / "disc32.json")]) == 0
    assert "order 32" in capsys.readouterr().out


def test_open_set_cap_stops_analyze(tmp_path, capsys):
    c17 = cyclic(17)
    (tmp_path / "C17.json").write_text(json.dumps(files.monoid_to_obj(c17)))
    (tmp_path / "disc17.json").write_text(json.dumps(
        {"monoid": "C17.json", "carrier": list(c17.elements),
         "base": [[e] for e in c17.elements]}))
    assert main(["analyze", str(tmp_path / "C17.json"),
                 str(tmp_path / "disc17.json")]) == 2
    assert capsys.readouterr().err == "error: open-set family: cap exceeded at 131072\n"


@pytest.mark.parametrize("n", [17, 32])
def test_discrete_carriers_past_the_open_set_cap(tmp_path, capsys, n):
    monoid = cyclic(n)
    (tmp_path / "C.json").write_text(json.dumps(files.monoid_to_obj(monoid)))
    (tmp_path / "disc.json").write_text(json.dumps(
        {"monoid": "C.json", "carrier": list(monoid.elements),
         "base": [[e] for e in monoid.elements]}))
    m, t = str(tmp_path / "C.json"), str(tmp_path / "disc.json")
    assert main(["t0", m, t]) == 0
    assert f"order {n}" in capsys.readouterr().out
    assert main(["complete", m, "--filter", "all"]) == 0
    assert "discrete=True" in capsys.readouterr().out
    assert main(["check", "complete", m, t]) == 0
    assert "true" in capsys.readouterr().out


def test_suite_command(capsys):
    assert main(["suite", "--order", "2", "--topologies", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS action-topology-idempotent" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("argv, message", [
    (["--order", "6"], "suite monoid order: cap exceeded at 6"),
    (["--order", "2", "--topologies", "6"], "suite topology carrier: cap exceeded at 6"),
    (["--order", "0"], "suite monoid order: must be at least 1, got 0"),
    (["--order", "-1"], "suite monoid order: must be at least 1, got -1"),
    (["--order", "2", "--topologies", "-2"], "suite topology carrier: must be at least 0, got -2"),
])
def test_suite_caps_are_the_catalog_enumeration_bounds(capsys, argv, message):
    assert main(["suite", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("cap, argv, message", [
    ("MAX_ENUM_ORDER", ["--order", "3"], "suite monoid order: cap exceeded at 3"),
    ("MAX_ENUM_CARRIER", ["--order", "2", "--topologies", "3"],
     "suite topology carrier: cap exceeded at 3"),
])
def test_suite_reads_each_cap_from_the_catalog_when_it_runs(capsys, monkeypatch, cap, argv,
                                                            message):
    # one assignment moves a cap: the suite holds no copy of it
    monkeypatch.setattr(catalog, cap, 2)
    assert main(["suite", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_suite_with_no_topology_cells(capsys):
    # --topologies 0 runs the filter and closedness cells alone
    assert main(["suite", "--order", "2", "--topologies", "0"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "action-topology" not in out and "PASS" in out


def _relabeled_copy(directory, monoid, blocks, rng):
    """Files for the monoid with the topology whose base is the given blocks
    of element names, and for a relabelled copy of both."""
    copy = relabeled_monoid(monoid, rng)
    paths = []
    for stem, m in (("M", monoid), ("R", copy)):
        (directory / f"{stem}.json").write_text(json.dumps(files.monoid_to_obj(m)))
        (directory / f"{stem}_top.json").write_text(json.dumps(
            {"monoid": f"{stem}.json", "carrier": list(m.elements), "base": blocks}))
        paths += [str(directory / f"{stem}.json"), str(directory / f"{stem}_top.json")]
    return paths


def _morita_witness(argv, capsys):
    """Run morita, which must answer yes; its witness as a dict."""
    assert main(["morita", *argv, "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert report["verdict"] == "yes" and "unknown" not in out
    witness = report["witness"]
    assert report["powder_orders"] == [len(witness)] * 2
    assert len(set(witness.values())) == len(witness)
    return witness


@pytest.mark.parametrize("topology, powder_order", [("coset", 1), ("disc", 27)])
def test_morita_finds_a_relabelled_t3(t3_dir, tmp_path, capsys, topology, powder_order):
    ws = files.Workspace()
    t3 = ws.monoid(files.load_file(ws, t3_dir / "T3.json"))
    blocks = json.loads((t3_dir / f"{topology}.json").read_text())["base"]
    argv = _relabeled_copy(tmp_path, t3, blocks, random.Random(11))
    assert len(_morita_witness(argv, capsys)) == powder_order


def test_morita_finds_a_relabelled_discrete_submonoid_of_t4(tmp_path, capsys):
    monoid = transformation_monoid(
        transformation_closure([(0, 0, 2, 3), (3, 1, 2, 0)], 4, 100))
    assert monoid.order == 6
    argv = _relabeled_copy(tmp_path, monoid, [[e] for e in monoid.elements],
                           random.Random(12))
    assert len(_morita_witness(argv, capsys)) == 6


SAMPLE_ARGV = {
    "validate": ["a.json", "b.json", "--json"],
    "analyze": ["M", "T", "--out", "d", "--json"],
    "congruences": ["M", "--json"],
    "act-topology": ["M", "T"],
    "powder": ["M", "T", "--out", "d"],
    "t0": ["M", "T", "--json"],
    "mult-core": ["M", "T"],
    "complete": ["M", "--filter", "open@T"],
    "factor-hom": ["H", "--dense", "S", "T", "--json"],
    "site": ["M", "--dot", "--json"],
    "morita": ["M", "T", "N", "S", "--json"],
    "check": ["atomic", "M", "--filter", "all"],
    "suite": ["--order", "2", "--topologies", "1"],
}


def _help(parser, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args(argv)
    return out.getvalue()


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_one_command_parser_parses_as_the_full_parser(command):
    argv = [command, *SAMPLE_ARGV[command]]
    assert build_parser(command).parse_args(argv) == build_parser().parse_args(argv)
    assert (_help(build_parser(command), [command, "--help"])
            == _help(build_parser(), [command, "--help"]))
    assert build_parser(command).format_usage() == build_parser().format_usage()


def test_parser_fallbacks_and_errors_match_the_full_parser(capsys):
    assert len(SUBCOMMANDS) == 13 and set(SAMPLE_ARGV) == set(SUBCOMMANDS)
    for argv in ([], ["-h"], ["bogus"], ["analyze", "M", "--bogus"],
                 ["check", "bogus", "M"], ["morita", "M"]):
        with pytest.raises(SystemExit) if argv else contextlib.nullcontext():
            code = main(argv)
        mine = capsys.readouterr()
        with pytest.raises(SystemExit) if argv else contextlib.nullcontext():
            parser = build_parser()
            args = parser.parse_args(argv)
            if not hasattr(args, "func"):
                parser.print_help()
        full = capsys.readouterr()
        assert (mine.out, mine.err) == (full.out, full.err)
        if not argv:
            assert code == 2
