import json

import pytest

from topact import files
from topact.catalog import cyclic, left_zeros, truncated_addition
from topact.cli import main
from topact.congruences import enumerate_congruences
from topact.errors import CapExceeded
from topact.reflections import continuous_subsets
from topact.topology import partition_topology


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


def test_complete_with_congruence_filter(fixture_dir, capsys):
    assert main(["complete", path(fixture_dir, "C4.json"),
                 "--filter", path(fixture_dir, "mod2.json")]) == 0
    out = capsys.readouterr().out
    assert "L: order 2" in out
    assert "group=True" in out


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


def test_congruence_cap_env(fixture_dir, capsys, monkeypatch):
    monkeypatch.setenv("TOPACT_MAX_CONGRUENCES", "100000")
    from topact.congruences import congruence_cap
    assert congruence_cap() == 100000
    monkeypatch.setenv("TOPACT_MAX_CONGRUENCES", "7")
    assert congruence_cap() == 7
    enumerate_congruences.cache_clear()     # the cap is read on a cache miss
    for bad in ("abc", "0", "-3", "2.5"):
        monkeypatch.setenv("TOPACT_MAX_CONGRUENCES", bad)
        assert main(["congruences", path(fixture_dir, "C4.json")]) == 2
        err = capsys.readouterr().err
        assert "TOPACT_MAX_CONGRUENCES" in err and repr(bad) in err


def test_malformed_cap_exits_2_with_a_warm_lattice(fixture_dir, capsys, monkeypatch):
    monkeypatch.delenv("TOPACT_MAX_CONGRUENCES", raising=False)
    enumerate_congruences(cyclic(4))
    assert main(["congruences", path(fixture_dir, "C4.json")]) == 0
    capsys.readouterr()
    misses = enumerate_congruences.cache_info().misses
    monkeypatch.setenv("TOPACT_MAX_CONGRUENCES", "abc")
    assert main(["congruences", path(fixture_dir, "C4.json")]) == 2
    assert "TOPACT_MAX_CONGRUENCES must be a positive integer, not 'abc'" \
        in capsys.readouterr().err
    assert enumerate_congruences.cache_info().misses == misses


def test_powerset_cap_stops_act_topology(tmp_path, capsys):
    c17 = cyclic(17)
    halves = [list(c17.elements[:8]), list(c17.elements[8:])]
    with pytest.raises(CapExceeded, match="powerset action carrier"):
        continuous_subsets(c17, partition_topology(17, [range(8), range(8, 17)]))
    (tmp_path / "C17.json").write_text(json.dumps(files.monoid_to_obj(c17)))
    (tmp_path / "halves.json").write_text(json.dumps(
        {"monoid": "C17.json", "carrier": list(c17.elements), "base": halves}))
    assert main(["act-topology", str(tmp_path / "C17.json"),
                 str(tmp_path / "halves.json")]) == 2
    assert "powerset action carrier: cap exceeded at 131072" in capsys.readouterr().err


def test_open_set_cap_stops_analyze(tmp_path, capsys):
    c17 = cyclic(17)
    (tmp_path / "C17.json").write_text(json.dumps(files.monoid_to_obj(c17)))
    (tmp_path / "disc17.json").write_text(json.dumps(
        {"monoid": "C17.json", "carrier": list(c17.elements),
         "base": [[e] for e in c17.elements]}))
    assert main(["analyze", str(tmp_path / "C17.json"),
                 str(tmp_path / "disc17.json")]) == 2
    assert "open-set family exceeds 65536 members" in capsys.readouterr().err


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
