import itertools
import json

import pytest

from nbalab import core, skew
from nbalab.cli import main
from test_certified_structure import changed_mutations


@pytest.fixture
def power_file(tmp_path):
    def make(n, m):
        path = tmp_path / f"power_{n}_{m}.json"
        path.write_text(json.dumps(core.power_algebra(n, m).to_json()))
        return str(path)

    return make


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_nba_ok(capsys, power_file):
    code, out = run(capsys, ["check", "--algebra", power_file(3, 2), "--suite", "nba"])
    payload = json.loads(out)
    assert code == 0 and payload["ok"]
    assert {ax["name"] for ax in payload["axioms"]} >= {"B1", "B2", "B3", "B4"}


def test_check_bad_table_exits_1(capsys, tmp_path):
    tab = core.table_of_power(core.generator(2)).mutate((0, 0, 1), 1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tab.to_json()))
    code, out = run(capsys, ["check", "--algebra", str(path), "--suite", "nba"])
    payload = json.loads(out)
    assert code == 1 and not payload["ok"]
    assert "counterexample" in payload


def test_check_missing_file_exits_2(capsys):
    assert main(["check", "--algebra", "/nonexistent.json", "--suite", "nba"]) == 2


def test_check_other_suites(capsys, power_file):
    path = power_file(3, 2)
    for suite in ("skewba", "skewlattice", "srca", "skewstar"):
        code, out = run(capsys, ["check", "--algebra", path, "--suite", suite])
        assert code == 0, (suite, out)


def test_check_sampled_reports_seed(capsys, power_file):
    code, out = run(capsys, ["check", "--algebra", power_file(2, 1), "--suite", "nba",
                             "--budget", "1", "--samples", "50", "--seed", "3"])
    payload = json.loads(out)
    assert code == 0 and payload["samples"] == 50 and payload["seed"] == 3


def test_eval(capsys):
    code, out = run(capsys, ["eval", "--n", "3", "--term", "q(x,y,z,w)",
                             "--env", "x=[1,2]", "y=[3,3]", "z=[1,1]", "w=[2,2]"])
    assert code == 0
    assert json.loads(out)["result"] == [3, 1]


def test_eval_constant_env(capsys):
    code, out = run(capsys, ["eval", "--n", "2", "--term", "q(x,e2,e1)",
                             "--env", "x=e1"])
    assert code == 0 and json.loads(out)["result"] == [2]


def test_eval_unused_bad_env_entry_exits_1(capsys):
    code, out = run(capsys, ["eval", "--n", "2", "--term", "q(x,x,x)", "--env", "x=[1]", "w=[5]"])
    assert code == 1 and json.loads(out) == {"error": "value 5 out of 1..2 in (5,)"}


def test_eval_parse_error_exits_1(capsys):
    code, out = run(capsys, ["eval", "--n", "2", "--term", "q(x,e1"])
    assert code == 1 and "error" in json.loads(out)


def test_equiv_valid(capsys):
    code, out = run(capsys, ["equiv", "--n", "2",
                             "q(x,q(x,a,b),q(x,c,d))", "q(x,a,d)"])
    payload = json.loads(out)
    assert code == 0 and payload["valid"] and payload["mode"] == "exhaustive"


def test_equiv_counterexample(capsys):
    code, out = run(capsys, ["equiv", "--n", "2", "q(x,y,z)", "y"])
    payload = json.loads(out)
    assert code == 1 and not payload["valid"]
    assert set(payload["counterexample"]) == {"x", "y", "z"}


def test_equiv_sampled_mode_prints_seed(capsys):
    code, out = run(capsys, ["equiv", "--n", "2", "--sampled",
                             "--samples", "100", "--seed", "5",
                             "q(x,y,z)", "q(x,y,z)"])
    payload = json.loads(out)
    assert code == 0 and payload["mode"] == "sampled"
    assert payload["samples"] == 100 and payload["seed"] == 5


def test_equiv_budget_falls_back_to_sampled(capsys):
    code, out = run(capsys, ["equiv", "--n", "2", "--budget", "3",
                             "--samples", "64",
                             "q(x,y,z)", "q(x,y,z)"])
    payload = json.loads(out)
    assert code == 0 and payload["mode"] == "sampled"
    assert "seed" in payload


def test_translate(capsys):
    code, out = run(capsys, ["translate", "--n", "3", "--term", "q(x,y,z,w)",
                             "--to", "star"])
    assert code == 0
    assert json.loads(out)["term"] == "t[1](x,t[2](x,w,z),y)"


def test_translate_skew_family_error(capsys):
    code, out = run(capsys, ["translate", "--n", "3", "--term", "t[2](x,y,z)",
                             "--to", "skew", "--i", "1"])
    assert code == 1 and "error" in json.loads(out)


def test_synth(capsys, tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": 3, "k": 1, "entries": [2, 3, 1]}))
    code, out = run(capsys, ["synth", "--table", str(path), "--simplify"])
    payload = json.loads(out)
    assert code == 0 and payload["verified"] and payload["simplified_verified"]
    assert payload["term"] == "q(x1,e2,e3,e1)"


def test_synth_bad_table_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "k": 1, "entries": [2, 3]}))
    assert main(["synth", "--table", str(path)]) == 2


def test_congruences(capsys, power_file):
    code, out = run(capsys, ["congruences", "--algebra", power_file(3, 2)])
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 4
    assert len(payload["proper_multideals"]) == 3


def test_multideals_validate(capsys, power_file, tmp_path):
    alg_path = power_file(3, 2)
    cand = {"components": [[[1, 1]], [[2, 2]], [[3, 3]]]}
    path = tmp_path / "cand.json"
    path.write_text(json.dumps(cand))
    code, out = run(capsys, ["multideals", "--algebra", alg_path,
                             "--validate", str(path)])
    assert code == 0 and json.loads(out)["status"] == "proper"
    bad = {"components": [[[1, 1], [1, 2]], [[2, 2]], [[3, 3]]]}
    path.write_text(json.dumps(bad))
    code, out = run(capsys, ["multideals", "--algebra", alg_path,
                             "--validate", str(path)])
    assert code == 1 and json.loads(out)["status"] == "invalid"


def test_ultras(capsys, power_file):
    code, out = run(capsys, ["ultras", "--algebra", power_file(3, 2)])
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 2


def test_embed(capsys, power_file):
    code, out = run(capsys, ["embed", "--algebra", power_file(2, 3)])
    payload = json.loads(out)
    assert code == 0 and payload["isomorphism"]
    assert payload["target"] == {"n": 2, "kind": "power", "points": 3}


def test_reduct(capsys, power_file):
    code, out = run(capsys, ["reduct", "--algebra", power_file(3, 2),
                             "--kind", "skew", "--i", "1"])
    payload = json.loads(out)
    assert code == 0 and payload["kind"] == "skew"
    assert len(payload["meet"]) == 9
    code, out = run(capsys, ["reduct", "--algebra", power_file(3, 2),
                             "--kind", "church", "--i", "1", "--d", "1,3",
                             "--j", "2"])
    assert code == 0 and json.loads(out)["d"] == [1, 3]


def test_represent(capsys):
    code, out = run(capsys, ["represent", "--points", "2", "--n", "3", "--i", "3"])
    assert code == 0 and json.loads(out)["ok"]


def test_represent_bad_slot_exits_1(capsys):
    code, out = run(capsys, ["represent", "--points", "1", "--n", "3", "--i", "2"])
    assert code == 1


def test_text_mode(capsys, power_file):
    code, out = run(capsys, ["check", "--algebra", power_file(2, 1),
                             "--suite", "nba", "--text"])
    assert code == 0 and out.startswith("suite NBA: ok")


def test_output_is_deterministic(capsys, power_file):
    path = power_file(3, 2)
    _, out1 = run(capsys, ["congruences", "--algebra", path])
    _, out2 = run(capsys, ["congruences", "--algebra", path])
    assert out1 == out2


@pytest.fixture
def mutated_table_file(tmp_path):
    """2^3 as a raw table with one q entry changed: not an nBA."""
    tab = core.table_of_power(core.power_algebra(2, 3)).mutate((3, 5, 6), 0)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(tab.to_json()))
    return str(path)


@pytest.mark.parametrize("command", ["ultras", "embed"])
def test_non_nba_table_exits_1_with_a_reason(capsys, mutated_table_file, command):
    code = main([command, "--algebra", mutated_table_file])
    captured = capsys.readouterr()
    assert code == 1 and "homomorphism" in json.loads(captured.out)["error"]
    assert "Traceback" not in captured.err


def test_open_subpower_exits_2(capsys, tmp_path):
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"n": 3, "kind": "subpower", "points": 2,
                                "carrier": [[1, 1], [1, 2], [2, 2], [3, 3]]}))
    code = main(["congruences", "--algebra", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "not closed under q" in captured.err and "Traceback" not in captured.err


def test_a_wide_subpower_checks_as_the_power_of_its_classes(capsys, tmp_path, power_file):
    """2^16 elements inside 2^20 (classes {p, p + 16} and singletons): no q table is
    built at load, and the audit is that of 2^16, mode for mode."""
    carrier = [[v[p % 16] for p in range(20)] for v in itertools.product((1, 2), repeat=16)]
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"n": 2, "kind": "subpower", "points": 20, "carrier": carrier}))
    got = run(capsys, ["check", "--algebra", str(path), "--suite", "nba"])
    assert got == run(capsys, ["check", "--algebra", power_file(2, 16), "--suite", "nba"])
    assert got[0] == 0


@pytest.mark.parametrize("command", ["ultras", "embed"])
def test_center_not_closed_exits_1_with_a_reason(capsys, tmp_path, command):
    tab = core.table_of_power(core.power_algebra(2, 3)).mutate((5, 0, 7), 2)
    path = tmp_path / "center.json"
    path.write_text(json.dumps(tab.to_json()))
    code = main([command, "--algebra", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and "not closed under join" in json.loads(captured.out)["error"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["congruences", "multideals"])
def test_lattice_commands_audit_a_table_first(capsys, tmp_path, mutated_table_file, command):
    code = main([command, "--algebra", mutated_table_file])
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert code == 1 and error.startswith("not an nBA: B")
    assert "Traceback" not in captured.err
    # seeded one-entry mutations of 2^3 and 3^2 get no certificate and the audit's refutation
    path = tmp_path / "mutant.json"
    for n, m in ((2, 3), (3, 2)):
        for key, mutant in changed_mutations(core.power_algebra(n, m), n * 100 + m, 60):
            fail = skew.check_axioms(mutant, "NBA").first_failure()
            path.write_text(json.dumps(mutant.to_json()))
            code = main([command, "--algebra", str(path)])
            captured = capsys.readouterr()
            assert code == 1 and "Traceback" not in captured.err, key
            assert json.loads(captured.out) == {
                "error": f"not an nBA: {fail.name} fails at {fail.counterexample}"}, key


def test_a_table_the_sampled_audit_passes_is_refused_without_a_certificate(capsys, tmp_path):
    """One entry of 2^7's table changed: B2 and B3 are only sampled on 128 elements and
    find nothing, but the table is no power of the generator and gets no certificate."""
    table = core.table_of_power(core.power_algebra(2, 7))
    assert table.q_table()[82, 38, 101] == 100
    mutant = table.mutate((82, 38, 101), 83)
    assert skew.check_axioms(mutant, "NBA").ok
    alg_path, cand_path = tmp_path / "mutant.json", tmp_path / "cand.json"
    alg_path.write_text(json.dumps(mutant.to_json()))
    cand_path.write_text(json.dumps({"components": [[0], [127]]}))
    for argv in (["congruences", "--algebra", str(alg_path)],
                 ["multideals", "--algebra", str(alg_path), "--validate", str(cand_path)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and "Traceback" not in captured.err, argv
        error = json.loads(captured.out)["error"]
        assert error.startswith("not an nBA:") and "no Stone certificate" in error, argv


def test_lattice_commands_accept_the_table_of_a_power(capsys, tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(core.table_of_power(core.power_algebra(2, 2)).to_json()))
    code, out = run(capsys, ["congruences", "--algebra", str(path)])
    assert code == 0 and json.loads(out)["count"] == 4


def _validate(capsys, tmp_path, alg, components):
    alg_path, cand_path = tmp_path / "alg.json", tmp_path / "cand.json"
    alg_path.write_text(json.dumps(alg.to_json()))
    cand_path.write_text(json.dumps({"components": components}))
    return run(capsys, ["multideals", "--algebra", str(alg_path), "--validate", str(cand_path)])


def test_multideals_validate_takes_carrier_indices_on_a_power(capsys, tmp_path):
    code, out = _validate(capsys, tmp_path, core.power_algebra(2, 3), [[0], [7]])
    assert code == 0 and json.loads(out) == {"status": "proper"}


def test_multideals_validate_takes_carrier_indices_on_a_table(capsys, tmp_path):
    table = core.table_of_power(core.power_algebra(2, 3))
    code, out = _validate(capsys, tmp_path, table, [[0], [7]])
    assert code == 0 and json.loads(out) == {"status": "proper"}


def test_multideals_validate_refuses_element_lists_on_a_table(capsys, tmp_path):
    table = core.table_of_power(core.power_algebra(2, 3))
    code, out = _validate(capsys, tmp_path, table, [[[0]], [[7]]])
    assert code == 1 and "carrier indices" in json.loads(out)["error"]
