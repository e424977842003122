"""Malformed nba input: files and flags exit 2 with the reason, well-formed input that
fails exits 1 with {"error": ...}, and neither ends in a traceback.

Every case runs in-process through nbalab.cli.main; an uncaught exception fails it.
"""

import json

import pytest

from nbalab import core
from nbalab.cli import main

T22 = core.table_of_power(core.power_algebra(2, 2)).to_json()  # constants [0, 3]
P22 = {"n": 2, "kind": "power", "points": 2}
P23 = {"n": 2, "kind": "power", "points": 3}
P32 = {"n": 3, "kind": "power", "points": 2}
P2_40 = {"n": 2, "kind": "power", "points": 40}
P2_10 = {"n": 2, "kind": "power", "points": 10}
P3_5 = {"n": 3, "kind": "power", "points": 5}


def with_q(pos, value):
    q = list(T22["q"])
    q[pos] = value
    return {**T22, "q": q}


def check(name):
    return ["check", "--algebra", name, "--suite", "nba"]


def past_bound(table, size, entries):
    return f"{table} over carrier size {size} needs {entries} entries, exceeding bound {1 << 24}"


def validate(name):
    return ["multideals", "--algebra", "p23.json", "--validate", name]


def reduct(*flags):
    return ["reduct", "--algebra", "p23.json", "--kind", "church", "--i", "1", *flags]


def represent(points):
    return ["represent", "--points", str(points), "--n", "3", "--i", "3"]


def env(*entries):
    return ["eval", "--n", "2", "--term", "q(x,y,z)", "--env", *entries]


def translate(n, term, to, *flags):
    return ["translate", "--n", n, "--term", term, "--to", to, *flags]


# (id, input file contents or None, argv with "in.json" for that file, exit, reason)
CASES = [
    ("q entry 0.5, check", with_q(3, 0.5), check("in.json"), 2, "q must be a list of integers"),
    ("q entry 0.5, congruences", with_q(3, 0.5), ["congruences", "--algebra", "in.json"], 2,
     "q must be a list of integers"),
    ("q entry true", with_q(0, True), check("in.json"), 2, "q must be a list of integers"),
    ("float constants", {**T22, "constants": [0.0, 3.0]}, check("in.json"), 2,
     "constants must be a list of integers"),
    ("float size", {**T22, "size": 4.0}, check("in.json"), 2, "size must be an integer"),
    ("float points", {**P22, "points": 2.0}, check("in.json"), 2, "points must be an integer"),
    ("string in a carrier element",
     {"n": 2, "kind": "subpower", "points": 2, "carrier": [[1, 1], [2, 2], ["a", 1]]},
     check("in.json"), 2, "a carrier element must be a list of integers"),
    ("algebra is a list", [T22], check("in.json"), 2, "an algebra is a JSON object"),
    ("float table entry", {"n": 2, "k": 1, "entries": [1.5, 2]},
     ["synth", "--table", "in.json"], 2, "entries must be a list of integers"),
    ("boolean table entry", {"n": 2, "k": 1, "entries": [True, 2]},
     ["synth", "--table", "in.json"], 2, "entries must be a list of integers"),
    ("float arity", {"n": 2, "k": 1.0, "entries": [1, 2]},
     ["synth", "--table", "in.json"], 2, "k must be an integer"),
    ("string dimension", {"n": "2", "k": 1, "entries": [1, 2]},
     ["synth", "--table", "in.json"], 2, "n must be an integer"),
    ("table is a list", [{"n": 2, "k": 1, "entries": [1, 2]}],
     ["synth", "--table", "in.json"], 2, "a truth table is a JSON object"),
    ("string candidate entry", {"components": [[[1, 1, 1], "a"], [[2, 2, 2]]]},
     validate("in.json"), 2, "component entry 'a'"),
    ("float candidate entry", {"components": [[[1, 1, 1], 1.5], [[2, 2, 2]]]},
     validate("in.json"), 2, "component entry 1.5"),
    ("components not lists", {"components": 5}, validate("in.json"), 2, "list of lists"),
    ("candidate is a list", [[[1, 1, 1]], [[2, 2, 2]]], validate("in.json"), 2,
     "list of lists"),
    ("boolean candidate entry", {"components": [[0, True], [7]]}, validate("in.json"), 2,
     "component entry True"),
    ("candidate without components", {"parts": [[0], [7]]}, validate("in.json"), 2,
     "no field 'components'"),
    ("check with zero samples", None,
     ["check", "--algebra", "p23.json", "--suite", "nba", "--budget", "1", "--samples", "0"],
     2, "--samples: must be a positive integer"),
    ("equiv with zero samples", None,
     ["equiv", "--n", "2", "--sampled", "--samples", "0", "x", "x"], 2,
     "--samples: must be a positive integer"),
    ("negative samples", None,
     ["equiv", "--n", "2", "--sampled", "--samples", "-1", "x", "x"], 2,
     "--samples: must be a positive integer"),
    ("church reduct without d and j", None, reduct(), 2, "needs --d and --j"),
    ("church reduct without j", None, reduct("--d", "1"), 2, "needs --d and --j"),
    ("church reduct with d outside 1..n", None, reduct("--d", "1,7", "--j", "2"), 1,
     "must lie in 1..2"),
    ("represent on 9 points", None, represent(9), 1, "point count 9 out of 0..5"),
    ("represent on -1 points", None, represent(-1), 1, "point count -1 out of 0..5"),
    ("represent with a slot outside 1..n", None,
     ["represent", "--points", "2", "--n", "3", "--i", "9"], 1, "slot index 9 out of 3..3"),
    ("float env value", None, env("x=[1.5,2]", "y=[1,1]", "z=[2,2]"), 2,
     "--env: bad entry 'x=[1.5,2]'"),
    ("boolean env value", None, env("x=[true]", "y=[1]", "z=[2]"), 2,
     "--env: bad entry 'x=[true]'"),
    ("empty env value", None, env("x=[]", "y=[1]", "z=[2]"), 2, "--env: bad entry 'x=[]'"),
    ("check with negative budget", P32, check("in.json") + ["--budget", "-3"], 2,
     "--budget: must be a positive integer"),
    ("check with zero budget", P32, check("in.json") + ["--budget", "0"], 2,
     "--budget: must be a positive integer"),
    ("equiv with negative budget", None, ["equiv", "--n", "2", "--budget", "-1", "x", "x"], 2,
     "--budget: must be a positive integer"),
    ("check with negative seed", P32, check("in.json") + ["--seed", "-1"], 2,
     "--seed: must be a non-negative integer"),
    ("sampled equiv with negative seed", None,
     ["equiv", "--n", "2", "--sampled", "--seed", "-5", "q(x,y,z)", "q(x,y,z)"], 2,
     "--seed: must be a non-negative integer"),
    ("translate at dimension 1", None, translate("1", "q(x,y)", "star"), 2,
     "--n: must be an integer >= 2"),
    ("translate at dimension 0", None, translate("0", "x", "q"), 2,
     "--n: must be an integer >= 2"),
    ("eval at dimension 1", None, ["eval", "--n", "1", "--term", "x", "--env", "x=[1]"], 2,
     "--n: must be an integer >= 2"),
    ("equiv at dimension 1", None, ["equiv", "--n", "1", "x", "x"], 2,
     "--n: must be an integer >= 2"),
    ("represent at dimension 1", None, ["represent", "--points", "1", "--n", "1", "--i", "1"],
     2, "--n: must be an integer >= 2"),
    ("skew translation with i outside 1..n", None, translate("3", "x", "skew", "--i", "7"), 1,
     "index 7 out of 1..3"),
    ("skew translation of t[1] with i outside 1..n", None,
     translate("3", "t[1](x,y,z)", "skew", "--i", "7"), 1, "index 7 out of 1..3"),
    # a full power's size is n**points: the bound answers before any element is built
    ("congruences of 2^40", P2_40, ["congruences", "--algebra", "in.json"], 1,
     "carrier size 1099511627776 exceeds bound 64"),
    ("multideals of 2^40", P2_40, ["multideals", "--algebra", "in.json"], 1,
     "carrier size 1099511627776 exceeds bound 64"),
    # a dense table past core.TABLE_BOUND entries is refused before it is allocated
    ("nba check of 2^40", P2_40, check("in.json"), 1,
     past_bound("the element list", 2**40, 40 * 2**40)),
    ("skewba check of 2^40", P2_40, ["check", "--algebra", "in.json", "--suite", "skewba"], 1,
     past_bound("a t table", 2**40, 2**120)),
    ("ultras of 2^40", P2_40, ["ultras", "--algebra", "in.json"], 1,
     past_bound("a t table", 2**40, 2**120)),
    ("embed of 2^40", P2_40, ["embed", "--algebra", "in.json"], 1,
     past_bound("a t table", 2**40, 2**120)),
    ("reduct of 2^40", P2_40, ["reduct", "--algebra", "in.json", "--kind", "skew", "--i", "1"],
     1, past_bound("a t table", 2**40, 2**120)),
    ("ultras of 3^5", P3_5, ["ultras", "--algebra", "in.json"], 1,
     past_bound("the q table", 243, 243**4)),
    ("embed of 3^5", P3_5, ["embed", "--algebra", "in.json"], 1,
     past_bound("the q table", 243, 243**4)),
    ("reduct of 2^10", P2_10, ["reduct", "--algebra", "in.json", "--kind", "skew", "--i", "1"],
     1, past_bound("a t table", 1024, 1024**3)),
    ("skewba check of 2^10", P2_10, ["check", "--algebra", "in.json", "--suite", "skewba"], 1,
     past_bound("a t table", 1024, 1024**3)),
    ("ultras of 2^10", P2_10, ["ultras", "--algebra", "in.json"], 1,
     past_bound("a t table", 1024, 1024**3)),
    ("embed of 2^10", P2_10, ["embed", "--algebra", "in.json"], 1,
     past_bound("a t table", 1024, 1024**3)),
]


@pytest.mark.parametrize("contents, argv, code, reason", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_malformed_input_gives_its_reason(contents, argv, code, reason, tmp_path, capsys):
    (tmp_path / "p23.json").write_text(json.dumps(P23), encoding="utf-8")
    if contents is not None:
        (tmp_path / "in.json").write_text(json.dumps(contents), encoding="utf-8")
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse rejects a flag
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code, (out, err)
    assert "Traceback" not in err
    if code == 2:
        assert reason in err and not out
    else:
        assert reason in json.loads(out)["error"]


def test_out_of_range_env_value_is_an_error_not_a_usage_error(capsys):
    """A well-formed --env value outside 1..n exits 1 with {"error": ...}."""
    assert main(env("x=[5]", "y=[1]", "z=[2]")) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": "value 5 out of 1..2 in (5,)"} and not err


@pytest.mark.parametrize("n, points", [(2, 64), (3, 41)])
def test_congruences_of_the_constants_on_a_wide_point_set(n, points, tmp_path, capsys):
    """Base-n codes of 64 or 41 points overflow 64 bits; the subpower is n^1."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"n": n, "kind": "subpower", "points": points,
                                "carrier": [[k] * points for k in range(1, n + 1)]}))
    assert main(["congruences", "--algebra", str(path)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["count"] == 2 and "Traceback" not in err
