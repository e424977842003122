"""One path per job: labels of printed elements only, the star's inverse on open grids,
element values that are integers, and the one table of `nba check` suites.

The label oracle labels the whole carrier eagerly, as the multideal printers once did,
and the witnesses of validate_multideal are re-checked against q itself.
"""

import tracemalloc

import numpy as np
import pytest

from nbalab import cli, core, ideals, skew
from nbalab.core import PowerAlgebra, ShapeError, power_algebra, subalgebra_closure
from nbalab.terms import eval_term, parse_term


def label_cases():
    return {
        "2^3": power_algebra(2, 3),
        "3^2": power_algebra(3, 2),
        "2^4": power_algebra(2, 4),
        "subpower of 3^3": subalgebra_closure(power_algebra(3, 3), [(1, 2, 2)]),
        "table of 3^2": core.table_of_power(power_algebra(3, 2)),
    }


@pytest.fixture
def label_calls(monkeypatch):
    """The indices element_label is called with, on powers and tables alike."""
    calls = []
    for cls in (PowerAlgebra, core.TableAlgebra):
        label = cls.element_label
        monkeypatch.setattr(cls, "element_label",
                            lambda self, i, label=label: calls.append(i) or label(self, i))
    return calls


@pytest.mark.parametrize("name", list(label_cases()))
def test_multideal_json_labels_only_its_elements(name, label_calls):
    alg = label_cases()[name]
    labels = [alg.element_label(i) for i in range(alg.size)]  # the eager oracle
    mids = ideals.all_proper_multideals(alg) + [ideals.degenerate_multideal(alg)]
    for md in mids:
        label_calls.clear()
        got = md.to_json()
        if md.degenerate:
            assert got == {"degenerate": True} and label_calls == []
            continue
        assert got == {"degenerate": False,
                       "components": [sorted(labels[x] for x in c) for c in md.components]}
        assert sorted(label_calls) == sorted(x for c in md.components for x in c)


def validation_candidates(alg):
    """Some proper multideals, and each with one element added to one component: proper,
    degenerate, or invalid at disjointness or m2."""
    out = []
    for md in ideals.all_proper_multideals(alg)[:6]:
        comps = [sorted(c) for c in md.components]
        out.append(comps)
        for k in range(alg.n):
            for x in range(0, alg.size, 3):
                if x not in comps[k]:
                    out.append([c + [x] if r == k else c for r, c in enumerate(comps)])
    return out


@pytest.mark.parametrize("name", list(label_cases()))
def test_validate_multideal_labels_only_its_witness(name, label_calls):
    alg = label_cases()[name]
    labels = [alg.element_label(i) for i in range(alg.size)]
    index = {lab: i for i, lab in enumerate(labels)}
    clauses = set()
    for comps in validation_candidates(alg):
        label_calls.clear()
        res = ideals.validate_multideal(alg, comps)
        clauses.add(res.clause or res.status)
        wit = res.witness or {}
        if res.clause == "disjoint":
            x = index[wit["element"]]
            assert label_calls == [x]
            assert all(x in comps[r - 1] for r in wit["components"])
        elif res.clause in ("m2", "m3"):
            a, ys, out = index[wit["a"]], [index[y] for y in wit["ys"]], index[wit["result"]]
            assert label_calls == [a, *ys, out]
            assert int(alg.q_vec(a, ys)) == out and out not in comps[wit["k"] - 1]
            if res.clause == "m2":
                assert a in comps[wit["r"] - 1] and ys[wit["r"] - 1] in comps[wit["k"] - 1]
            else:
                assert all(y in comps[wit["k"] - 1] for y in ys)
        else:
            assert res.status in ("proper", "degenerate") and label_calls == []
    assert {"proper", "degenerate", "disjoint", "m2"} <= clauses


@pytest.mark.parametrize("n, m", [(4, 2), (3, 3), (2, 6)])
def test_nba_of_star_peaks_under_three_tables(n, m):
    alg = power_algebra(n, m)
    star = skew.star_of(alg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tab = skew.nba_of_star(star)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(tab.q_table(), alg.q_table())
    assert peak < 3 * tab.q_table().nbytes, (peak, tab.q_table().nbytes)


# -- element values are integers or booleans, never floats that int64 truncates ----------


A32 = power_algebra(3, 2)
BRANCHES = [(3, 3), (1, 1), (2, 2)]
SUB32 = PowerAlgebra(3, 2, A32.elements())  # all of 3^2, read as a subpower's carrier
ELEMENT_ENTRIES = {
    "q": lambda x: A32.q(x, BRANCHES),
    "eval_term": lambda x: eval_term(parse_term("q(x,y,z,w)", 3),
                                     dict(zip("xyzw", [x, *BRANCHES])), A32),
    "carrier": lambda x: PowerAlgebra(3, 2, A32.constants + (x,)),
    "subalgebra_closure": lambda x: subalgebra_closure(A32, [x]),
    "subpower subalgebra_closure": lambda x: subalgebra_closure(SUB32, [x]),
    "subpower element_index": lambda x: core.element_index(SUB32, x),
}


@pytest.mark.parametrize("entry", list(ELEMENT_ENTRIES))
@pytest.mark.parametrize("x", [(1.5, 2), (1, 2.0), (np.float64(1), 2)])
def test_non_integer_element_values_are_refused(entry, x):
    bad = next(v for v in x if not isinstance(v, int))
    with pytest.raises(ShapeError) as exc:
        ELEMENT_ENTRIES[entry](x)
    assert str(exc.value) == f"value {bad} out of 1..3 in {x}"


@pytest.mark.parametrize("entry", list(ELEMENT_ENTRIES))
def test_integer_and_boolean_element_values_are_taken(entry):
    got = ELEMENT_ENTRIES[entry]((np.int64(2), True))
    want = ELEMENT_ENTRIES[entry]((2, 1))
    assert got == want


# -- nba check: one table of suites -----------------------------------------------------


def test_check_suites_are_one_table():
    parser, alg = cli.build_parser(), power_algebra(2, 2)
    for name, (suite, audited) in cli.CHECK_SUITES.items():
        assert parser.parse_args(["check", "--algebra", "p.json", "--suite", name]).suite == name
        assert skew.check_axioms(audited(alg, 1), suite).ok, name
    with pytest.raises(SystemExit):
        parser.parse_args(["check", "--algebra", "p.json", "--suite", "boolean"])
