"""Lowering terms to straight-line programs: each identity, axiom and eval_* call
lowers its terms once, however many chunks it runs, and a malformed term is
refused with the same TermError on every entry point.
"""

import numpy as np
import pytest

from nbalab import core, skew, terms
from nbalab.terms import Bin, Q, TermError, Var


@pytest.fixture
def lowered(monkeypatch):
    """The roots of every terms.lower call, in order; assignments stream in chunks of 4."""
    calls, real = [], terms.lower

    def lower(roots, n=None):
        roots = tuple(roots)
        calls.append(roots)
        return real(roots, n)

    monkeypatch.setattr(terms, "lower", lower)
    monkeypatch.setattr(terms, "CHUNK", 4)
    return calls


@pytest.mark.parametrize("kw", [{}, {"mode": "sampled", "samples": 30, "seed": 2}])
@pytest.mark.parametrize("lhs,rhs,valid", [
    ("q(y,q(x,z,e1,e2),x,x)", "q(y,q(x,z,e1,e2),x,x)", True),
    ("and[1](x,and[1](y,z))", "and[1](and[1](x,y),z)", True),
    ("q(x,y,z,x)", "q(x,z,y,x)", False),
])
def test_check_identity_lowers_once_over_many_chunks(lowered, lhs, rhs, valid, kw):
    lhs, rhs = terms.parse_term(lhs, 3), terms.parse_term(rhs, 3)
    assert terms.check_identity(lhs, rhs, 3, **kw).valid == valid
    assert lowered == [(lhs, rhs)]


def test_check_axioms_lowers_each_axiom_once_over_many_chunks(lowered):
    alg = core.power_algebra(2, 2)
    report = skew.check_axioms(alg, "NBA")
    assert report.ok and max(a.assignments for a in report.axioms) > 4 * terms.CHUNK
    axioms = skew.nba_axioms(alg)
    assert lowered == [(ax.lhs, ax.rhs) for ax in axioms]
    lowered.clear()
    bad = skew.check_axioms(core.table_of_power(alg).mutate((1, 0, 2), 3), "NBA")
    assert not bad.ok and len(lowered) == len(bad.axioms)


def test_a_pinned_axiom_lowers_its_own_program(lowered):
    alg = core.power_algebra(2, 2)
    assert skew.is_element_kind(alg, (1, 2), "central")
    # B4 pinned, D1-D3 and D3-const at each constant: one program each
    assert len(lowered) == 1 + 3 + alg.n


def test_eval_calls_lower_once(lowered):
    alg = core.power_algebra(2, 2)
    t = terms.parse_term("or[1](x,t[2](y,x,e1))", 2)
    terms.eval_vec(t, {"x": np.arange(4), "y": np.arange(4)[::-1]}, alg)
    terms.eval_term(t, {"x": (1, 2), "y": (2, 2)}, alg)
    assert lowered == [(t,), (t,)]


# -- malformed terms: one fault each, and the same reason from every entry point --------

x, y, z = Var("x"), Var("y"), Var("z")
FAULTS = [
    (Bin("and", frozenset(), x, y), "empty subscript"),
    (Q(x, ("y", z)), "unknown node 'y'"),
    (Bin("or", frozenset({1, 2}), x, y), "or needs an index outside the subscript"),
    (Q(x, (y,)), "q node has 1 branches, expected 2"),
]
ALG = core.power_algebra(2, 2)
ENTRY_POINTS = {
    "check_identity": lambda t: terms.check_identity(t, x, 2),
    "eval_vec": lambda t: terms.eval_vec(t, {"x": 0, "y": 1, "z": 2}, ALG),
    "eval_term": lambda t: terms.eval_term(t, {"x": (1, 2), "y": (2, 1), "z": (2, 2)}, ALG),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("t,message", FAULTS, ids=[m for _, m in FAULTS])
def test_a_malformed_term_is_refused_with_its_reason(entry, t, message):
    with pytest.raises(TermError) as err:
        ENTRY_POINTS[entry](t)
    assert str(err.value) == message
    with pytest.raises(TermError) as err:  # on either side of an identity
        terms.check_identity(Q(x, (y, x)), t, 2)
    assert str(err.value) == message


def test_an_unbound_variable_is_named():
    with pytest.raises(TermError, match="unbound variable 'z'"):
        terms.eval_term(terms.parse_term("q(x,y,z)", 2), {"x": (1,), "y": (2,)}, ALG)


# -- the program itself ---------------------------------------------------------------


def test_a_program_has_one_step_per_distinct_node_and_name():
    shared = terms.parse_term("t[1](x,y,e2)", 2)
    lhs = Q(shared, (shared, Var("x")))
    program = terms.lower((lhs, shared), 2)
    names = [op for op, args, _ in program.steps if args is None]
    assert names == ["x", "y", "e2"]
    assert [op for op, args, _ in program.steps if args is not None] == ["q", "q"]
    assert len(program.roots) == 2 and program.roots[1] in program.steps[program.roots[0]][1]
    # a value is freed by the step that reads it last, and a root is never freed
    freed = [a for _, _, dead in program.steps for a in dead]
    assert len(freed) == len(set(freed)) and not set(freed) & set(program.roots)
    for i, (_, _, dead) in enumerate(program.steps):
        for a in dead:
            assert not any(a in (args or ()) for _, args, _ in program.steps[i + 1:])


def test_run_applies_tables_and_functions_to_operation_terms():
    meet = np.minimum.outer(np.arange(3), np.arange(3))
    inner = ("meet", "x", "0")
    program = terms.lower([("join", inner, ("meet", inner, "y"))])
    ops = {"meet": meet, "join": lambda a, b: np.maximum(a, b), "0": 0}
    x_, y_ = np.arange(3), np.array([2, 2, 1])
    (got,) = terms.run(program, {"x": x_, "y": y_}, ops)
    assert np.array_equal(got, np.maximum(np.minimum(x_, 0), np.minimum(np.minimum(x_, 0), y_)))
    assert sum(op == "meet" for op, _, _ in program.steps) == 2  # inner once, by identity
