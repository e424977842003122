import itertools

import pytest

from nbalab.synthesis import (
    RewriteStep,
    TruthTable,
    simplify,
    synth,
    table_from_json,
    table_of_term,
    verify_term,
)
from nbalab.terms import Const, Q, Var, parse_term, print_term


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(3, 1, (1, 2))  # wrong length
    with pytest.raises(ValueError):
        TruthTable(3, 1, (1, 2, 4))  # value out of range
    t = TruthTable(3, 2, tuple(((a % 3) + 1) for a in range(9)))
    assert t.lookup((1, 1)) == 1 and t.lookup((1, 3)) == 3


def test_table_json_round_trip():
    t = TruthTable(3, 1, (2, 3, 1))
    assert table_from_json(t.to_json()) == t


def test_synth_cyclic_successor():
    t = synth(TruthTable(3, 1, (2, 3, 1)))
    assert print_term(t) == "q(x1,e2,e3,e1)"
    assert verify_term(t, TruthTable(3, 1, (2, 3, 1)))


def test_synth_constant():
    t = synth(TruthTable(3, 0, (2,)))
    assert t == Const(2)


def test_synth_binary_structure():
    table = TruthTable(2, 2, (1, 2, 2, 1))
    t = synth(table)
    assert isinstance(t, Q) and t.scrutinee == Var("x1")
    assert all(isinstance(b, Q) and b.scrutinee == Var("x2") for b in t.branches)
    assert verify_term(t, table)


def test_verify_rejects_wrong_term():
    table = TruthTable(2, 1, (1, 2))
    good = synth(table)
    assert verify_term(good, table)
    swapped = Q(good.scrutinee, (good.branches[1], good.branches[0]))
    assert not verify_term(swapped, table)


def test_verify_rejects_foreign_variables():
    table = TruthTable(2, 1, (1, 2))
    assert not verify_term(Var("y"), table)


def test_simplify_identity_branches():
    t = parse_term("q(x,e1,e2,e3)", 3)
    out, trace = simplify(t, 3)
    assert out == Var("x")
    assert trace == (RewriteStep("B4-identity-branches", ()),)


def test_simplify_equal_branches():
    t = parse_term("q(x,y,y,y)", 3)
    out, trace = simplify(t, 3)
    assert out == Var("y")
    assert trace[0].rule == "B1-equal-branches"


def test_simplify_const_scrutinee():
    t = parse_term("q(e2,a,b,c)", 3)
    out, trace = simplify(t, 3)
    assert out == Var("b")
    assert trace == (RewriteStep("B0-const-scrutinee", ()),)


def test_simplify_innermost_first_positions():
    # inner redex at branch position, then the root collapses
    t = parse_term("q(x,q(e1,a,b),a)", 2)
    out, trace = simplify(t, 2)
    assert out == Var("a")
    assert trace == (
        RewriteStep("B0-const-scrutinee", (1,)),
        RewriteStep("B1-equal-branches", ()),
    )


def test_simplify_preserves_semantics():
    for entries in itertools.product((1, 2), repeat=4):
        table = TruthTable(2, 2, entries)
        t = synth(table)
        out, _ = simplify(t, 2)
        assert verify_term(out, table), entries


def test_simplify_rejects_non_q_terms():
    with pytest.raises(ValueError):
        simplify(parse_term("and[1](x,y)", 2), 2)


def test_projection_tables_simplify_to_variables():
    # first-argument projection over n = 3, arity 2
    proj1 = TruthTable(3, 2, tuple(a for a in (1, 2, 3) for _ in range(3)))
    proj2 = TruthTable(3, 2, (1, 2, 3) * 3)
    for table, var in ((proj1, "x1"), (proj2, "x2")):
        out, _ = simplify(synth(table), 3)
        assert out == Var(var)


def test_table_of_term_inverts_synth():
    table = TruthTable(3, 2, tuple(((a * 2) % 3) + 1 for a in range(9)))
    t = synth(table)
    assert table_of_term(t, 3, 2) == table


def _table_by_loop(t, n, k):
    """The term's table from one scalar evaluation per argument tuple."""
    from nbalab import core
    from nbalab.terms import eval_term

    alg = core.generator(n)
    names = [f"x{s}" for s in range(1, k + 1)]
    return tuple(eval_term(t, {name: (v,) for name, v in zip(names, args)}, alg)[0]
                 for args in itertools.product(range(1, n + 1), repeat=k))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_vectorised_tables_match_the_scalar_loop(n, k):
    import random

    rng = random.Random(n * 10 + k)
    xs = [f"x{s}" for s in range(1, k + 1)]
    terms = [Const(c, "e") for c in range(1, n + 1)] + [Var(x) for x in xs]
    for _ in range(3):
        table = TruthTable(n, k, tuple(rng.randint(1, n) for _ in range(n**k)))
        terms += [synth(table), simplify(synth(table), n)[0]]
    if k:
        terms.append(parse_term(f"t[1](x1,{xs[-1]},e{n})", n))
        terms.append(parse_term(f"and[2](q(x1,{','.join(['e1'] * n)}),{xs[-1]})", n))
    for t in terms:
        entries = _table_by_loop(t, n, k)
        assert table_of_term(t, n, k) == TruthTable(n, k, entries), print_term(t)
        assert verify_term(t, TruthTable(n, k, entries))
        other = tuple(v % n + 1 if s == n**k // 2 else v for s, v in enumerate(entries))
        assert not verify_term(t, TruthTable(n, k, other))
    # a variable beyond x1..xk fails verification; table_of_term reports it unbound
    assert not verify_term(Var(f"x{k + 1}"), TruthTable(n, k, (1,) * n**k))
    with pytest.raises(Exception, match="unbound"):
        table_of_term(Var(f"x{k + 1}"), n, k)
