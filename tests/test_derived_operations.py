"""The derived operations are defined once, in nbalab.terms, and every reader agrees.

The five binary operations have three readers: terms.elaborate (through
eval_term), transforms.derived_bin and skew.reduct.  Each is checked against
the definitions written out as t_d, on every kind, every valid subscript d of
{1, 2, 3} and every pair of elements of 3^2.  derived_bin takes an explicit i
only in d and j only outside it, and perm_apply only a permutation of 1..n.
The term walk, the branch layout of t_d and the skew-star nesting are pinned
on small cases.
"""

import itertools
import sys

import pytest

from nbalab import core, skew, terms, transforms
from nbalab.terms import BIN_KINDS, Bin, Const, Q, T, TermError, Var, parse_term, print_term
from nbalab.transforms import derived_bin, t_eval

ALG = core.power_algebra(3, 2)
PAIRS = list(itertools.product(ALG.elements(), repeat=2))
SUBSETS = [frozenset(c) for r in (1, 2, 3) for c in itertools.combinations((1, 2, 3), r)]

# kind -> (derived_bin's name, x op_d y as t_d given 0_i and 1_j)
DEFINITIONS = {
    "and": ("meet", lambda d, x, y, zero, one: t_eval(d, x, y, zero, ALG)),
    "or": ("join", lambda d, x, y, zero, one: t_eval(d, x, one, y, ALG)),
    "sub": ("minus", lambda d, x, y, zero, one: t_eval(d, y, zero, x, ALG)),
    "bw": ("barwedge", lambda d, x, y, zero, one: t_eval(d, x, y, x, ALG)),
    "bv": ("barvee", lambda d, x, y, zero, one: t_eval(d, x, x, y, ALG)),
}


def definition(kind, d, x, y):
    """x kind_d y by its definition, with i = min(d) and j the least index outside d."""
    outside = sorted({1, 2, 3} - d)
    one = ALG.constant(outside[0]) if outside else None
    return DEFINITIONS[kind][1](d, x, y, ALG.constant(min(d)), one)


def binary(kind, d):
    return Bin(kind, frozenset(d), Var("x"), Var("y"))


def test_one_table_names_the_five_kinds():
    assert BIN_KINDS == tuple(terms.BINARY) == tuple(DEFINITIONS)
    assert transforms.BIN_NAMES == {name: kind for kind, (name, _) in DEFINITIONS.items()}


@pytest.mark.parametrize("kind", BIN_KINDS)
def test_derived_bin_and_elaboration_agree_with_the_definitions(kind):
    name = DEFINITIONS[kind][0]
    checked = 0
    for d in SUBSETS:
        if kind == "or" and d == {1, 2, 3}:
            continue  # or_d needs an index outside d
        for x, y in PAIRS:
            want = definition(kind, d, x, y)
            assert derived_bin(name, d, x, y, ALG) == want, (d, x, y)
            assert terms.eval_term(binary(kind, d), {"x": x, "y": y}, ALG) == want, (d, x, y)
            checked += 1
    assert checked == (6 if kind == "or" else 7) * len(PAIRS)


@pytest.mark.parametrize("i", (1, 2, 3))
def test_skew_reduct_tables_are_and_bv_sub(i):
    sk = skew.reduct(ALG, "skew", i)
    for table, kind in ((sk.meet, "and"), (sk.join, "bv"), (sk.minus, "sub")):
        for x, y in PAIRS:
            want = terms.eval_term(binary(kind, {i}), {"x": x, "y": y}, ALG)
            assert want == definition(kind, frozenset({i}), x, y)
            assert table[ALG.index(x), ALG.index(y)] == ALG.index(want), (kind, x, y)


def test_join_without_an_outside_index_fails_even_with_j():
    with pytest.raises(ValueError, match="join needs an index outside d"):
        derived_bin("join", {1, 2, 3}, (1, 1), (2, 2), ALG, j=2)
    with pytest.raises(TermError, match="or needs an index outside the subscript"):
        terms.elaborate(binary("or", {1, 2, 3}), 3)


@pytest.mark.parametrize("kind", sorted(DEFINITIONS))
@pytest.mark.parametrize("ij", [{"j": 1}, {"i": 2}, {"i": 2, "j": 3}, {"i": 1, "j": 1}])
def test_derived_bin_refuses_i_outside_d_or_j_inside_d(kind, ij):
    # with j = 1 the join's "one", e_1, would lie in d = {1}
    name, as_t = DEFINITIONS[kind]
    with pytest.raises(ValueError, match="^need i in d and j outside d$"):
        derived_bin(name, {1}, (2, 3), (3, 2), ALG, **ij)
    # an explicit i in d and j outside d are taken as given
    d, x, y = frozenset({1, 2}), (2, 3), (3, 2)
    want = as_t(d, x, y, ALG.constant(2), ALG.constant(3))
    assert derived_bin(name, d, x, y, ALG, i=2, j=3) == want


@pytest.mark.parametrize("images", [(1, 2), (2, 1, 3, 4)])
def test_perm_apply_refuses_a_permutation_of_another_degree(images):
    # (1, 2) on 3^2 used to raise a bare IndexError, (2, 1, 3, 4) to return (2, 1)
    with pytest.raises(ValueError, match=rf"^a permutation of 1..{len(images)}, not of 1..3$"):
        transforms.perm_apply((1, 2), transforms.Permutation(images), ALG)


def test_t_branches_put_z_at_the_indices_in_d():
    assert terms.t_branches(4, {2, 4}, "y", "z") == ("y", "z", "y", "z")
    assert terms.t_branches(2, {1, 2}, "y", "z") == ("z", "z")


def test_star_chain_nests_t1_outermost():
    t = lambda s, x, a, b: f"t{s}({x},{a},{b})"
    assert terms.star_chain(t, "x", ["y1", "y2", "y3"]) == "t1(x,t2(x,y3,y2),y1)"
    assert terms.star_chain(t, "x", ["y1"]) == "y1"


def test_skew_star_rows_use_the_nesting():
    rows = {ax.name: ax for ax in skew.skew_star_axioms(skew.star_of(ALG))}
    assert rows["N2"].lhs == ("t1", "x", ("t2", "x", "03", "02"), "01")
    assert rows["N4[2]"].lhs == ("t1", "x", ("t2", "x", ("t3", "x", "y", "y"), "z"), "y")
    assert rows["N4[3]"].lhs == ("t1", "x", ("t2", "x", ("t3", "x", "y", "z"), "y"), "y")


def test_children_follow_the_node_layout():
    x, y, z = Var("x"), Var("y"), Var("z")
    assert terms.children(Q(x, (y, z))) == (x, y, z)
    assert terms.children(T(frozenset({1}), x, y, z)) == (x, y, z)
    assert terms.children(Bin("sub", frozenset({1}), y, x)) == (y, x)
    assert terms.children(x) == terms.children(Const(1)) == ()


def test_subterms_walk_in_preorder():
    t = parse_term("q(t[1](x,y,e1),bw[2](z,x),w)", 2)
    assert [print_term(s) for s in terms.subterms(t)] == [
        "q(t[1](x,y,e1),bw[2](z,x),w)", "t[1](x,y,e1)", "x", "y", "e1", "bw[2](z,x)", "z",
        "x", "w"]


def test_free_vars_of_a_term_deeper_than_the_recursion_limit():
    t = Var("x0")
    for k in range(sys.getrecursionlimit() + 100):
        t = T(frozenset({1}), t, Var(f"x{k % 7}"), Var("y"))
    assert terms.free_vars(t) == ["x0", "y"] + [f"x{k}" for k in range(1, 7)]
