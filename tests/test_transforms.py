import itertools

import pytest

from nbalab import core, terms
from nbalab.terms import eval_term, parse_term, print_term
from nbalab.transforms import (
    CenterParams,
    Permutation,
    all_permutations,
    central_retract,
    coordinates,
    derived_bin,
    perm_apply,
    plus_i,
    reconstruct,
    reconstruct_parenthesized,
    t_eval,
    translate_term,
    transposition,
)


ALG = core.power_algebra(3, 2)


def test_t_eval_singleton():
    # t_1(x, y, z) = q(x, z, y, y)
    x, y, z = (1, 2), (3, 3), (2, 1)
    assert t_eval({1}, x, y, z, ALG) == ALG.q(x, [z, y, y])


def test_t_eval_rejects_bad_subscripts():
    with pytest.raises(ValueError):
        t_eval(set(), (1, 1), (1, 1), (1, 1), ALG)
    with pytest.raises(ValueError):
        t_eval({4}, (1, 1), (1, 1), (1, 1), ALG)


def test_derived_bin_defaults():
    x, y = (1, 2), (3, 1)
    assert derived_bin("meet", {2, 3}, x, y, ALG) == t_eval({2, 3}, x, y, ALG.constant(2), ALG)
    assert derived_bin("join", {1}, x, y, ALG) == t_eval({1}, x, ALG.constant(2), y, ALG)
    # x minus_d y = t_d(y, 0_i, x)
    assert derived_bin("minus", {1}, x, y, ALG) == t_eval({1}, y, ALG.constant(1), x, ALG)
    assert derived_bin("barwedge", {2}, x, y, ALG) == t_eval({2}, x, y, x, ALG)
    assert derived_bin("barvee", {2}, x, y, ALG) == t_eval({2}, x, x, y, ALG)


def test_derived_bin_join_needs_outside_index():
    with pytest.raises(ValueError):
        derived_bin("join", {1, 2, 3}, (1, 1), (2, 2), ALG)


def test_join_agrees_with_barvee_on_center_elements():
    # t_i(x, x, y) = t_i(x, e_j, y) when x only takes the values i and j;
    # for n = 2 that is every element
    for x, y in itertools.product(ALG.elements(), repeat=2):
        if set(x) <= {1, 2}:
            bv = derived_bin("barvee", {1}, x, y, ALG)
            assert derived_bin("join", {1}, x, y, ALG, j=2) == bv
        if set(x) <= {1, 3}:
            bv = derived_bin("barvee", {1}, x, y, ALG)
            assert derived_bin("join", {1}, x, y, ALG, j=3) == bv
    alg2 = core.power_algebra(2, 2)
    for x, y in itertools.product(alg2.elements(), repeat=2):
        assert (derived_bin("join", {1}, x, y, alg2)
                == derived_bin("barvee", {1}, x, y, alg2))


def test_permutation_validation_and_composition():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    s = transposition(3, 1, 2)
    t = transposition(3, 2, 3)
    st = s.compose(t)
    assert [st(k) for k in (1, 2, 3)] == [s(t(1)), s(t(2)), s(t(3))]
    assert len(all_permutations(3)) == 6


def test_perm_apply_pointwise():
    s = transposition(3, 1, 3)
    assert perm_apply((1, 2), s, ALG) == (3, 2)
    # identity permutation is the identity map
    ident = Permutation((1, 2, 3))
    for x in ALG.elements():
        assert perm_apply(x, ident, ALG) == x


def test_coordinates_and_reconstruct_round_trip():
    cp = CenterParams(1, 2)
    for x in ALG.elements():
        coords = coordinates(x, cp, ALG)
        assert reconstruct(coords, cp.i, ALG) == x


def test_coordinates_known_value():
    cp = CenterParams(1, 2)
    # x = [2,3]: x_k flags the points where x carries value k
    assert coordinates((2, 3), cp, ALG) == [(1, 1), (2, 1), (1, 2)]


def test_plus_i_laws():
    i = 1
    e1 = ALG.constant(1)
    for x, y in itertools.product(ALG.elements(), repeat=2):
        assert plus_i(x, y, i, ALG) == plus_i(y, x, i, ALG)
        assert plus_i(x, e1, i, ALG) == x
        assert plus_i(x, x, i, ALG) == e1


def test_reconstruct_parenthesized_orders_agree():
    cp = CenterParams(1, 2)
    for x in ALG.elements():
        coords = coordinates(x, cp, ALG)
        for order in [(0, 0), (1, 0)]:
            assert reconstruct_parenthesized(coords, 1, ALG, order) == x


def test_translate_to_q_matches_semantics():
    t = parse_term("bw[2](x,sub[1](y,z))", 3)
    out = translate_term(t, "q", 3)
    for env_vals in itertools.product(ALG.elements(), repeat=3):
        env = dict(zip("xyz", env_vals))
        assert eval_term(out, env, ALG) == eval_term(t, env, ALG)


def test_translate_to_star_only_t_nodes():
    t = parse_term("q(x,y,z,w)", 3)
    out = translate_term(t, "star", 3)
    assert print_term(out) == "t[1](x,t[2](x,w,z),y)"
    for env_vals in itertools.product(core.generator(3).elements(), repeat=4):
        env = dict(zip("xyzw", env_vals))
        assert eval_term(out, env, core.generator(3)) == eval_term(t, env, core.generator(3))


def test_translate_to_skew_dictionary():
    t = parse_term("t[1](x,y,z)", 3)
    out = translate_term(t, "skew", 3, i=1)
    assert print_term(out) == "bv[1](and[1](x,y),sub[1](z,x))"
    for env_vals in itertools.product(ALG.elements(), repeat=3):
        env = dict(zip("xyz", env_vals))
        assert eval_term(out, env, ALG) == eval_term(t, env, ALG)


def test_translate_to_skew_rejects_foreign_material():
    with pytest.raises(terms.TermError):
        translate_term(parse_term("t[2](x,y,z)", 3), "skew", 3, i=1)
    with pytest.raises(terms.TermError):
        translate_term(parse_term("q(x,y,z,w)", 3), "skew", 3, i=1)
    with pytest.raises(terms.TermError):
        translate_term(parse_term("or[1](x,y)", 3), "skew", 3, i=1)


def test_to_skew_admits_exactly_the_skew_kinds():
    fam = frozenset({1})
    for kind in terms.BIN_KINDS:
        t = terms.Bin(kind, fam, terms.Var("x"), terms.Var("y"))
        if kind in terms.SKEW_KINDS:
            assert translate_term(t, "skew", 3, i=1) == t
        else:
            with pytest.raises(terms.TermError, match="outside the skew signature"):
                translate_term(t, "skew", 3, i=1)
    with pytest.raises(terms.TermError, match="outside the skew signature"):  # hand-built
        translate_term(terms.Bin("xor", fam, terms.Var("x"), terms.Var("y")), "skew", 3, i=1)


def test_central_retract_idempotent_and_fixes_center():
    d, i, j = {1}, 1, 2
    for x in ALG.elements():
        c = central_retract(ALG, d, i, j, x)
        assert central_retract(ALG, d, i, j, c) == c
    with pytest.raises(ValueError):
        central_retract(ALG, {2}, 1, 3, (1, 1))


@pytest.mark.parametrize("count", [2, 4], ids=["n-1", "n+1"])
def test_reconstruct_rejects_a_wrong_coordinate_count(count):
    x, cp = (2, 3), CenterParams(1, 2)
    coords = (coordinates(x, cp, ALG) * 2)[:count]
    with pytest.raises(core.ShapeError, match="expected 3 coordinates"):
        reconstruct_parenthesized(coords, cp.i, ALG, range(count - 1))
    with pytest.raises(core.ShapeError, match="expected 3 coordinates"):
        reconstruct(coords, cp.i, ALG)
