import itertools

import numpy as np
import pytest

from nbalab import core


def test_generator_carrier_and_selection():
    g = core.generator(3)
    assert g.elements() == ((1,), (2,), (3,))
    # q(e2; a,b,c) = b
    assert g.q((2,), [(1,), (3,), (2,)]) == (3,)
    g2 = core.generator(2)
    assert g2.q((1,), [(2,), (1,)]) == (2,)


def test_generator_rejects_dimension_one():
    with pytest.raises(core.DimensionError):
        core.generator(1)


def test_power_algebra_sizes():
    assert core.power_algebra(3, 2).size == 9
    assert core.power_algebra(2, 3).size == 8
    assert core.power_algebra(3, 0).size == 1


def test_q_eval_pointwise():
    a = core.power_algebra(3, 2)
    # result[p] = ys[x[p]-1][p]
    assert a.q((1, 2), [(3, 3), (1, 1), (2, 2)]) == (3, 1)


def test_q_eval_selects_on_constants():
    a = core.power_algebra(3, 2)
    ys = [(1, 2), (2, 3), (3, 1)]
    for i in range(1, 4):
        assert a.q(a.constant(i), ys) == ys[i - 1]


def test_q_eval_collapses_equal_branches():
    a = core.power_algebra(3, 2)
    for x in a.elements():
        assert a.q(x, [(2, 3)] * 3) == (2, 3)


def test_q_eval_shape_errors():
    a = core.power_algebra(3, 2)
    with pytest.raises(core.ShapeError):
        a.q((1, 2, 3), [(1, 1)] * 3)
    with pytest.raises(core.ShapeError):
        a.q((1, 2), [(1, 1)] * 2)


def test_nsubset_q_on_constant_scrutinee():
    # y0 = e_1 as an n-subset returns the first branch
    pts = frozenset({0, 1})
    y0 = core.nsubset([pts, (), ()])
    ys = [core.nsubset([{0}, {1}, ()]), core.nsubset([(), {0}, {1}]),
          core.nsubset([{1}, (), {0}])]
    assert core.nsubset_q(3, y0, ys) == ys[0]


def test_nsubset_q_empty_scrutinee():
    y0 = core.nsubset([(), (), ()])
    ys = [core.nsubset([{0}, (), ()])] * 3
    assert core.nsubset_q(3, y0, ys) == core.nsubset([(), (), ()])


def test_nsubset_q_matches_q_eval_on_partitions():
    a = core.power_algebra(3, 2)
    els = a.elements()
    for combo in itertools.product(els, repeat=4):
        parts = [core.element_to_partition(e, 3) for e in combo]
        out = core.nsubset_q(3, parts[0], parts[1:])
        assert core.partition_to_element(out, 2) == a.q(combo[0], list(combo[1:]))


def test_subalgebra_closure_constants_only():
    a = core.power_algebra(3, 2)
    c = core.subalgebra_closure(a, [])
    assert c.elements() == ((1, 1), (2, 2), (3, 3))


def test_subalgebra_closure_reaches_full_power():
    a = core.power_algebra(3, 2)
    c = core.subalgebra_closure(a, [(1, 2)])
    assert c.size == 9


def test_subalgebra_closure_idempotent_monotone():
    a = core.power_algebra(3, 2)
    c = core.subalgebra_closure(a, [(1, 2)])
    again = core.subalgebra_closure(a, c.elements())
    assert again.elements() == c.elements()
    smaller = core.subalgebra_closure(a, [])
    assert set(smaller.elements()) <= set(c.elements())


def test_table_of_power_round_trip():
    a = core.power_algebra(2, 2)
    tab = core.table_of_power(a)
    for combo in itertools.product(range(4), repeat=3):
        els = a.elements()
        expect = a.index(a.q(els[combo[0]], [els[c] for c in combo[1:]]))
        assert tab.q_idx(combo[0], list(combo[1:])) == expect


def test_table_algebra_validation():
    with pytest.raises(ValueError):
        core.TableAlgebra(2, 2, (0,), (0,) * 8)  # wrong constant count
    with pytest.raises(ValueError):
        core.TableAlgebra(2, 2, (0, 1), (0,) * 7)  # wrong table length
    with pytest.raises(ValueError):
        core.TableAlgebra(2, 2, (0, 1), (0,) * 7 + (5,))  # entry out of range


def test_json_round_trips():
    for alg in (core.power_algebra(3, 2),
                core.subalgebra_closure(core.power_algebra(3, 2), []),
                core.table_of_power(core.generator(2))):
        back = core.algebra_from_json(alg.to_json())
        assert back.to_json() == alg.to_json()


def test_carrier_must_contain_constants():
    with pytest.raises(ValueError):
        core.PowerAlgebra(3, 2, ((1, 1), (2, 2)))


@pytest.mark.parametrize("alg", [
    core.power_algebra(3, 0),
    core.power_algebra(2, 3),
    core.power_algebra(3, 2),
    core.power_algebra(2, 4),
    core.subalgebra_closure(core.power_algebra(2, 4), [(1, 2, 1, 2)]),
], ids=["3^0", "2^3", "3^2", "2^4", "sub-2^4"])
def test_power_and_its_table_share_one_interface(alg):
    tab = core.table_of_power(alg)
    assert tab.size == alg.size
    for k in range(1, alg.n + 1):
        assert tab.constant_index(k) == alg.constant_index(k) == alg.index(alg.constant(k))
    els = alg.elements()
    expect = [alg.index(alg.q(els[c[0]], [els[b] for b in c[1:]]))
              for c in itertools.product(range(alg.size), repeat=alg.n + 1)]
    assert alg.q_table().ravel().tolist() == expect
    assert np.array_equal(tab.q_table(), alg.q_table())
    rng = np.random.default_rng(11)
    s, *ys = (rng.integers(0, alg.size, 300) for _ in range(alg.n + 1))
    assert np.array_equal(alg.q_vec(s, ys), tab.q_vec(s, ys))


def test_table_algebra_caches_its_q_table():
    tab = core.table_of_power(core.power_algebra(2, 2))
    assert tab.q_table() is tab.q_table()


def test_q_table_on_an_open_carrier_raises():
    alg = core.PowerAlgebra(3, 2, ((1, 1), (1, 2), (2, 2), (3, 3)))
    with pytest.raises(core.ShapeError, match="not closed under q"):
        alg.q_table()
    with pytest.raises(core.ShapeError, match="not closed under q"):
        core.algebra_from_json(alg.to_json())


def test_a_wide_diagonal_has_the_q_table_of_its_classes():
    """The 9-element diagonal of 3^40 with classes 0..38 and 39 is 3^2 index for index;
    base-3 codes of its 40 points would overflow 64 bits."""
    carrier = [(a,) * 39 + (b,) for a in range(1, 4) for b in range(1, 4)]
    alg = core.algebra_from_json({"n": 3, "kind": "subpower", "points": 40,
                                  "carrier": [list(e) for e in carrier]})
    assert np.array_equal(alg.q_table(), core.power_algebra(3, 2).q_table())
    assert core.subalgebra_closure(core.power_algebra(3, 40), carrier[1:2]).carrier == alg.carrier


def test_q_vec_broadcasts_like_the_table_lookup():
    alg = core.power_algebra(3, 2)
    tab = core.table_of_power(alg)
    s = np.arange(9).reshape(9, 1)
    ys = [np.arange(9).reshape(1, 9), np.int64(4), np.full((9, 1), 7)]
    assert alg.q_vec(s, ys).shape == (9, 9)
    assert np.array_equal(alg.q_vec(s, ys), tab.q_vec(s, ys))
