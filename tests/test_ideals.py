import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import nbalab
from nbalab import core, ideals
from nbalab.ideals import (
    Congruence,
    Multideal,
    StoneEmbedding,
    all_congruences,
    all_homs_onto_generator,
    all_proper_multideals,
    all_ultramultideals,
    boolean_ideal_filter_view,
    congruence_generated,
    diagonal_congruence,
    extend_to_ultra,
    hom_of_ultra,
    ideal_closure,
    is_hom_onto_generator,
    is_prime,
    join_congruences,
    multideal_of,
    stone_embed,
    theta_of,
    total_congruence,
    ultra_of_hom,
    validate_multideal,
)

A32 = core.power_algebra(3, 2)
A23 = core.power_algebra(2, 3)


def idx(alg, el):
    return alg.index(el)


def test_congruence_canonical_blocks():
    c1 = Congruence(A32, (5, 5, 2, 2, 2, 9, 9, 9, 9))
    c2 = Congruence(A32, (0, 0, 1, 1, 1, 2, 2, 2, 2))
    assert c1 == c2
    assert c1.num_blocks == 3
    assert c1.block_of(0) == frozenset({0, 1})


def test_congruence_generated_principal():
    # merging two elements that differ at one point collapses that point
    th = congruence_generated(A32, [(idx(A32, (1, 1)), idx(A32, (2, 1)))])
    for a in range(9):
        for b in range(9):
            ea, eb = A32.elements()[a], A32.elements()[b]
            assert th.related(a, b) == (ea[1] == eb[1])
    assert th.is_compatible()


def test_congruence_counts():
    assert len(all_congruences(A32)) == 4
    assert len(all_congruences(A23)) == 8
    assert len(all_congruences(core.generator(3))) == 2


def test_congruence_lattice_structure():
    cons = all_congruences(A32)
    assert cons[0] == diagonal_congruence(A32)
    assert cons[-1] == total_congruence(A32)
    for th in cons:
        assert th.is_compatible()
    # the two point-kernels join to the total congruence
    mids = [th for th in cons if 1 < th.num_blocks < 9]
    assert len(mids) == 2
    assert join_congruences(A32, mids[0], mids[1]) == total_congruence(A32)


def test_multideal_of_congruence():
    th = congruence_generated(A32, [(idx(A32, (1, 1)), idx(A32, (2, 1)))])
    md = multideal_of(th)
    assert not md.degenerate
    # component k = class of e_k: elements with value k at the surviving point
    for k in range(1, 4):
        comp = {A32.elements()[x] for x in md.components[k - 1]}
        assert comp == {e for e in A32.elements() if e[1] == k}
    assert md.is_ultra  # the classes cover all of 3^2


def test_multideal_of_total_is_degenerate():
    md = multideal_of(total_congruence(A32))
    assert md.degenerate and md.warning == "total congruence"


def test_validate_multideal_proper():
    md = multideal_of(theta_of(multideal_of(
        congruence_generated(A32, [(idx(A32, (1, 1)), idx(A32, (2, 1)))]))))
    res = validate_multideal(A32, [sorted(c) for c in md.components])
    assert res.status == "proper"


def test_validate_multideal_minimum():
    comps = [[idx(A32, A32.constant(k))] for k in (1, 2, 3)]
    assert validate_multideal(A32, comps).status == "proper"


def test_validate_multideal_degenerate():
    comps = [[idx(A32, A32.constant(1)), idx(A32, A32.constant(2))],
             [idx(A32, A32.constant(2))], [idx(A32, A32.constant(3))]]
    res = validate_multideal(A32, comps)
    assert res.status == "degenerate"


def test_validate_multideal_m1_and_m2_failures():
    res = validate_multideal(A32, [[], [idx(A32, A32.constant(2))],
                                   [idx(A32, A32.constant(3))]])
    assert res.status == "invalid" and res.clause == "m1"
    # closing under m2 requires more than just the constants plus one element
    comps = [[idx(A32, A32.constant(1)), idx(A32, (1, 2))],
             [idx(A32, A32.constant(2))], [idx(A32, A32.constant(3))]]
    res = validate_multideal(A32, comps)
    assert res.status == "invalid" and res.clause in ("m2", "m3")
    assert res.witness is not None


def test_ideal_closure_matches_congruence_classes():
    seed = [[(1, 2)], [], []]
    md = ideal_closure(A32, seed)
    th = congruence_generated(A32, [(idx(A32, (1, 2)), idx(A32, (1, 1)))])
    assert md == multideal_of(th)
    assert validate_multideal(A32, [sorted(c) for c in md.components])


def test_ideal_closure_degenerate_seed():
    md = ideal_closure(A32, [[(2, 2)], [], []])  # e_2 into component 1
    assert md.degenerate


def test_bijection_round_trips():
    for alg in (A32, A23):
        for th in all_congruences(alg):
            if th.is_total:
                continue
            assert theta_of(multideal_of(th)) == th
        for md in all_proper_multideals(alg):
            assert multideal_of(theta_of(md)) == md


def test_ultramultideal_counts():
    assert len(all_ultramultideals(A32)) == 2
    assert len(all_ultramultideals(A23)) == 3
    assert len(all_ultramultideals(core.power_algebra(3, 3))) == 3
    assert len(all_ultramultideals(core.power_algebra(4, 2))) == 2


def test_ultra_hom_bijection():
    ultras = all_ultramultideals(A32)
    homs = all_homs_onto_generator(A32)
    assert len(ultras) == len(homs)
    assert sorted(hom_of_ultra(u) for u in ultras) == sorted(homs)
    for h in homs:
        u = ultra_of_hom(A32, h)
        assert u.is_ultra and hom_of_ultra(u) == h


@pytest.mark.parametrize("h", [(0,) * 9, (1, 2, 3), (4,) * 9])
def test_ultra_of_hom_refuses_a_map_that_is_no_hom(h):
    with pytest.raises(ValueError):
        ultra_of_hom(A32, h)


def test_all_homs_refuses_homs_that_do_not_separate():
    """2 acts as e1 in the scrutinee: the one hom (1, 2, 1) does not tell 0 from 2."""
    flat = tuple(ys[0] if x in (0, 2) else ys[1] for x, *ys in itertools.product(range(3), repeat=3))
    alg = core.TableAlgebra(2, 3, (0, 1), flat)
    assert [hom_of_ultra(u) for u in all_ultramultideals(alg)] == [(1, 2, 1)]
    with pytest.raises(ValueError, match="not an nBA: its 1 homs onto generator"):
        all_homs_onto_generator(alg)


def test_homs_are_the_point_evaluations():
    homs = all_homs_onto_generator(A32)
    expected = {tuple(e[p] for e in A32.elements()) for p in range(2)}
    assert set(homs) == expected
    for h in homs:
        assert is_hom_onto_generator(A32, h)
    assert not is_hom_onto_generator(A32, tuple([1] * 9))


def test_prime_iff_ultra():
    for md in all_proper_multideals(A32):
        assert is_prime(A32, md) == md.is_ultra


def test_extend_to_ultra():
    for md in all_proper_multideals(A32):
        u = extend_to_ultra(A32, md)
        assert u.is_ultra
        for k in range(3):
            assert md.components[k] <= u.components[k]


def test_stone_embedding_isomorphism():
    for alg in (A32, A23):
        emb = stone_embed(alg)
        assert emb.injective and emb.preserves_q() and emb.is_isomorphism
        assert emb.target.points == len(all_ultramultideals(alg))


def test_stone_embedding_on_proper_subalgebra():
    diag = core.subalgebra_closure(A32, [])
    emb = stone_embed(diag)
    assert emb.injective and emb.preserves_q()


def test_boolean_view_on_2_3():
    for md in all_proper_multideals(A23):
        i2, i1 = boolean_ideal_filter_view(A23, md)
        assert idx(A23, A23.constant(2)) in i2
        assert idx(A23, A23.constant(1)) in i1
    with pytest.raises(core.DimensionError):
        boolean_ideal_filter_view(A32, all_proper_multideals(A32)[0])


A22 = core.power_algebra(2, 2)


def _q_on_all_tuples(alg):
    return [(combo[0], list(combo[1:]), alg.q_idx(combo[0], list(combo[1:])))
            for combo in itertools.product(range(alg.size), repeat=alg.n + 1)]


def test_preserves_q_matches_a_loop_over_every_bijection():
    target = stone_embed(A22).target
    for alg in (A22, core.table_of_power(A22)):
        table = _q_on_all_tuples(alg)
        kept = 0
        for perm in itertools.permutations(target.elements()):
            emb = StoneEmbedding(alg, target, perm)
            by_loop = all(perm[r] == target.q(perm[x], [perm[y] for y in ys])
                          for x, ys, r in table)
            assert emb.preserves_q() == by_loop
            kept += by_loop
        assert kept == 2  # the identity and the swap of the two points


def test_is_compatible_matches_a_loop_over_every_equivalence():
    for alg in (A22, core.table_of_power(A22)):
        table = _q_on_all_tuples(alg)
        found = {Congruence(alg, b) for b in itertools.product(range(4), repeat=4)}
        compatible = 0
        for th in found:
            rep = [c[0] for c in th.classes()]
            by_loop = all(th.related(r, alg.q_idx(rep[th.blocks[x]],
                                                  [rep[th.blocks[y]] for y in ys]))
                          for x, ys, r in table)
            assert th.is_compatible() == by_loop
            compatible += by_loop
        assert len(found) == 15 and compatible == len(all_congruences(alg)) == 4


def test_boolean_view_rejects_a_non_ideal():
    e1, e2 = idx(A23, A23.constant(1)), idx(A23, A23.constant(2))
    fake = Multideal(A23, (frozenset({e1}), frozenset({e2, idx(A23, (1, 2, 2))})))
    with pytest.raises(ValueError, match="Boolean view fails"):
        boolean_ideal_filter_view(A23, fake)


def test_hom_of_ultra_raises_on_a_non_hom_under_python_O():
    code = textwrap.dedent("""
        from nbalab import core, ideals
        u = ideals.Multideal(core.power_algebra(2, 2), (frozenset({0, 1, 2}), frozenset({3})))
        try:
            ideals.hom_of_ultra(u)
        except ValueError:
            print("raised")
    """)
    src = os.path.dirname(os.path.dirname(nbalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.stdout.strip() == "raised", proc.stderr


def test_all_ultramultideals_builds_the_center_once(monkeypatch):
    builds, build = [], ideals.boolean_center

    def counting(alg, cp):
        builds.append(cp)
        return build(alg, cp)

    monkeypatch.setattr(ideals, "boolean_center", counting)
    assert len(all_ultramultideals(core.power_algebra(2, 4))) == 4
    assert len(builds) == 1


def _hom_by_loop(alg, h, table):
    n = alg.n
    return (set(h) == set(range(1, n + 1))
            and all(h[alg.constant_index(k)] == k for k in range(1, n + 1))
            and all(h[r] == h[ys[h[x] - 1]] for x, ys, r in table))


def test_is_hom_onto_generator_matches_a_loop_over_every_map():
    A31 = core.power_algebra(3, 1)
    for alg in (A22, core.table_of_power(A22), A31, core.table_of_power(A31)):
        table = _q_on_all_tuples(alg)
        homs = 0
        for h in itertools.product(range(1, alg.n + 1), repeat=alg.size):
            by_loop = _hom_by_loop(alg, h, table)
            assert is_hom_onto_generator(alg, h) == by_loop, h
            homs += by_loop
        assert homs == {4: 2, 3: 1}[alg.size]  # one hom per point of the power


def test_is_hom_onto_generator_matches_a_loop_on_3_2_and_a_subpower():
    sub = core.subalgebra_closure(A32, [(1, 2)])
    rng = np.random.default_rng(5)
    for alg in (A32, sub):
        table = _q_on_all_tuples(alg)
        maps = [tuple(int(v) for v in rng.integers(1, 4, size=alg.size)) for _ in range(40)]
        homs = all_homs_onto_generator(alg)
        maps += homs + [h[:1] + (h[0] % 3 + 1,) + h[2:] for h in homs]  # one value changed
        for h in maps:
            assert is_hom_onto_generator(alg, h) == _hom_by_loop(alg, h, table), h
        assert homs and all(is_hom_onto_generator(alg, h) for h in homs)


def test_preserves_q_matches_a_loop_over_every_bijection_of_3_1():
    A31 = core.power_algebra(3, 1)
    target = core.power_algebra(3, 1)
    for alg in (A31, core.table_of_power(A31)):
        table = _q_on_all_tuples(alg)
        kept = 0
        for perm in itertools.permutations(target.elements()):
            emb = StoneEmbedding(alg, target, perm)
            by_loop = all(perm[r] == target.q(perm[x], [perm[y] for y in ys])
                          for x, ys, r in table)
            assert emb.preserves_q() == by_loop
            kept += by_loop
        assert kept == 1  # a permutation of the constants preserves q only if it fixes them


# -- checked element conversion at every site that takes elements -----------------


def test_validate_multideal_checks_its_elements():
    e = [int(idx(A23, A23.constant(k))) for k in (1, 2)]
    assert validate_multideal(A23, [[np.int64(e[0])], [np.int64(e[1])]]).status == "proper"
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="out of 0..7"):
            validate_multideal(A23, [[e[0], bad], [e[1]]])


def test_multideal_from_sets_checks_its_elements():
    e = [int(idx(A23, A23.constant(k))) for k in (1, 2)]
    md = ideals.multideal_from_sets(A23, [[np.int64(e[0])], [(2, 2, 2)]])
    assert md.components == (frozenset({e[0]}), frozenset({e[1]}))
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="out of 0..7"):
            ideals.multideal_from_sets(A23, [[e[0]], [e[1], bad]])


def test_ideal_closure_checks_its_elements():
    seed = idx(A23, (1, 2, 2))
    assert ideal_closure(A23, [[np.int64(seed)], []]) == ideal_closure(A23, [[(1, 2, 2)], []])
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="out of 0..7"):
            ideal_closure(A23, [[bad], []])
