"""The Stone map of a power or subpower takes its homs from the certificate.

On a power or subpower n^j, the homs the ultramultideals induce are the coordinate
projections, which the closed-form Stone certificate lists.  `ideals._ultra_homs`
accepts a hom that is a certificate column plus 1 with no q-table check; any other
hom, and every hom of a table, goes through `hom_of_ultra` and its whole-table check.
The oracle is the generic form, `hom_of_ultra` of each ultramultideal.

Also covered, each against the form it replaces:
- `all_ultramultideals` runs `admissible_atoms` once, for the minimum multideal;
- `StoneEmbedding.preserves_q` turns its images into target indices in one pass;
- `algebra_from_json` reads a subpower's carrier in one pass.
"""

import itertools
import random

import numpy as np
import pytest

from nbalab import core, ideals, skew
from nbalab.transforms import CenterParams
from test_array_closures import SUB24, SUB33
from test_certified_structure import shuffled_table


def oracle_ultra_homs(alg):
    """hom_of_ultra over all_ultramultideals: every hom checked on the whole q table."""
    return [ideals.hom_of_ultra(u) for u in ideals.all_ultramultideals(alg)]


def oracle_images(alg):
    homs = oracle_ultra_homs(alg)
    return tuple(tuple(h[x] for h in homs) for x in range(alg.size))


LADDER = [(3, 2), (2, 4), (2, 5), (4, 2), (3, 3), (2, 6)]
MAKERS = {
    **{f"{n}^{m}": (lambda n=n, m=m: core.power_algebra(n, m))
       for n, m in [(2, 1), (3, 1), (2, 0), (3, 0), *LADDER]},
    "sub 2^4": lambda: core.PowerAlgebra(2, 4, SUB24.carrier),
    "sub 3^3": lambda: core.PowerAlgebra(3, 3, SUB33.carrier),
    "3^2 shuffle 1": lambda: shuffled_table(core.power_algebra(3, 2), 1),
    "2^4 shuffle 2": lambda: shuffled_table(core.power_algebra(2, 4), 2),
}


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
def test_the_homs_and_the_embedding_are_the_oracles(make):
    want = oracle_ultra_homs(make())
    alg = make()
    assert ideals._ultra_homs(alg) == want
    emb = ideals.stone_embed(alg)
    assert emb.images == oracle_images(make())
    assert emb.target == core.power_algebra(alg.n, len(want))
    oracle = ideals.StoneEmbedding(alg, emb.target, oracle_images(make()))
    assert emb.preserves_q() and oracle.preserves_q()


def count_checks(monkeypatch):
    calls, check = [], ideals._preserves_q
    monkeypatch.setattr(ideals, "_preserves_q",
                        lambda alg, img, target: calls.append(target) or check(alg, img, target))
    return calls


POWERS_AND_SUBPOWERS = [name for name in MAKERS if "shuffle" not in name]


@pytest.mark.parametrize("name", POWERS_AND_SUBPOWERS)
def test_a_power_or_subpower_is_embedded_with_no_q_table_check(name, monkeypatch):
    calls = count_checks(monkeypatch)
    alg = MAKERS[name]()
    emb = ideals.stone_embed(alg)
    assert calls == []
    assert emb.preserves_q() and len(calls) == 1


@pytest.mark.parametrize("n, m", [(4, 2), (3, 3), (2, 6), (3, 4), (2, 8)])
def test_a_power_past_the_gather_bound_builds_no_q_table(n, m, monkeypatch):
    """q_vec runs the digit kernel on these, so only a check of a hom would build it."""
    calls = count_checks(monkeypatch)
    alg = core.power_algebra(n, m)
    emb = ideals.stone_embed(alg)
    assert calls == [] and "qtab" not in alg._cache
    assert emb.is_isomorphism and emb.target.points == m
    # the homs are the m coordinate projections, in some order
    assert sorted(zip(*emb.images)) == sorted(zip(*alg.elements()))


def test_3_to_the_4_gives_its_4_coordinates():
    alg = core.power_algebra(3, 4)
    emb = ideals.stone_embed(alg)
    assert emb.target.points == 4 and emb.is_isomorphism and "qtab" not in alg._cache


@pytest.mark.parametrize("n, m, seed", [(2, 3, 5), (3, 2, 1), (2, 4, 2)])
def test_a_table_checks_each_hom_on_its_table(n, m, seed, monkeypatch):
    calls = count_checks(monkeypatch)
    ideals.stone_embed(shuffled_table(core.power_algebra(n, m), seed))
    assert calls == [core.generator(n)] * m


def test_a_hom_that_is_no_column_goes_through_hom_of_ultra(monkeypatch):
    """With each column's digits shifted, no hom is a column: every one is checked."""
    want, digits = oracle_ultra_homs(core.power_algebra(3, 2)), ideals._digits
    monkeypatch.setattr(ideals, "_digits", lambda alg: (digits(alg) + 1) % alg.n)
    calls = count_checks(monkeypatch)
    assert ideals._ultra_homs(core.power_algebra(3, 2)) == want
    assert calls == [core.generator(3)] * 2


def test_a_refused_hom_raises_hom_of_ultras_error():
    """One changed entry of 2^2's table: an ultramultideal's map is no hom."""
    alg = core.table_of_power(core.power_algebra(2, 2)).mutate((0, 0, 1), 1)
    with pytest.raises(ValueError, match="induces no homomorphism onto the generator"):
        oracle_ultra_homs(alg)
    for _ in range(2):  # the error is kept and raised again
        with pytest.raises(ValueError, match="induces no homomorphism onto the generator"):
            ideals._ultra_homs(alg)


# -- all_ultramultideals runs admissible_atoms once ----------------------------


def oracle_all_ultramultideals(alg):
    """extend_to_ultra of the minimum multideal over each atom of B_12."""
    cp = CenterParams(1, 2)
    bc, _ = ideals._center(alg, cp)
    minimum = ideals.Multideal(alg, tuple(frozenset({alg.constant_index(k)})
                                          for k in range(1, alg.n + 1)))
    seen = {}
    for atom in bc.atoms():
        u = ideals.extend_to_ultra(alg, minimum, cp, atom)
        seen.setdefault(u.components, u)
    return sorted(seen.values(), key=lambda u: tuple(sorted(u.components[0])))


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
def test_all_ultramultideals_reads_the_atoms_once(make, monkeypatch):
    want = [u.components for u in oracle_all_ultramultideals(make())]
    admissible, atoms = ideals.admissible_atoms, skew.BooleanCenter.atoms
    calls = []
    monkeypatch.setattr(ideals, "admissible_atoms",
                        lambda *a: calls.append("admissible") or admissible(*a))
    monkeypatch.setattr(skew.BooleanCenter, "atoms",
                        lambda bc: calls.append("atoms") or atoms(bc))
    assert [u.components for u in ideals.all_ultramultideals(make())] == want
    assert sorted(calls) == ["admissible", "atoms", "atoms"]


def test_extend_to_ultra_keeps_its_checks():
    alg = core.power_algebra(2, 3)
    md = ideals.multideal_of(ideals.congruence_generated(alg, [(0, 1)]))
    bc, _ = ideals._center(alg, CenterParams(1, 2))
    admissible = ideals.admissible_atoms(alg, md)
    other = next(a for a in bc.atoms() if a not in admissible)
    with pytest.raises(ValueError, match=f"atom {other} does not extend the multideal"):
        ideals.extend_to_ultra(alg, md, atom=other)
    with pytest.raises(ValueError, match="cannot extend the degenerate multideal"):
        ideals.extend_to_ultra(alg, ideals.degenerate_multideal(alg))
    everything = ideals.Multideal(alg, (frozenset(range(alg.size)), frozenset()))
    with pytest.raises(ValueError, match="no admissible atom"):
        ideals.extend_to_ultra(alg, everything)


# -- preserves_q reads its images in one pass ---------------------------------


def by_index(emb):
    """The per-element form: target.index of each image."""
    img = np.asarray([emb.target.index(e) for e in emb.images], dtype=np.int64)
    return ideals._preserves_q(emb.alg, img, emb.target)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 1), (2, 3)])
def test_preserves_q_equals_the_per_element_form(n, m, monkeypatch):
    alg = core.power_algebra(n, m)
    target = ideals.stone_embed(alg).target
    rng = random.Random(n * 10 + m)
    maps = [tuple(rng.choice(target.elements()) for _ in range(alg.size)) for _ in range(20)]
    maps += [tuple(p) for p in itertools.islice(itertools.permutations(target.elements()), 20)]
    embs = [ideals.StoneEmbedding(alg, target, images) for images in maps]
    want = [by_index(emb) for emb in embs]
    assert any(want) and not all(want)
    index, looked_up = core.PowerAlgebra.index, []
    monkeypatch.setattr(core.PowerAlgebra, "index",
                        lambda self, el: looked_up.append(el) or index(self, el))
    assert [emb.preserves_q() for emb in embs] == want
    assert looked_up == []


@pytest.mark.parametrize("bad", [(1, 0), (3, 1), (2.0, 1), (1,), (1, 2, 1), ("1", "2"), (1, (2,))],
                         ids=repr)
def test_a_bad_image_raises_the_per_element_error(bad):
    alg = core.power_algebra(2, 2)
    target = ideals.stone_embed(alg).target
    images = list(target.elements())
    images[2] = bad
    emb = ideals.StoneEmbedding(alg, target, tuple(images))
    with pytest.raises(core.ShapeError) as want:
        by_index(emb)
    with pytest.raises(core.ShapeError) as got:
        emb.preserves_q()
    assert str(got.value) == str(want.value)


def test_a_subpower_target_reads_its_images_by_index():
    emb = ideals.stone_embed(core.power_algebra(2, 1))
    sub = core.PowerAlgebra(2, 1, ((1,), (2,)))
    assert ideals.StoneEmbedding(emb.alg, sub, emb.images).preserves_q()


# -- algebra_from_json reads a subpower's carrier in one pass -------------------


def oracle_from_json(obj):
    """One json_ints per element, then PowerAlgebra orders the tuples."""
    carrier = obj["carrier"]
    if not isinstance(carrier, list):
        raise ValueError(f"carrier must be a list of elements, got {carrier!r:.60}")
    alg = core.PowerAlgebra(core.json_int(obj["n"], "n"), core.json_int(obj["points"], "points"),
                            tuple(core.json_ints(e, "a carrier element") for e in carrier))
    alg._power()
    return alg


def subpower(alg, carrier=None):
    return {"n": alg.n, "kind": "subpower", "points": alg.points,
            "carrier": [list(e) for e in (alg.carrier if carrier is None else carrier)]}


def shuffled(alg, seed):
    return random.Random(seed).sample(alg.carrier, len(alg.carrier))


GOOD = {
    "sub 2^4": subpower(SUB24),
    "sub 3^3 shuffled": subpower(SUB33, shuffled(SUB33, 1)),
    "sub 3^3 with repeats": subpower(SUB33, shuffled(SUB33, 2) + list(SUB33.carrier[:5])),
    "2^16 of 2^20": {"n": 2, "kind": "subpower", "points": 20,
                     "carrier": [[v[p % 16] for p in range(20)]
                                 for v in itertools.product((1, 2), repeat=16)]},
    "n = 300": {"n": 300, "kind": "subpower", "points": 2,
                "carrier": [[k, k] for k in range(300, 0, -1)]},
}


@pytest.mark.parametrize("obj", GOOD.values(), ids=GOOD.keys())
def test_a_subpower_is_read_as_before(obj, monkeypatch):
    want = oracle_from_json(obj)
    calls, json_ints = [], core.json_ints
    monkeypatch.setattr(core, "json_ints", lambda *a: calls.append(a) or json_ints(*a))
    got = core.algebra_from_json(obj)
    assert got.carrier == want.carrier and calls == []
    assert all(type(v) is int for e in got.carrier for v in e)
    assert np.array_equal(got._values(), want._values()) and got._values().dtype == np.int64
    assert got._power() == want._power()


def test_rows_of_no_values_are_read_element_by_element():
    obj = {"n": 2, "kind": "subpower", "points": 0, "carrier": [[], []]}
    assert core.algebra_from_json(obj).carrier == oracle_from_json(obj).carrier == ((),)


def with_element(obj, pos, element):
    carrier = [list(e) for e in obj["carrier"]]
    carrier[pos] = element
    return {**obj, "carrier": carrier}


BASE = subpower(SUB33, shuffled(SUB33, 3))
BAD = {
    "string": with_element(BASE, 4, [1, "2", 3]),
    "boolean": with_element(BASE, 4, [1, True, 3]),
    "float": with_element(BASE, 4, [1, 2.0, 3]),
    "nested": with_element(BASE, 4, [1, [2], 3]),
    "element not a list": with_element(BASE, 4, 7),
    "short element": with_element(BASE, 4, [1, 2]),
    "long element": with_element(BASE, 4, [1, 2, 3, 1]),
    "value 0": with_element(BASE, 4, [1, 0, 3]),
    "value 4": with_element(BASE, 4, [1, 4, 3]),
    "value 2^70": with_element(BASE, 4, [1, 2**70, 3]),
    "value 2^63": with_element(BASE, 4, [1, 2**63, 3]),
    "two bad elements": with_element(with_element(BASE, 4, [1, 2]), 1, [3, 0, 1]),
    "not closed": subpower(SUB24, [*shuffled(SUB24, 4), (1, 1, 1, 2)]),
    "no constant": subpower(SUB33, [e for e in SUB33.carrier if e != (2, 2, 2)]),
    "empty": {**BASE, "carrier": []},
    "negative points": {**BASE, "points": -1},
    "dimension 1": {"n": 1, "kind": "subpower", "points": 1, "carrier": [[1]]},
    "carrier not a list": {**BASE, "carrier": "[[1]]"},
}


@pytest.mark.parametrize("obj", BAD.values(), ids=BAD.keys())
def test_a_bad_subpower_gives_the_same_error(obj):
    try:
        oracle_from_json(obj)
        want = None
    except ValueError as exc:
        want = (type(exc), str(exc))
    try:
        core.algebra_from_json(obj)
        got = None
    except ValueError as exc:
        got = (type(exc), str(exc))
    assert want is not None and got == want
