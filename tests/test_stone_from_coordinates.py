"""The Stone map of a power or subpower is its coordinates.

On a power or subpower, coordinates() is the n^k whose digits are the carrier indices'
coordinates, and the homs the ultramultideals induce are exactly its projections.  So
`ideals._ultra_homs` reads them off `_digits` with no Boolean center, t table or
ultramultideal, and `stone_embed` takes coordinates() itself as its target, so that
`preserves_q` reads one q table.  The oracle is the generic form, `hom_of_ultra` of each
ultramultideal, which a table still takes.
"""

import pytest

from nbalab import core, ideals, skew
from nbalab.transforms import CenterParams
from test_array_closures import SUB24, SUB33
from test_certified_structure import shuffled_table


def oracle_ultra_homs(alg):
    """hom_of_ultra over all_ultramultideals: the center, its atoms and a q-table check per hom."""
    return [ideals.hom_of_ultra(u) for u in ideals.all_ultramultideals(alg)]


def images_of(alg, homs):
    return tuple(tuple(h[x] for h in homs) for x in range(alg.size))


LADDER = [(3, 2), (2, 4), (2, 5), (4, 2), (3, 3), (2, 6)]
MAKERS = {
    **{f"{n}^{m}": (lambda n=n, m=m: core.power_algebra(n, m))
       for n, m in [(2, 0), (3, 0), (2, 1), (3, 1), *LADDER]},
    "sub 2^4": lambda: core.PowerAlgebra(2, 4, SUB24.carrier),
    "sub 3^3": lambda: core.PowerAlgebra(3, 3, SUB33.carrier),
}


def refuse(*_args, **_kwargs):
    raise AssertionError("a patched-out step was reached")


def center_keys(alg):
    return [key for key in alg._cache if isinstance(key, tuple) and key[0] == "center"]


def no_center(monkeypatch):
    for owner, name in ((ideals, "all_ultramultideals"), (ideals, "boolean_center"),
                        (skew, "_t_table")):
        monkeypatch.setattr(owner, name, refuse)


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
def test_the_homs_and_images_are_the_oracles_with_no_center(make, monkeypatch):
    want = oracle_ultra_homs(make())
    no_center(monkeypatch)
    alg = make()
    assert ideals._ultra_homs(alg) == want
    emb = ideals.stone_embed(alg)
    assert emb.images == images_of(alg, want)
    assert emb.target is alg.coordinates()
    assert emb.is_isomorphism
    assert center_keys(alg) == []


def count_q_codes(monkeypatch):
    calls, q_codes = [], core.PowerAlgebra._q_codes
    monkeypatch.setattr(core.PowerAlgebra, "_q_codes",
                        lambda self, s, b: calls.append(self) or q_codes(self, s, b))
    return calls


@pytest.mark.parametrize("name", ["2^4", "3^2", "sub 2^4"])
def test_preserves_q_builds_one_q_table(name, monkeypatch):
    calls = count_q_codes(monkeypatch)
    alg = MAKERS[name]()
    emb = ideals.stone_embed(alg)
    assert calls == []
    assert emb.preserves_q()
    assert calls == [alg.coordinates()] and "qtab" in alg.coordinates()._cache
    # a fresh n^k as the target, as before, builds a second, equal table
    fresh = core.PowerAlgebra(alg.n, emb.target.points)
    assert ideals.StoneEmbedding(alg, fresh, emb.images).preserves_q()
    assert len(calls) == 2 and calls[1] is fresh


@pytest.mark.parametrize("n, m", [(3, 4), (2, 8)])
def test_the_images_of_a_large_power_are_its_coordinates(n, m, monkeypatch):
    if (n, m) == (3, 4):  # the oracle checks its first hom on the q table of 81^4 entries
        with pytest.raises(ValueError, match="the q table over carrier size 81"):
            oracle_ultra_homs(core.power_algebra(n, m))
    no_center(monkeypatch)
    alg = core.power_algebra(n, m)
    emb = ideals.stone_embed(alg)
    assert emb.images == alg.elements()
    assert emb.target is alg
    assert center_keys(alg) == [] and "qtab" not in alg._cache


def test_digits_that_miss_a_constant_take_the_generic_path(monkeypatch):
    """Shifted by one, the columns send e_k to k + 1: the ultramultideals give the homs."""
    want = oracle_ultra_homs(core.power_algebra(3, 2))
    digits, generic = ideals._digits, ideals.all_ultramultideals
    monkeypatch.setattr(ideals, "_digits", lambda alg: (digits(alg) + 1) % alg.n)
    calls = []
    monkeypatch.setattr(ideals, "all_ultramultideals", lambda alg: calls.append(alg) or generic(alg))
    alg = core.power_algebra(3, 2)
    assert ideals._ultra_homs(alg) == want and calls == [alg]
    assert ideals.stone_embed(alg).images == images_of(alg, want)


@pytest.mark.parametrize("m", [10, 40])
def test_the_t_table_bound_comes_before_the_digits(m, monkeypatch):
    """nba embed of 2^10 and 2^40 stops where nba ultras does, at the center's t table."""
    monkeypatch.setattr(ideals, "_digits", refuse)
    alg = core.power_algebra(2, m)
    for _ in range(2):  # the error is kept and raised again
        with pytest.raises(ValueError, match=f"a t table over carrier size {2**m} needs"):
            ideals.stone_embed(alg)
    assert set(alg._cache) == {"ultra_homs"}


@pytest.mark.parametrize("n, m, seed", [(2, 3, 5), (3, 2, 1)])
def test_a_table_keeps_the_ultramultideal_path(n, m, seed):
    want = oracle_ultra_homs(shuffled_table(core.power_algebra(n, m), seed))
    alg = shuffled_table(core.power_algebra(n, m), seed)
    emb = ideals.stone_embed(alg)
    assert alg.coordinates() is None
    assert emb.target == core.power_algebra(n, m) and emb.target is not alg
    assert emb.images == images_of(alg, want)
    assert center_keys(alg) == [("center", CenterParams(1, 2))]
