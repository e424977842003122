"""Structure read off a Stone certificate against the generic engine.

A power, a subpower or a table isomorphic to n^k (k >= 1) has a Stone
certificate: the coordinates of each element in n^k.  all_congruences,
congruence_generated and all_homs_onto_generator read their answers off it.
The generic engine works from the q table alone (the per-pair loop, the
whole-table rounds and the ultramultideal homs) and is the oracle here: on
every certified input both must give the same blocks in the same order.
"""

import itertools
import random

import numpy as np
import pytest

from nbalab import core, ideals
from nbalab.ideals import (all_congruences, all_homs_onto_generator, congruence_generated,
                           stone_certificate)


def by_blocks(cons):
    return [th.blocks for th in cons]


def oracle_congruences(alg):
    return by_blocks(sorted(ideals._congruences_by_pairs(alg),
                            key=lambda t: (-t.num_blocks, t.blocks)))


def oracle_generated(alg, pairs):
    return ideals._generated_by_rounds(alg, np.array(pairs, dtype=np.int64).reshape(-1, 2).T)


def seeded_pairs(size, seed):
    """0-3 seeded pairs of carrier indices."""
    rng = random.Random(seed)
    return [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randrange(4))]


def check_against_the_oracle(alg, seed, tuples=True):
    """Every certified answer equals the generic one; pairs also as element tuples."""
    cert = stone_certificate(alg)
    assert cert is not None and cert.shape[0] == alg.size
    assert by_blocks(all_congruences(alg)) == oracle_congruences(alg)
    for t in range(3):
        pairs = seeded_pairs(alg.size, seed * 3 + t)
        want = oracle_generated(alg, pairs).blocks
        assert congruence_generated(alg, pairs).blocks == want, pairs
        if tuples:
            els = alg.elements()
            assert congruence_generated(alg, [(els[a], els[b]) for a, b in pairs]).blocks == want
    assert all_homs_onto_generator(alg) == sorted(ideals._ultra_homs(alg))


TABLE_FITS = [(n, m) for n in range(2, 65) for m in range(1, 7)
              if n**m <= ideals.CARRIER_BOUND and (n**m) ** (n + 1) <= core.TABLE_BOUND]


def test_the_full_powers_are_the_ones_expected():
    assert TABLE_FITS == [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2),
                          (3, 3), (4, 1), (4, 2), (5, 1), (6, 1), (7, 1)]


@pytest.mark.parametrize("n, m", TABLE_FITS, ids=[f"{n}^{m}" for n, m in TABLE_FITS])
def test_full_powers_match_the_generic_engine(n, m):
    alg = core.power_algebra(n, m)
    check_against_the_oracle(alg, n * 10 + m)
    assert stone_certificate(alg).shape == (n**m, m)


def seeded_subpowers():
    """Closures of 1 to g seeded elements of n^m, count of them for each (n, m, count, g);
    few generators keep most of them proper, and the generic engine on them quick."""
    rng = random.Random(18)
    out = []
    for n, m, count, g in ((2, 3, 6, 2), (3, 2, 7, 1), (2, 4, 8, 2), (2, 5, 8, 2),
                           (3, 3, 6, 1), (2, 6, 8, 2)):
        full = core.power_algebra(n, m)
        for t in range(count):
            gens = rng.sample(full.elements(), rng.randrange(1, g + 1))
            out.append((f"{n}^{m} sub {t}", core.subalgebra_closure(full, gens)))
    return out


SUBPOWERS = seeded_subpowers()


def test_the_subpowers_are_many_varied_and_mostly_proper():
    sizes = {sub.size for _, sub in SUBPOWERS}
    assert len(SUBPOWERS) >= 40 and len(sizes) >= 6
    assert sum(sub.size < sub.n**sub.points for _, sub in SUBPOWERS) >= 30


@pytest.mark.parametrize("label, sub", SUBPOWERS, ids=[label for label, _ in SUBPOWERS])
def test_subpowers_match_the_generic_engine(label, sub):
    check_against_the_oracle(sub, len(label) * 7 + sub.size)
    assert stone_certificate(sub).shape == (sub.size, sub._power().points)


def shuffled_table(alg, seed):
    """table_of_power(alg) relabelled by a seeded permutation, q and constants to match."""
    tab = core.table_of_power(alg)
    perm = np.random.default_rng(seed).permutation(tab.size)
    q = np.empty_like(tab.q_table())
    q[np.ix_(*[perm] * (tab.n + 1))] = perm[tab.q_table()]
    return core.TableAlgebra(tab.n, tab.size, tuple(int(perm[c]) for c in tab.constants),
                             tuple(q.ravel().tolist()))


BASES = [(n, m, seed) for n, m, seeds in ((2, 2, 3), (2, 3, 5), (3, 2, 5), (2, 4, 4), (4, 1, 2),
                                           (3, 1, 2))
         for seed in range(seeds)]
SHUFFLED = [(f"{n}^{m} shuffle {seed}", shuffled_table(core.power_algebra(n, m), seed))
            for n, m, seed in BASES]


def test_the_shuffled_tables_are_many_and_relabelled():
    moved = [tab.q_flat != core.table_of_power(core.power_algebra(n, m)).q_flat
             for (n, m, _), (_, tab) in zip(BASES, SHUFFLED)]
    assert len(moved) >= 20 and sum(moved) >= 18


@pytest.mark.parametrize("label, tab", SHUFFLED, ids=[label for label, _ in SHUFFLED])
def test_shuffled_tables_match_the_generic_engine(label, tab):
    check_against_the_oracle(tab, tab.size, tuples=False)
    assert stone_certificate(tab).shape == (tab.size, round(np.log(tab.size) / np.log(tab.n)))


# -- the certificate's contract -----------------------------------------------


def changed_mutations(alg, seed, count):
    """count one-entry mutations of alg's table, each entry drawn to differ."""
    base, rng = core.table_of_power(alg), random.Random(seed)
    out = []
    for _ in range(count):
        key = tuple(rng.randrange(base.size) for _ in range(base.n + 1))
        value = rng.choice([v for v in range(base.size) if v != base.q_table()[key]])
        out.append((key, base.mutate(key, value)))
    return out


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (2, 4)])
def test_mutated_tables_never_certify_and_take_the_generic_path(n, m, monkeypatch):
    calls = []
    generic = ideals._congruences_by_pairs
    monkeypatch.setattr(ideals, "_congruences_by_pairs",
                        lambda alg: calls.append(alg) or generic(alg))
    for key, mutant in changed_mutations(core.power_algebra(n, m), n * 100 + m, 60):
        assert stone_certificate(mutant) is None, key
        got = by_blocks(all_congruences(mutant))
        assert calls[-1] is mutant
        assert got == oracle_congruences(mutant), key
        pairs = seeded_pairs(mutant.size, sum(key))
        assert congruence_generated(mutant, pairs) == oracle_generated(mutant, pairs)


def test_homs_that_do_not_separate_give_no_certificate():
    """2 acts as e1 in the scrutinee: stone_embed's one hom (1, 2, 1) is no bijection."""
    flat = tuple(ys[0] if x in (0, 2) else ys[1] for x, *ys in itertools.product(range(3), repeat=3))
    alg = core.TableAlgebra(2, 3, (0, 1), flat)
    assert ideals.stone_embed(alg).images == ((1,), (2,), (1,))
    assert stone_certificate(alg) is None
    assert by_blocks(all_congruences(alg)) == oracle_congruences(alg)
    with pytest.raises(ValueError, match="not an nBA"):
        all_homs_onto_generator(alg)


def test_a_full_power_needs_no_q_table(monkeypatch):
    alg = core.power_algebra(2, 6)
    monkeypatch.setattr(ideals, "_violations", None)  # any call raises TypeError
    monkeypatch.setattr(core.PowerAlgebra, "q_table", None)
    assert len(all_congruences(alg)) == 64
    assert congruence_generated(alg, [(0, 1), (2, 3)]).num_blocks == 32
    assert len(all_homs_onto_generator(alg)) == 6
    assert "qtab" not in alg._cache
    sub = core.subalgebra_closure(core.power_algebra(3, 3), [(1, 2, 2)])
    assert len(all_congruences(sub)) == 4 and len(all_homs_onto_generator(sub)) == 2


def test_a_certified_table_runs_no_whole_table_round(monkeypatch):
    tab = shuffled_table(core.power_algebra(2, 3), 1)
    want = oracle_generated(tab, [(0, 1)])
    monkeypatch.setattr(ideals, "_violations", None)
    assert len(all_congruences(tab)) == 8
    assert congruence_generated(tab, [(0, 1)]) == want
    assert len(all_homs_onto_generator(tab)) == 3


@pytest.mark.parametrize("n", [2, 3])
def test_the_zeroth_power_has_no_certificate_and_one_congruence(n):
    alg = core.PowerAlgebra(n, 0)
    assert stone_certificate(alg) is None
    assert by_blocks(all_congruences(alg)) == [(0,)]
    assert congruence_generated(alg, [(0, 0)]).blocks == (0,)


@pytest.mark.parametrize("n, points", [(2, 64), (3, 41)])
def test_the_constants_on_a_wide_point_set_certify_as_n_1(n, points):
    sub = core.PowerAlgebra(n, points, tuple((k,) * points for k in range(1, n + 1)))
    assert stone_certificate(sub).tolist() == [[k] for k in range(n)]
    assert len(all_congruences(sub)) == 2
    assert all_homs_onto_generator(sub) == [tuple(range(1, n + 1))]


def test_a_tables_certificate_is_built_once(monkeypatch):
    tab = core.table_of_power(core.power_algebra(3, 2))
    calls = []
    embed = ideals.stone_embed
    monkeypatch.setattr(ideals, "stone_embed", lambda alg: calls.append(alg) or embed(alg))
    for pairs in ([(0, 1)], [(2, 5), (3, 3)], []):
        assert congruence_generated(tab, pairs) == oracle_generated(tab, pairs)
    all_congruences(tab)
    all_homs_onto_generator(tab)
    assert calls == [tab]


def test_an_uncertified_tables_failure_is_cached_too(monkeypatch):
    (_, mutant), = changed_mutations(core.power_algebra(2, 3), 5, 1)
    calls = []
    embed = ideals.stone_embed
    monkeypatch.setattr(ideals, "stone_embed", lambda alg: calls.append(alg) or embed(alg))
    for _ in range(3):
        assert stone_certificate(mutant) is None
    assert calls == [mutant]


def _outcome(f):
    try:
        return f()
    except ValueError as exc:
        return type(exc), str(exc)


def _homs_by_the_engine(alg):
    """all_homs_onto_generator of an uncertified table, from a fresh run of the engine."""
    homs = [ideals.hom_of_ultra(u) for u in ideals.all_ultramultideals(alg)]
    if len({tuple(h[x] for h in homs) for x in range(alg.size)}) < alg.size:
        raise ValueError(f"not an nBA: its {len(homs)} homs onto generator({alg.n}) "
                         f"do not separate its {alg.size} elements")
    return sorted(homs)


def test_an_uncertified_table_runs_the_ultramultideal_engine_once(monkeypatch):
    flat = tuple(ys[0] if x in (0, 2) else ys[1] for x, *ys in itertools.product(range(3), repeat=3))
    tables = [mutant for _, mutant in changed_mutations(core.power_algebra(2, 3), 23, 20)]
    tables.append(core.TableAlgebra(2, 3, (0, 1), flat))
    twins = [core.TableAlgebra(tab.n, tab.size, tab.constants, tab.q_flat) for tab in tables]
    wants = [_outcome(lambda: _homs_by_the_engine(twin)) for twin in twins]
    calls, engine = [], ideals.all_ultramultideals
    monkeypatch.setattr(ideals, "all_ultramultideals", lambda alg: calls.append(alg) or engine(alg))
    for tab, want in zip(tables, wants):
        calls.clear()
        assert stone_certificate(tab) is None
        assert _outcome(lambda: all_homs_onto_generator(tab)) == want
        assert calls == [tab]
    assert len(set(wants)) == 2  # the engine's own refusal, and homs that do not separate


def test_certified_answers_past_the_table_bound():
    """5^2's q table has 25^6 entries, past TABLE_BOUND; its coordinates have 50."""
    alg = core.power_algebra(5, 2)
    with pytest.raises(ValueError, match="exceeding bound"):
        alg.q_table()
    homs = all_homs_onto_generator(alg)
    assert homs == sorted(tuple(e[p] for e in alg.elements()) for p in range(2))
    assert congruence_generated(alg, [(0, 1)]).num_blocks == 5
    assert len(all_congruences(alg)) == 4


def test_element_index_still_checks_every_pair():
    alg = core.power_algebra(2, 3)
    with pytest.raises(ValueError, match="out of 0..7"):
        congruence_generated(alg, [(0, 1), (0, 8)])
    with pytest.raises(core.ShapeError):
        congruence_generated(alg, [((1, 1, 1), (1, 1, 3))])


def test_a_power_past_the_coordinate_bound_raises():
    with pytest.raises(ValueError, match="exceeding bound"):
        congruence_generated(core.power_algebra(2, 30), [(0, 1)])
