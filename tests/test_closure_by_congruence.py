"""Multideal closure as congruence closure.

`ideal_closure` is the constant classes of the congruence its seed generates,
with one pair (e_k, x) for each x in part k of the seed.  On a power it is read
off the coordinates, with no q table: the kernel of the projection onto the
coordinates where each seed element agrees with its constant, degenerate iff
there are none.  On certified tables it equals the m2/m3 fixpoint
(`oracle_ideal_closure`); on tables that are not nBAs it follows the
congruence, not m2-m3.
"""

import random
import tracemalloc

import numpy as np
import pytest

from nbalab import core, ideals
from nbalab.ideals import multideal_of, stone_certificate
from test_array_closures import _seeds, oracle_ideal_closure
from test_certified_structure import changed_mutations, shuffled_table
from test_congruence_closure import oracle_generated


def _refuse(*args, **kwargs):
    raise AssertionError("the closure read q")


def values(alg):
    """The coordinates, in 1..n, of every element of the power alg, row by row."""
    m = alg.points
    return np.arange(alg.size)[:, None] // alg.n ** np.arange(m - 1, -1, -1) % alg.n + 1


@pytest.mark.parametrize("n, m", [(2, 12), (3, 7), (2, 16)], ids=["2^12", "3^7", "2^16"])
def test_closure_on_a_large_power_is_a_projection_kernel(n, m, monkeypatch):
    alg = core.power_algebra(n, m)
    vals = values(alg)
    rng = random.Random(n * 100 + m)
    proper = tuple(rng.choice((1, 1, 2)) for _ in range(m))  # some coordinates are 1
    foreign = tuple(rng.randrange(2, n + 1) for _ in range(m))  # none is
    assert 1 in proper and 1 not in foreign
    for el in (proper, foreign, alg.constant(1), alg.constant(n)):
        assert tuple(vals[alg.index(el)]) == el
    keep = np.array(proper) == 1
    want = tuple(frozenset(np.flatnonzero((vals[:, keep] == k).all(1)).tolist())
                 for k in range(1, n + 1))
    monkeypatch.setattr(core.PowerAlgebra, "_q_codes", _refuse)
    monkeypatch.setattr(core.PowerAlgebra, "q_table", _refuse)
    tracemalloc.start()
    try:
        got = ideals.ideal_closure(alg, [[proper]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not got.degenerate and got.components == want
    assert len(want[0]) == n ** (m - int(keep.sum()))
    assert peak < 64 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"
    assert ideals.ideal_closure(alg, [[foreign]]).degenerate
    assert ideals.ideal_closure(alg, [[], [alg.constant(1)]]).degenerate


@pytest.mark.parametrize("n, m", [(3, 3), (4, 2)], ids=["3^3", "4^2"])
@pytest.mark.parametrize("shuffle", [0, 1])
def test_closure_on_a_certified_table_is_the_m2_m3_fixpoint(n, m, shuffle, monkeypatch):
    tab = shuffled_table(core.power_algebra(n, m), shuffle)
    assert stone_certificate(tab) is not None
    rng = random.Random(n * 10 + m + shuffle)
    x = next(x for x in range(tab.size) if x not in {tab.constant_index(1), tab.constant_index(2)})
    seeds = [[], [[x]], [[x], [x]]] + list(_seeds(tab, rng, 8))
    wants = [oracle_ideal_closure(tab, seed) for seed in seeds]
    monkeypatch.setattr(core.TableAlgebra, "q_vec", _refuse)  # read off the certificate
    monkeypatch.setattr(core.TableAlgebra, "q_table", _refuse)
    for seed, want in zip(seeds, wants):
        got = ideals.ideal_closure(tab, seed)
        assert (got.degenerate, got.components) == (want.degenerate, want.components), seed
    assert {want.degenerate for want in wants} == {True, False}


def test_closure_off_the_nbas_follows_the_congruence():
    rng = random.Random(5)
    differ = set()
    for key, mutant in changed_mutations(core.power_algebra(2, 3), 5, 60):
        assert stone_certificate(mutant) is None, key
        for seed in _seeds(mutant, rng, 5):
            pairs = [(mutant.constant_index(k), x) for k, part in enumerate(seed, 1) for x in part]
            got = ideals.ideal_closure(mutant, seed)
            want = multideal_of(oracle_generated(mutant, pairs))
            assert (got.degenerate, got.components) == (want.degenerate, want.components), (key, seed)
            old = oracle_ideal_closure(mutant, seed)
            if (got.degenerate, got.components) != (old.degenerate, old.components):
                differ.add((old.degenerate, got.degenerate))
    assert (False, False) in differ  # another proper tuple than m2-m3's
    assert (False, True) in differ  # m2-m3 proper, the generated congruence total
