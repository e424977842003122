"""The vectorised congruence closure against a union-find oracle.

The oracle is the earlier engine: it pops one merged pair at a time,
evaluates q with that pair in each of the n+1 argument slots, and feeds
every pair of results through a union-find.  The closure under test runs
whole-table rounds over the q table; both must give the same blocks, on
power algebras, on a subpower and on tables that are not nBAs.
"""

import itertools

import numpy as np
import pytest

from nbalab import core, ideals
from nbalab.ideals import Congruence, all_congruences, congruence_generated, join_congruences


# -- the oracle ----------------------------------------------------------------


class UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def grid_q(alg, arrays):
    grids = np.meshgrid(*arrays, indexing="ij")
    flat = [g.ravel() for g in grids]
    return alg.q_vec(flat[0], flat[1:])


def oracle_generated(alg, pairs):
    n, size = alg.n, alg.size
    uf = UnionFind(size)
    queue = [(a, b) for a, b in pairs if uf.union(a, b)]
    allv = np.arange(size, dtype=np.int64)
    while queue:
        a, b = queue.pop()
        for slot in range(n + 1):
            arrays_a = [allv] * (n + 1)
            arrays_b = [allv] * (n + 1)
            arrays_a[slot] = np.array([a], dtype=np.int64)
            arrays_b[slot] = np.array([b], dtype=np.int64)
            for x, y in zip(grid_q(alg, arrays_a).tolist(), grid_q(alg, arrays_b).tolist()):
                if uf.union(x, y):
                    queue.append((x, y))
    return Congruence(alg, tuple(uf.find(i) for i in range(size)))


def oracle_join(alg, th1, th2):
    uf = UnionFind(th1.size)
    for th in (th1, th2):
        for cls in th.classes():
            for b in cls[1:]:
                uf.union(cls[0], b)
    return Congruence(alg, tuple(uf.find(i) for i in range(th1.size)))


# -- the cases ----------------------------------------------------------------


def mutations(n, m, count, seed):
    tab = core.table_of_power(core.power_algebra(n, m))
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        key = tuple(int(v) for v in rng.integers(0, tab.size, size=n + 1))
        out.append(tab.mutate(key, int(rng.integers(0, tab.size))))
    return out


def random_tables(n, size, count, seed):
    """Tables far from any nBA: every q entry drawn at random."""
    rng = np.random.default_rng(seed)
    return [core.TableAlgebra(n, size, tuple(range(n)),
                              tuple(int(v) for v in rng.integers(0, size, size ** (n + 1))))
            for _ in range(count)]


# q ignores its scrutinee: compatible in the first slot, not in the branches
SCRUTINEE_BLIND = core.TableAlgebra(2, 3, (0, 1), tuple([0, 2, 2] * 3 * 3))

RANDOM = ([(f"random 2:{t}", alg) for t, alg in enumerate(random_tables(2, 5, 10, 7))]
          + [(f"random 3:{t}", alg) for t, alg in enumerate(random_tables(3, 4, 10, 8))]
          + [("scrutinee-blind", SCRUTINEE_BLIND)])

SUB25 = core.subalgebra_closure(core.power_algebra(2, 5), [(1, 2, 1, 2, 2), (2, 2, 1, 1, 2)])

ALGEBRAS = [("2^3", core.power_algebra(2, 3)), ("3^2", core.power_algebra(3, 2)),
            ("2^4", core.power_algebra(2, 4)), ("sub-2^5", SUB25)]

MUTATIONS = ([(f"2^3 mutation {t}", alg) for t, alg in enumerate(mutations(2, 3, 20, 5))]
             + [(f"3^2 mutation {t}", alg) for t, alg in enumerate(mutations(3, 2, 20, 6))])


def all_pairs(alg):
    return itertools.combinations(range(alg.size), 2)


@pytest.mark.parametrize("label,alg", ALGEBRAS, ids=[a[0] for a in ALGEBRAS])
def test_every_principal_congruence_matches_the_oracle(label, alg):
    for a, b in all_pairs(alg):
        got = congruence_generated(alg, [(a, b)])
        assert got.blocks == oracle_generated(alg, [(a, b)]).blocks, (label, a, b)
        assert got.is_compatible()


def test_the_subpower_case_is_a_proper_closed_subpower():
    assert 4 < SUB25.size < 32
    assert congruence_generated(SUB25, [(0, 1)]).size == SUB25.size


@pytest.mark.parametrize("label,alg", MUTATIONS + RANDOM, ids=[m[0] for m in MUTATIONS + RANDOM])
def test_tables_that_are_not_nbas_match_the_oracle(label, alg):
    for a, b in all_pairs(alg):
        got = congruence_generated(alg, [(a, b)])
        assert got.blocks == oracle_generated(alg, [(a, b)]).blocks, (label, a, b)
        assert got.is_compatible()


def test_scrutinee_blind_table_needs_the_branch_slots():
    assert congruence_generated(SCRUTINEE_BLIND, [(0, 1)]).is_total
    assert not Congruence(SCRUTINEE_BLIND, (0, 0, 1)).is_compatible()


def test_the_mutations_are_not_all_nbas():
    """Some mutation changes a principal congruence, so the cases reach non-nBA tables."""
    for n, m in ((2, 3), (3, 2)):
        base = core.power_algebra(n, m)
        cases = [alg for label, alg in MUTATIONS if label.startswith(f"{n}^{m}")]
        assert any(congruence_generated(alg, [(a, b)]).blocks
                   != congruence_generated(base, [(a, b)]).blocks
                   for alg in cases for a, b in all_pairs(base))


@pytest.mark.parametrize("label,alg", ALGEBRAS + MUTATIONS[::10],
                         ids=[a[0] for a in ALGEBRAS + MUTATIONS[::10]])
def test_multi_pair_generators_match_the_oracle(label, alg):
    rng = np.random.default_rng(17)
    for count in (2, 3, 5):
        for _ in range(10):
            pairs = [tuple(int(v) for v in rng.integers(0, alg.size, 2)) for _ in range(count)]
            assert (congruence_generated(alg, pairs).blocks
                    == oracle_generated(alg, pairs).blocks), (label, pairs)


@pytest.mark.parametrize("alg", [core.power_algebra(3, 2), core.table_of_power(SUB25)],
                         ids=["3^2", "table of sub-2^5"])
def test_no_pairs_give_the_diagonal(alg):
    assert congruence_generated(alg, []) == ideals.diagonal_congruence(alg)
    assert congruence_generated(alg, [(2, 2)]) == ideals.diagonal_congruence(alg)


def test_element_tuples_and_indices_generate_the_same_congruence():
    alg = core.power_algebra(3, 2)
    els = alg.elements()
    pairs = [(1, 5), (6, 7)]
    by_index = congruence_generated(alg, pairs)
    assert congruence_generated(alg, [(els[a], els[b]) for a, b in pairs]) == by_index
    assert congruence_generated(alg, [(els[1], 5), (6, list(els[7]))]) == by_index
    assert by_index == oracle_generated(alg, pairs)


def test_power_and_its_table_generate_the_same_blocks():
    alg = core.power_algebra(2, 4)
    tab = core.table_of_power(alg)
    for a, b in all_pairs(alg):
        assert (congruence_generated(alg, [(a, b)]).blocks
                == congruence_generated(tab, [(a, b)]).blocks)


def test_numpy_integers_are_indices():
    alg = core.power_algebra(2, 3)
    want = congruence_generated(alg, [(0, 3)])
    assert congruence_generated(alg, [(np.int64(0), np.int64(3))]) == want
    assert congruence_generated(alg, [tuple(np.array([0, 3], dtype=np.int32))]) == want
    assert congruence_generated(alg, np.array([[0, 3]])) == want


@pytest.mark.parametrize("pair", [(0, -1), (0, 8), (-9, 1), (np.int64(8), 0)])
def test_indices_outside_the_carrier_raise(pair):
    with pytest.raises(ValueError, match="out of 0..7"):
        congruence_generated(core.power_algebra(2, 3), [pair])


def test_joins_match_the_oracle():
    for alg in (core.power_algebra(2, 4), core.table_of_power(core.power_algebra(3, 2)),
                *[alg for _, alg in MUTATIONS[::7]]):
        cons = [congruence_generated(alg, [p]) for p in itertools.islice(all_pairs(alg), 12)]
        cons.append(ideals.diagonal_congruence(alg))
        for th1, th2 in itertools.product(cons, repeat=2):
            assert join_congruences(alg, th1, th2) == oracle_join(alg, th1, th2)


def test_all_congruences_of_2_4_are_its_projection_kernels():
    alg = core.power_algebra(2, 4)
    els = alg.elements()
    kernels = {Congruence(alg, tuple(tuple(e[p] for p in keep) for e in els)).blocks
               for r in range(5) for keep in itertools.combinations(range(4), r)}
    assert {th.blocks for th in all_congruences(alg)} == kernels
