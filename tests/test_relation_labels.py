"""Least-element labels of relation matrices, and the one skew/right Church reduct.

The loops of the former ``blocks_to_congruence`` and ``equivalence_is_congruence``
are kept verbatim below as the oracle: the labels must give the same blocks on every
factor relation, and the compatibility check the same verdict on every relation and
skew reduct tried.  The right Church i-reduct must be the skew i-reduct, and its SRCA
report must equal the one of an independently built t_i table.
"""

import itertools
import re

import numpy as np
import pytest

from nbalab import core
from nbalab.ideals import Congruence, _least_labels, all_congruences, blocks_to_congruence
from nbalab.skew import (SkewTable, check_axioms, equivalence_is_congruence,
                         factor_congruences_of, reduct, relations, run_suite, srca_axioms)


def oracle_blocks(alg, rel):
    size = rel.shape[0]
    blocks = [-1] * size
    nxt = 0
    for a in range(size):
        if blocks[a] == -1:
            for b in range(a, size):
                if rel[a, b]:
                    blocks[b] = nxt
            nxt += 1
    return Congruence(alg, tuple(blocks))


def oracle_is_congruence(rel, tables):
    s = rel.shape[0]
    for tab in tables:
        for x, y in itertools.product(range(s), repeat=2):
            if not rel[x, y]:
                continue
            if not (rel[tab[x], tab[y]].all() and rel[tab[:, x], tab[:, y]].all()):
                return False
    return True


def oracle_t_table(alg, i):
    """t_i(x, y, z) = q(x, y, .., z at slot i, .., y), one scalar q per entry."""
    s = alg.size
    t = np.zeros((s, s, s), dtype=np.int64)
    for x, y, z in itertools.product(range(s), repeat=3):
        t[x, y, z] = alg.q_idx(x, [z if k == i else y for k in range(1, alg.n + 1)])
    return t


SUB33 = core.subalgebra_closure(core.power_algebra(3, 3), [(1, 2, 2)])
FACTOR_ALGEBRAS = {
    "2^3": core.power_algebra(2, 3),
    "3^2": core.power_algebra(3, 2),
    "2^4": core.power_algebra(2, 4),
    "4^2": core.power_algebra(4, 2),
    "sub 3^3": SUB33,
}
T32 = core.table_of_power(core.power_algebra(3, 2))
REDUCT_ALGEBRAS = {"2^2": core.power_algebra(2, 2), "2^3": core.power_algebra(2, 3),
                   "3^2": core.power_algebra(3, 2), "3^2 table": T32, "sub 3^3": SUB33}


@pytest.mark.parametrize("name", FACTOR_ALGEBRAS)
def test_factor_congruences_match_the_loop_on_every_element_and_index(name):
    alg = FACTOR_ALGEBRAS[name]
    carrier = np.arange(alg.size)
    for i in range(1, alg.n + 1):
        t = oracle_t_table(alg, i)
        for e in range(alg.size):
            got = factor_congruences_of(alg, e, i)
            want = [oracle_blocks(alg, rel) for rel in (t[e] == carrier[:, None], t[e] == carrier)]
            assert [c.blocks for c in got] == [c.blocks for c in want], (e, i)


def test_labels_are_the_least_element_of_each_block():
    alg = core.power_algebra(2, 3)
    for th in all_congruences(alg):
        blk = np.asarray(th.blocks)
        rel = blk[:, None] == blk
        assert _least_labels(rel).tolist() == th.least().tolist()
        assert blocks_to_congruence(alg, rel) == oracle_blocks(alg, rel) == th


def test_a_factor_relation_that_is_not_an_equivalence_is_refused():
    t = core.table_of_power(core.power_algebra(2, 3)).mutate((6, 6, 0), 4)
    rel = reduct(t, "rchurch", i=1).q3[6] == np.arange(8)[:, None]
    assert rel[6, 0] and not rel[0, 6]
    # the loop still gave it blocks
    assert oracle_blocks(t, rel).blocks == (0, 1, 0, 1, 0, 1, 2, 1)
    with pytest.raises(ValueError, match=r"not an equivalence relation at \(0, 6\)"):
        factor_congruences_of(t, 6, 1)


@pytest.mark.parametrize("rel, pair", [
    ([[1, 0], [0, 0]], "(0, 1)"),  # not reflexive at 1: both rows label 1 by 0
    ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], "(0, 1)"),  # not symmetric
    ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], "(1, 2)"),  # not transitive
])
def test_each_failure_of_an_equivalence_names_its_first_pair(rel, pair):
    rel = np.array(rel, dtype=bool)
    with pytest.raises(ValueError, match=re.escape(f"at {pair}:")):
        _least_labels(rel)
    with pytest.raises(ValueError):
        equivalence_is_congruence(rel, [np.zeros((len(rel),) * 2, dtype=np.int64)])


def _partitions(size, rng, count):
    for _ in range(count):
        blk = rng.integers(0, rng.integers(1, size + 1), size)
        yield blk[:, None] == blk


def test_compatibility_matches_the_loop():
    rng = np.random.default_rng(11)
    first_only = 0  # relations that respect the first table but not the second
    for alg in (core.power_algebra(2, 3), core.power_algebra(3, 2), SUB33, T32):
        for i in range(1, alg.n + 1):
            sk = reduct(alg, "skew", i=i)
            bundle = relations(sk)
            rels = [bundle.d_rel, bundle.l_rel, bundle.r_rel]
            blocks = [np.asarray(th.blocks) for th in all_congruences(alg)]
            rels += [blk[:, None] == blk for blk in blocks]
            rels += list(_partitions(sk.size, rng, 40))
            for rel in rels:
                for tables in ([sk.meet, sk.join], [sk.join, sk.meet], [sk.meet, sk.minus]):
                    want = oracle_is_congruence(rel, tables)
                    assert equivalence_is_congruence(rel, tables) == want
                    first_only += oracle_is_congruence(rel, tables[:1]) and not want
    assert first_only


@pytest.mark.parametrize("name", REDUCT_ALGEBRAS)
def test_the_right_church_reduct_is_the_skew_reduct(name):
    alg = REDUCT_ALGEBRAS[name]
    for i in range(1, alg.n + 1):
        rc, sk = reduct(alg, "rchurch", i=i), reduct(alg, "skew", i=i)
        assert isinstance(rc, SkewTable)
        assert np.array_equal(rc.q3, sk.q3) and np.array_equal(rc.q3, oracle_t_table(alg, i))
        assert (rc.zero, rc.index, rc.labels) == (sk.zero, sk.index, sk.labels)
        assert rc.zero == alg.constant_index(i) and rc.index == i
        assert check_axioms(rc, "SKEW_BA").ok  # the type check of the skew suites admits it


def _report(rep):
    return [(a.name, a.ok, a.mode, a.counterexample) for a in rep.axioms]


@pytest.mark.parametrize("name", ["2^3", "3^2", "3^2 table"])
def test_srca_report_equals_the_report_on_the_oracle_table(name):
    alg = REDUCT_ALGEBRAS[name]
    labels = tuple(alg.element_label(a) for a in range(alg.size))
    for i in range(1, alg.n + 1):
        rc = reduct(alg, "rchurch", i=i)
        # a budget that samples D2 and D3 on 9 elements keeps this cheap
        got = check_axioms(rc, "SRCA", budget=10**4)
        axioms = srca_axioms(oracle_t_table(alg, i), alg.constant_index(i))
        want = run_suite("SRCA", axioms, alg.size, labels, budget=10**4)
        assert _report(got) == _report(want)
