"""`ideals` builds only what each call reads.

`theta_of` is the congruence generated by the pairs (e_k, x), x in I_k, so on
certified input it is read off the Stone certificate and builds no skew reduct
and no Boolean center; the center-signature construction it replaced is the
oracle (`oracle_theta_of`).  `is_prime` computes meet_i as one q_vec over the
open pair grid, held to TABLE_BOUND.  The Boolean center and its coordinate
table are built once per (algebra, center parameters).  A table's
`constant_index`, like a power's, refuses an index outside 1..n.
"""

import collections
import itertools
import tracemalloc

import pytest

from nbalab import core, ideals, skew
from nbalab.ideals import (
    all_congruences,
    all_proper_multideals,
    congruence_generated,
    is_prime,
    multideal_of,
    stone_certificate,
    theta_of,
)
from nbalab.transforms import CenterParams
from test_array_closures import SUB24, SUB33, oracle_is_prime, oracle_theta_of
from test_certified_structure import shuffled_table


def _refuse(*args, **kwargs):
    raise AssertionError("built a t table or a Boolean center")


def center_params(n):
    return [CenterParams(i, j) for i, j in itertools.permutations(range(1, n + 1), 2)]


SMALL = [
    ("2^3", core.power_algebra(2, 3)),
    ("3^2", core.power_algebra(3, 2)),
    ("2^4", core.power_algebra(2, 4)),
    ("4^2", core.power_algebra(4, 2)),
    ("3^3", core.power_algebra(3, 3)),
    ("sub 2^4", SUB24),
    ("sub 3^3", SUB33),
    ("3^2 shuffle 1", shuffled_table(core.power_algebra(3, 2), 1)),
    ("2^4 shuffle 2", shuffled_table(core.power_algebra(2, 4), 2)),
]


@pytest.mark.parametrize("alg", [a for _, a in SMALL], ids=[name for name, _ in SMALL])
def test_theta_of_is_the_center_signature_congruence(alg):
    for md in all_proper_multideals(alg):
        for cp in center_params(alg.n):
            assert theta_of(md, cp).blocks == oracle_theta_of(md, cp), cp
            assert is_prime(alg, md, cp) == oracle_is_prime(alg, md, cp), cp


def two_congruences(alg):
    """The congruences generated by (0, 1), which differ in the last coordinate alone,
    and by (0, x) for an x that agrees with 0 in coordinate 0 alone: the kernels of the
    projections onto all coordinates but the last, and onto coordinate 0."""
    cert = stone_certificate(alg)
    x = next(x for x in range(alg.size) if cert[x, 0] == 0 and cert[x, 1:].all())
    return [congruence_generated(alg, [(0, 1)]), congruence_generated(alg, [(0, x)])]


@pytest.mark.parametrize("n, m, prime", [(2, 12, False), (3, 5, True)], ids=["2^12", "3^5"])
def test_a_power_builds_no_t_table_and_no_center(n, m, prime, monkeypatch):
    alg = core.power_algebra(n, m)
    monkeypatch.setattr(skew, "_t_table", _refuse)
    monkeypatch.setattr(ideals, "boolean_center", _refuse)
    thetas = two_congruences(alg)
    assert [th.num_blocks for th in thetas] == [n ** (m - 1), n]
    assert [multideal_of(th).is_ultra for th in thetas] == [False, True]
    for th in thetas:
        md = multideal_of(th)
        assert theta_of(md) == th
        if prime:  # 2^12's meet table is 2^24 entries, within the bound but large
            assert is_prime(alg, md) == md.is_ultra


@pytest.mark.parametrize("n, m, seed", [(3, 2, 1), (2, 4, 2)])
def test_a_certified_table_builds_no_t_table_and_no_center(n, m, seed, monkeypatch):
    tab = shuffled_table(core.power_algebra(n, m), seed)
    assert stone_certificate(tab) is not None  # certifying it builds a center: cache it first
    monkeypatch.setattr(skew, "_t_table", _refuse)
    monkeypatch.setattr(ideals, "boolean_center", _refuse)
    for th in all_congruences(tab):
        if not th.is_total:
            md = multideal_of(th)
            assert theta_of(md) == th
            assert is_prime(tab, md) == md.is_ultra


def traced_peak(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_theta_of_and_is_prime_on_3_to_the_5_stay_small():
    alg = core.power_algebra(3, 5)
    md = multideal_of(congruence_generated(alg, [(0, 1)]))
    alg.constant_index(1)  # the power's element list, built once
    assert traced_peak(lambda: theta_of(md)) < 8 << 20
    assert traced_peak(lambda: is_prime(alg, md)) < 8 << 20


def test_is_prime_past_the_meet_table_bound_is_refused(monkeypatch):
    alg = core.power_algebra(2, 16)
    md = multideal_of(congruence_generated(alg, [(0, 1)]))
    monkeypatch.setattr(core.PowerAlgebra, "q_vec", _refuse)
    with pytest.raises(ValueError, match="the meet table over carrier size 65536 needs "
                                         "4294967296 entries, exceeding bound 16777216"):
        is_prime(alg, md)


@pytest.mark.parametrize("make", [lambda: core.power_algebra(2, 3),
                                  lambda: core.power_algebra(3, 2),
                                  lambda: shuffled_table(core.power_algebra(2, 3), 4)],
                         ids=["2^3", "3^2", "2^3 shuffle 4"])
def test_each_center_is_built_once(make, monkeypatch):
    builds, build = collections.Counter(), ideals.boolean_center

    def counting(alg, cp):
        builds[cp] += 1
        return build(alg, cp)

    monkeypatch.setattr(ideals, "boolean_center", counting)
    alg = make()
    for _ in range(2):
        for md in all_proper_multideals(alg):
            for cp in center_params(alg.n):
                for atom in ideals.admissible_atoms(alg, md, cp):
                    assert ideals.extend_to_ultra(alg, md, cp, atom).is_ultra
            if alg.n == 2:
                ideals.boolean_ideal_filter_view(alg, md)
        ideals.all_ultramultideals(alg)
    assert builds == {cp: 1 for cp in center_params(alg.n)}


@pytest.mark.parametrize("alg", [core.power_algebra(3, 2),
                                 core.table_of_power(core.power_algebra(3, 2))],
                         ids=["power", "table"])
@pytest.mark.parametrize("cp", [CenterParams(0, 1), CenterParams(1, 0), CenterParams(4, 1),
                                CenterParams(1, 4)], ids=str)
def test_a_center_parameter_outside_1_to_n_is_refused(alg, cp):
    md = all_proper_multideals(alg)[0]
    bad = cp.i if not 1 <= cp.i <= 3 else cp.j
    with pytest.raises(ValueError, match=f"constant index {bad} out of 1..3"):
        theta_of(md, cp)
    if bad == cp.i:  # is_prime reads meet_i alone
        with pytest.raises(ValueError, match=f"constant index {bad} out of 1..3"):
            is_prime(alg, md, cp)


@pytest.mark.parametrize("alg", [core.power_algebra(3, 2),
                                 core.table_of_power(core.power_algebra(3, 2))],
                         ids=["power", "table"])
def test_constant_index_refuses_an_index_outside_1_to_n(alg):
    assert [alg.constant_index(k) for k in (1, 2, 3)] == [0, 4, 8]
    for k in (0, 4, -1):
        with pytest.raises(ValueError, match=f"constant index {k} out of 1..3"):
            alg.constant_index(k)


def test_a_tables_center_at_index_0_is_refused_as_the_powers_is():
    power = core.power_algebra(3, 2)
    for alg in (power, core.table_of_power(power)):
        with pytest.raises(ValueError, match="constant index 0 out of 1..3"):
            skew.boolean_center(alg, CenterParams(1, 0))
