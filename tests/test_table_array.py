"""A TableAlgebra keeps its q table once, as the int64 array that q_table() returns.

q_flat is a tuple view derived from that array, mutate copies it, and tables compare by
identity.  q_idx is the power's, with its index check, and a constant must be an integer.
"""

import numpy as np
import pytest

from nbalab import core, ideals, skew
from nbalab.core import TableAlgebra
from test_gather import gen2_flat

TABLES = {f"{n}^{m}": (n, m) for n, m in [(2, 3), (3, 2), (4, 2)]}


@pytest.mark.parametrize("nm", TABLES.values(), ids=TABLES.keys())
def test_nothing_reads_q_flat(nm, monkeypatch):
    def refuse(self):
        raise AssertionError("q_flat read")

    monkeypatch.setattr(TableAlgebra, "q_flat", property(refuse))
    n, m = nm
    alg = core.power_algebra(n, m)
    tab = core.table_of_power(alg)
    assert np.array_equal(tab.q_table(), alg.q_table())
    key = (0,) * (n + 1)
    mutant = tab.mutate(key, 1)
    assert mutant.q_table()[key] == 1
    assert np.array_equal(skew.nba_of_star(skew.star_of(tab)).q_table(), tab.q_table())
    assert tab.to_json()["q"] == alg.q_table().ravel().tolist()
    assert skew.check_axioms(tab, "NBA").ok
    assert not skew.check_axioms(mutant, "NBA").ok
    assert ideals.stone_certificate(tab).shape == (alg.size, m)


def test_the_table_is_one_fresh_int64_array():
    alg = core.power_algebra(2, 2)
    tab = core.table_of_power(alg)
    assert tab.q_table().dtype == np.int64
    assert not np.shares_memory(tab.q_table(), alg.q_table())
    assert [k for k, v in vars(tab).items() if isinstance(v, (tuple, list))] == ["constants"]
    assert list(tab._cache) == ["qtab"]
    src = np.asarray(gen2_flat())
    built = TableAlgebra(2, 2, (0, 1), src)
    src[0] = 1
    assert built.q_table().ravel()[0] == 0


def test_mutate_leaves_its_source_unchanged():
    tab = core.table_of_power(core.power_algebra(3, 2))
    before = tab.q_table().copy()
    value = (int(before[1, 2, 3, 4]) + 1) % tab.size
    mutant = tab.mutate((1, 2, 3, 4), value)
    assert np.array_equal(tab.q_table(), before)
    assert mutant.q_table()[1, 2, 3, 4] == value
    changed = np.argwhere(mutant.q_table() != before)
    assert changed.tolist() == [[1, 2, 3, 4]]
    assert not np.shares_memory(mutant.q_table(), tab.q_table())
    assert mutant.constants == tab.constants


@pytest.mark.parametrize("key", [(-1, 0, 0), (0, 2, 0), (0, 0)],
                         ids=["negative", "range", "short"])
def test_mutate_refuses_a_key_off_the_table(key):
    with pytest.raises(ValueError):
        core.table_of_power(core.generator(2)).mutate(key, 1)


@pytest.mark.parametrize("value,named", [(5, "5"), (-1, "-1"), (2, "2"), (-0.5, "-0.5")])
def test_mutate_names_a_value_out_of_range(value, named):
    with pytest.raises(ValueError, match=rf"^table entry {named} out of range$"):
        core.table_of_power(core.generator(2)).mutate((0, 0, 1), value)


@pytest.mark.parametrize("make", [lambda a: a, core.table_of_power], ids=["power", "table"])
@pytest.mark.parametrize("s,ys", [(-1, [0, 0]), (9, [0, 0]), (0, [4, 0]), (0, [0, -2]),
                                  (0, [0])])
def test_q_idx_refuses_indices_off_the_carrier(make, s, ys):
    alg = make(core.power_algebra(2, 2))
    with pytest.raises(IndexError, match=rf"^not 3 indices in 0\.\.3: \[{s}, "):
        alg.q_idx(s, ys)


def test_both_algebras_share_one_q_idx():
    assert TableAlgebra.q_idx is core.PowerAlgebra.q_idx


@pytest.mark.parametrize("const", [1.0, 0.5, True, "1", None])
def test_a_constant_that_is_not_an_integer_is_refused(const):
    with pytest.raises(ValueError, match=rf"^constant index {const} out of range$"):
        TableAlgebra(2, 2, (0, const), tuple(gen2_flat()))


@pytest.mark.parametrize("consts", [(0, 1), (np.int64(0), np.uint8(1)), (np.int8(0), 1)])
def test_python_and_numpy_integer_constants_pass(consts):
    tab = TableAlgebra(2, 2, consts, tuple(gen2_flat()))
    assert tab.q_idx(tab.constant_index(2), [0, 1]) == 1
    assert skew.check_axioms(tab, "NBA").ok


def test_tables_compare_by_identity():
    a, b = (core.table_of_power(core.power_algebra(2, 2)) for _ in range(2))
    assert a.constants == b.constants and np.array_equal(a.q_table(), b.q_table())
    assert a != b and a == a
    assert len({a, b, a}) == 2
