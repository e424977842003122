"""core.gather against numpy's multi-array index, and the one-pass entry checks of
TableAlgebra and PowerAlgebra against their element-by-element originals.

gather reads a table with one flat take once a read has FANCY_READ_MAX results; the
oracle is tab[tuple(args)] on the same arguments, whatever their dtype and layout.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nbalab import core
from nbalab.core import FANCY_READ_MAX, PowerAlgebra, ShapeError, TableAlgebra, gather

DTYPES = (np.uint8, np.int32, np.int64)


class CountingTakes(np.ndarray):
    """An ndarray view that counts its take calls: gather's flat branch."""

    takes = 0

    def take(self, *args, **kwargs):
        CountingTakes.takes += 1
        return super().take(*args, **kwargs)


@st.composite
def reads(draw):
    """(table, args): a table of 1..6 axes of unequal lengths, and per axis a scalar or an
    index array whose shape broadcasts to a common shape of 0..3 axes (open grids among
    them), that shape's size drawn below or at and above FANCY_READ_MAX."""
    ndim = draw(st.integers(1, 6))
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=ndim, max_size=ndim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tab = rng.integers(-1000, 1000, shape)
    bndim = draw(st.integers(0, 3))
    if bndim == 0:
        bshape = ()
    else:
        target = draw(st.sampled_from([1, 40, FANCY_READ_MAX - 1, FANCY_READ_MAX, 3 * FANCY_READ_MAX]))
        lead = max(1, target // 4 ** (bndim - 1))
        bshape = (lead,) + (4,) * (bndim - 1)
        bshape = tuple(draw(st.permutations(bshape)))
    dtype = draw(st.sampled_from(DTYPES))
    args = []
    for dim in shape:
        kind = draw(st.sampled_from(["scalar", "numpy scalar", "array", "open"]))
        if kind == "scalar" or not bshape:
            args.append(draw(st.integers(0, dim - 1)))
        elif kind == "numpy scalar":
            args.append(dtype(draw(st.integers(0, dim - 1))))
        else:  # an open grid keeps one axis of bshape and is 1 on the others
            keep = draw(st.integers(0, len(bshape) - 1))
            ashape = (tuple(s if a == keep else 1 for a, s in enumerate(bshape))
                      if kind == "open" else bshape)
            args.append(rng.integers(0, dim, ashape).astype(dtype))
    return tab, args


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(reads())
def test_gather_is_the_multi_array_index(read):
    tab, args = read
    want = tab[tuple(args)]
    got = gather(tab, args)
    assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("rows", [1, FANCY_READ_MAX - 1, FANCY_READ_MAX, 5 * FANCY_READ_MAX])
def test_reads_from_the_cutoff_on_take_once(dtype, rows):
    # a 6-axis table of 7^6 entries: a flat index past 255 overflows uint8 if not cast
    shape = (7, 6, 7, 5, 7, 3)
    tab = np.arange(np.prod(shape)).reshape(shape).view(CountingTakes)
    rng = np.random.default_rng(rows)
    args = [rng.integers(0, d, rows).astype(dtype) for d in shape]
    CountingTakes.takes = 0
    got = gather(tab, args)
    assert CountingTakes.takes == (rows >= FANCY_READ_MAX)
    assert np.array_equal(got, np.asarray(tab)[tuple(args)])
    assert np.array_equal(got, np.ravel_multi_index([a.astype(np.int64) for a in args], shape))


def test_scalar_reads_are_zero_dimensional():
    tab = np.arange(60).reshape(3, 4, 5)
    got = gather(tab, [2, np.int32(1), np.uint8(4)])
    assert np.ndim(got) == 0 and got == tab[2, 1, 4]
    # slow scalars broadcast against a large open grid
    x, z = np.ix_(np.arange(3).repeat(700), np.arange(5))
    assert np.array_equal(gather(tab, [x, 3, z]), tab[x, 3, z])


@pytest.mark.parametrize("rows", [2, FANCY_READ_MAX - 1, FANCY_READ_MAX])
def test_boolean_arguments_read_as_indices_not_masks(rows):
    """numpy's tab[bools] is a mask read; gather reads bools as 0 and 1 on both sides of
    FANCY_READ_MAX, as the int64 read of the same values does."""
    rng = np.random.default_rng(rows)
    tab = rng.integers(-1000, 1000, (2,) * 8)
    args = [rng.integers(0, 2, rows).astype(bool) for _ in range(8)]
    assert np.array_equal(gather(tab, args), tab[tuple(a.astype(np.int64) for a in args)])
    square = np.arange(4).reshape(2, 2)
    assert gather(square, [np.array([True, False])] * 2).tolist() == [3, 0]
    assert gather(square, [True, np.False_]) == 2


def test_one_index_per_axis():
    tab = np.zeros((2, 2, 2), dtype=np.int64)
    for args in ([0, 1], [0, 1, 1, 0]):
        with pytest.raises(IndexError, match="a table of 3 axes read with"):
            gather(tab, args)


# -- TableAlgebra: the entries in one comparison, the table built once ---------------------


def gen2_flat() -> list:
    return list(core.table_of_power(core.generator(2)).q_flat)


def table(flat) -> TableAlgebra:
    return TableAlgebra(2, 2, (0, 1), tuple(flat))


@pytest.mark.parametrize("bad,named", [
    ({5: 9, 2: -1}, -1),
    ({2: 9, 5: -1}, 9),
    ({7: 2, 0: 3, 3: -4}, 3),
    ({6: float("nan"), 4: 2.5}, 2.5),
    ({1: float("inf"), 6: 2}, "inf"),
    ({3: 2**70, 4: -1}, 2**70),
])
def test_the_first_bad_entry_in_q_flat_order_is_named(bad, named):
    flat = gen2_flat()
    for i, v in bad.items():
        flat[i] = v
    with pytest.raises(ValueError, match=rf"^table entry {named} out of range$"):
        table(flat)


@pytest.mark.parametrize("entries,stored", [
    ({0: 0.5}, {0: 0}),
    ({0: 1.0, 3: 0.99}, {0: 1, 3: 0}),
    ({0: True, 1: False}, {0: 1, 1: 0}),
    ({0: np.int8(1), 2: np.float64(1.5)}, {0: 1, 2: 1}),
])
def test_floats_and_bools_in_range_load_truncated(entries, stored):
    flat = gen2_flat()
    for i, v in entries.items():
        flat[i] = v
    want = gen2_flat()
    for i, v in stored.items():
        want[i] = v
    alg = table(flat)
    tab = alg.q_table()
    assert tab.dtype == np.int64 and tab.ravel().tolist() == want
    assert alg.q_flat == tuple(want)  # the tuple view reads the one array
    assert core.algebra_from_json(alg.to_json()).q_flat == alg.q_flat


def test_an_all_bool_table_loads_as_zeros_and_ones():
    flat = gen2_flat()
    assert table(map(bool, flat)).q_table().ravel().tolist() == flat


@pytest.mark.parametrize("entry", ["a", None, 1 + 0j])
def test_entries_that_are_not_real_numbers_raise_type_error(entry):
    flat = gen2_flat()
    flat[3] = entry
    with pytest.raises(TypeError):
        table(flat)


@pytest.mark.parametrize("alg", [core.generator(3), core.power_algebra(2, 2)])
def test_q_table_is_the_array_cached_at_construction(alg):
    tb = core.table_of_power(alg)
    cached = tb._cache["qtab"]  # built by __post_init__, before any q_table call
    assert tb.q_table() is cached and tb.q_table() is cached
    assert cached.dtype == np.int64
    assert np.array_equal(cached, np.asarray(tb.q_flat).reshape((tb.size,) * (tb.n + 1)))
    assert np.array_equal(cached, alg.q_table())


# -- PowerAlgebra: the carrier in one pass, the element-by-element error when it fails -----


def oracle_carrier_error(n: int, points: int, carrier) -> object:
    """The ShapeError text of the element-by-element check, or None if every element passes."""
    for el in sorted(set(carrier)):
        if len(el) != points:
            return f"element {el} has {len(el)} points, expected {points}"
        for v in el:
            if not 1 <= v <= n:
                return f"value {v} out of 1..{n} in {el}"
    return None


@st.composite
def carriers(draw):
    n = draw(st.integers(2, 4))
    points = draw(st.integers(0, 4))
    # mostly integer elements of the right length, so that the one-pass check decides
    value = st.one_of(st.integers(1, n), st.sampled_from([0, n + 1, -1, n + 2]),
                      st.booleans(), st.just(2**70))
    length = st.sampled_from([points] * 6 + [max(points - 1, 0), points + 1])
    extra = draw(st.lists(st.tuples(length, st.lists(value, min_size=points + 1,
                                                     max_size=points + 1)), max_size=6))
    els = [tuple(vals[:length]) for length, vals in extra]
    return n, points, [(k,) * points for k in range(1, n + 1)] + els


@settings(max_examples=300, deadline=None)
@given(carriers())
def test_carrier_errors_name_the_first_bad_element(case):
    n, points, carrier = case
    want = oracle_carrier_error(n, points, carrier)
    if want is None:
        alg = PowerAlgebra(n, points, tuple(carrier))
        assert alg._values().tolist() == [list(el) for el in alg.carrier]
        assert alg._values().dtype == np.int64
    else:
        with pytest.raises(ShapeError) as exc:
            PowerAlgebra(n, points, tuple(carrier))
        assert str(exc.value) == want


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("bad", [0, "n + 1"])
def test_a_value_just_outside_1_to_n_is_named(n, bad):
    v = n + 1 if bad == "n + 1" else bad
    carrier = [(k,) * 3 for k in range(1, n + 1)] + [(1, v, 2), (2, 1, v)]
    with pytest.raises(ShapeError) as exc:
        PowerAlgebra(n, 3, tuple(carrier))
    assert str(exc.value) == f"value {v} out of 1..{n} in (1, {v}, 2)"


def test_carrier_errors_on_a_large_carrier():
    # the 2^12 diagonal of 2^14 with two bad elements: the sorted-first one is named
    vals = np.array(core.power_algebra(2, 12).elements())[:, [*range(12), 0, 1]]
    carrier = [tuple(v) for v in vals.tolist()]
    for bad, want in (([(1,) * 13, (3,) * 14], "element (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1) "
                                                "has 13 points, expected 14"),
                      ([(2,) * 13 + (0,), (2,) * 13 + (3,)], "value 0 out of 1..2 in "
                                                              "(2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, "
                                                              "2, 2, 0)")):
        assert oracle_carrier_error(2, 14, carrier + bad) == want
        with pytest.raises(ShapeError) as exc:
            PowerAlgebra(2, 14, tuple(carrier + bad))
        assert str(exc.value) == want
    alg = PowerAlgebra(2, 14, tuple(carrier))
    assert alg._power() == core.power_algebra(2, 12)


@pytest.mark.parametrize("n, m", [(2, 9), (2, 17), (3, 6)])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32])
def test_the_digit_kernel_takes_narrow_index_dtypes(n, m, dtype):
    """q_vec on a power past GATHER_TABLE_MAX runs _q_codes, whose place values outgrow
    uint8 at 2^9 and uint16 at 2^17; each index dtype gives the int64 result."""
    alg = core.power_algebra(n, m)
    assert alg.size ** (n + 1) > core.GATHER_TABLE_MAX
    rng = np.random.default_rng(m)
    top = min(alg.size, np.iinfo(dtype).max + 1)
    args = rng.integers(0, top, (n + 1, 50))
    want = alg.q_vec(args[0], list(args[1:]))
    got = alg.q_vec(args[0].astype(dtype), list(args[1:].astype(dtype)))
    assert got.dtype == np.int64 and np.array_equal(got, want)
    if alg.size <= 1 << 10:  # and q on element tuples agrees
        els = alg.elements()
        assert [els[r] for r in want[:5]] == [alg.q(els[s], [els[b] for b in bs])
                                              for s, *bs in args.T[:5].tolist()]
