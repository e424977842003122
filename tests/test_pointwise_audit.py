"""Axiom programs run point by point in generator(n), against today's engine.

A full power (or subpower) whose q table is past GATHER_TABLE_MAX runs an axiom's
lowered program on the base-n digit planes of its inputs, in generator(n), and encodes
the two roots back to codes (PowerAlgebra.run).  The oracle is the engine every other
algebra runs: terms.run over q_ops(alg), which calls q_vec once per q node, plus the
axiom's pinned values.  Both must agree root for root on sampled chunks and open grids,
on every NBA row and every pinned factor row, on powers on both sides of the bound and
on subpowers; and the audits built on them must report the same modes, verdicts,
counterexamples and assignment counts.

gather folds its flat index in the least dtype that holds the table's size and the
arguments' dtypes: the reads below must equal an int64 read at the dtype boundaries,
and an int64 read must allocate no more than gather did before it narrowed.
"""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nbalab import core, skew, terms
from nbalab.core import (FANCY_READ_MAX, GATHER_TABLE_MAX, PowerAlgebra, gather, power_algebra,
                         subalgebra_closure)

BELOW = [(3, 2), (2, 4), (2, 5)]  # q table within GATHER_TABLE_MAX: run is terms.run
ABOVE = [(4, 2), (3, 3), (2, 6), (2, 8), (5, 2), (3, 4), (4, 3)]  # the digit planes


def oracle_run(program, env, ops):
    """Today's engine: ops is q_ops(alg) and the pinned values, so q is alg.q_vec."""
    return terms.run(program, env, ops)


def digit_kernel_table(alg) -> bool:
    power = alg._power()
    return power.size ** (power.n + 1) > GATHER_TABLE_MAX


def subpower(n, m, seed):
    """The subalgebra of n^m that up to 3 seeded elements generate."""
    rng = np.random.default_rng(seed)
    gens = [tuple(rng.integers(1, n + 1, m).tolist()) for _ in range(int(rng.integers(0, 4)))]
    return subalgebra_closure(power_algebra(n, m), gens)


def rows(alg, e):
    """Every NBA row, and the factor rows with y pinned to the element e."""
    return skew.nba_axioms(alg) + skew._factor_axioms(alg, e)


def chunk(draw, rng, nvars, size):
    """One chunk of assignments: a sampled one of 1 to 3 * FANCY_READ_MAX rows, one of the
    first three exhaustive open grids that first_witness streams, or a hand-made open grid
    with each variable an int or an index array along its own axis."""
    kind = draw(st.sampled_from(["sampled", "exhaustive", "grid"]))
    if kind == "sampled":
        rows_ = draw(st.sampled_from([1, 9, FANCY_READ_MAX - 1, 3 * FANCY_READ_MAX]))
        return [rng.integers(0, size, rows_) for _ in range(nvars)]
    if kind == "exhaustive":
        chunks = terms.assignment_chunks(nvars, size, "exhaustive", size**nvars, 0, 0, True)
        return list(itertools.islice(chunks, draw(st.integers(1, 3))))[-1]
    grid, rows = [], 1
    for t in range(nvars):  # at most 3 * FANCY_READ_MAX rows: B3 has up to 31 variables
        k = draw(st.integers(1, 12))
        if draw(st.booleans()) or rows * k > 3 * FANCY_READ_MAX:
            grid.append(int(rng.integers(0, size)))
        else:
            rows *= k
            grid.append(rng.integers(0, size, k).reshape((-1,) + (1,) * t))
    return grid


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(["power", "subpower"]))
    if kind == "power":
        alg = power_algebra(*draw(st.sampled_from(BELOW + ABOVE)))
    else:
        alg = subpower(*draw(st.sampled_from([(2, 8), (3, 4)])), draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ax = draw(st.sampled_from(rows(alg, int(rng.integers(0, alg.size)))))
    env = dict(zip(ax.varnames, chunk(draw, rng, len(ax.varnames), alg.size)))
    return alg, ax, env


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_pointwise_run_is_the_q_vec_engine(case):
    alg, ax, env = case
    assert ax.runner == alg.run  # Axiom.check, which the audits call, is the path under test
    shape = np.broadcast_shapes(*map(np.shape, env.values()))
    want, got = oracle_run(ax.program, env, ax.ops), ax.check(env)
    assert len(got) == len(want) == 2
    for w, g in zip(want, got):
        assert np.array_equal(np.broadcast_to(g, shape), np.broadcast_to(w, shape))
    assert np.array_equal(np.broadcast_to(np.not_equal(*got), shape),
                          np.broadcast_to(np.not_equal(*want), shape))


@pytest.mark.parametrize("n, m", ABOVE)
def test_audits_past_the_bound_run_no_digit_kernel(n, m, monkeypatch):
    """Past the bound, an audit never runs its power's digit kernel: q is the generator's."""
    alg = power_algebra(n, m)
    assert digit_kernel_table(alg)
    called = []
    monkeypatch.setattr(PowerAlgebra, "_q_codes", lambda *a: called.append(a) or 1 / 0)
    rep = skew.check_axioms(alg, "NBA", budget=2000, samples=500)
    assert rep.ok and called == []


@pytest.mark.parametrize("n, m", BELOW)
def test_powers_within_the_bound_run_terms_run(n, m, monkeypatch):
    alg = power_algebra(n, m)
    assert not digit_kernel_table(alg)
    monkeypatch.setattr(terms, "run", lambda *a: ("terms.run",))
    assert alg.run(None, {}, {}) == ("terms.run",)


# generator(n)'s own q table is past the bound from n = 6 on (6^7 entries; 8^9 is past
# TABLE_BOUND), so there q_vec runs the digit kernel on the generator too
WIDE = [(6, 1), (7, 1), (8, 1), (6, 2)]


@pytest.mark.parametrize("n, m", WIDE)
def test_powers_of_generators_past_the_bound_run_the_q_vec_engine(n, m, monkeypatch):
    """Their audits report the oracle's outcomes and build no q table past the bound."""
    alg = power_algebra(n, m)
    built, q_table = [], PowerAlgebra.q_table
    monkeypatch.setattr(PowerAlgebra, "q_table", lambda self: built.append(self) or q_table(self))
    rep = skew.check_axioms(alg, "NBA")
    assert rep.ok and rep.axioms == outcomes(alg, skew.nba_axioms(alg), oracle_run,
                                             skew.DEFAULT_BUDGET, skew.DEFAULT_SAMPLES,
                                             skew.DEFAULT_SEED)
    assert all(a.size ** (a.n + 1) <= GATHER_TABLE_MAX for a in built)
    monkeypatch.setattr(terms, "run", lambda *a: ("terms.run",))
    assert alg.run(None, {}, {}) == ("terms.run",)


# -- audits: the oracle's modes, verdicts, counterexamples and assignments -------------


def false_rows(alg) -> list:
    """Rows that fail in every power with two or more elements, so that the audits have
    counterexamples to agree on: one of 2 variables (exhaustive at small budgets) and one of
    n + 1 (sampled there)."""
    n, q = alg.n, skew._op("q")
    xs = [f"x{k}" for k in range(1, n + 1)]
    swapped = [xs[1], xs[0], *xs[2:]]
    return skew._axioms(terms.q_ops(alg), [
        ("projection", "x y", q("x", *["y"] * n), "x"),
        ("swap", " ".join(["s"] + xs), q("s", *xs), q("s", *swapped)),
    ], alg.run)


def outcomes(alg, axs, engine, budget, samples, seed):
    axs = [replace(ax, runner=engine) for ax in axs]
    return [skew._run_axiom(ax, alg.size, skew._Labels(alg), budget, samples, seed) for ax in axs]


AUDITED = ([(power_algebra(*nm), 2000, 700) for nm in BELOW + ABOVE]
           + [(power_algebra(*nm), skew.DEFAULT_BUDGET, skew.DEFAULT_SAMPLES)
              for nm in [(4, 2), (3, 3), (2, 6)]]
           + [(subpower(n, m, seed), 3000, 900) for n, m in [(2, 8), (3, 4)] for seed in (1, 2)])


@pytest.mark.parametrize("alg, budget, samples", AUDITED,
                         ids=[f"{a.n}^{a.points}{'' if a.carrier is None else ' sub'}-{b}"
                              for a, b, _ in AUDITED])
def test_audits_report_the_oracle_outcomes(alg, budget, samples):
    seed = 7
    rep = skew.check_axioms(alg, "NBA", budget, samples, seed)
    want = outcomes(alg, skew.nba_axioms(alg), oracle_run, budget, samples, seed)
    assert rep.axioms == want and rep.ok
    failing = false_rows(alg)
    got = outcomes(alg, failing, alg.run, budget, samples, seed)
    assert got == outcomes(alg, failing, oracle_run, budget, samples, seed)
    assert [o.ok for o in got] == [False, False]
    assert all(o.counterexample for o in got)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([(4, 2), (3, 3), (2, 6), (2, 8), (3, 4)]), st.integers(0, 2**16),
       st.sampled_from(["factor", "central"]), st.booleans())
def test_element_kinds_are_the_oracle_verdicts(nm, pick, kind, sub):
    alg = subpower(*nm, pick) if sub else power_algebra(*nm)
    e = pick % alg.size
    budget, samples, seed = 5000, 600, pick
    runs = {}
    for engine in ("pointwise", "oracle"):
        seen = []
        original = skew._run_axiom

        def record(ax, *args):
            if engine == "oracle":
                ax = replace(ax, runner=oracle_run)
            seen.append(original(ax, *args))
            return seen[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(skew, "_run_axiom", record)
            verdict = skew.is_element_kind(alg, e, kind, budget=budget, samples=samples,
                                           seed=seed)
        runs[engine] = verdict, seen
    assert runs["pointwise"] == runs["oracle"]
    assert runs["pointwise"][0] is True  # every element of an nBA is central


def test_check_axioms_matches_on_a_2_16_element_subpower_of_2_20():
    carrier = tuple(tuple(v[p % 16] for p in range(20))
                    for v in itertools.product((1, 2), repeat=16))
    alg = PowerAlgebra(2, 20, carrier)
    rep = skew.check_axioms(alg, "NBA", budget=10**5, samples=3000)
    assert rep.axioms == outcomes(alg, skew.nba_axioms(alg), oracle_run, 10**5, 3000,
                                  skew.DEFAULT_SEED)


# -- gather: narrow folds, and no more memory on int64 reads ------------------------------


def int64_read(tab, args):
    return tab[tuple(np.asarray(a, np.int64) for a in args)]


def parent_gather(tab, args):
    """gather before it narrowed, verbatim: every argument cast to int64 first."""
    if np.broadcast(*args).size < FANCY_READ_MAX:
        return tab[tuple(args)]
    idx = np.asarray(args[0], dtype=np.int64)
    for a, dim in zip(args[1:], tab.shape[1:]):
        idx = idx * dim + np.asarray(a, dtype=np.int64)
    return tab.take(idx)


# shapes of 255, 256 and 257 entries and of 65,535, 65,536 and 65,537: where the least
# dtype of tab.size turns from uint8 to uint16 and from uint16 to uint32; and (1, 256) and
# (1, 65536), whose last axis is as long as the table (the fold multiplies by it)
BOUNDARY_SHAPES = [(3, 5, 17), (256,), (16, 16), (2,) * 8, (257,), (1, 256),
                   (3, 5, 17, 257), (256, 256), (2,) * 16, (16,) * 4, (65537,), (1, 65536)]


def fits(dtype, dim):
    return dim - 1 <= (1 if dtype is bool else np.iinfo(dtype).max)


# below FANCY_READ_MAX numpy reads a boolean array as a mask, not as indices
READS = [(dtype, rows) for dtype in (np.uint8, np.uint16, np.int8, bool)
         for rows in (FANCY_READ_MAX - 1, FANCY_READ_MAX, 5 * FANCY_READ_MAX)
         if dtype is not bool or rows >= FANCY_READ_MAX]


@pytest.mark.parametrize("shape", BOUNDARY_SHAPES, ids=str)
@pytest.mark.parametrize("dtype, rows", READS, ids=lambda v: getattr(v, "__name__", str(v)))
def test_narrow_reads_equal_the_int64_read(shape, dtype, rows):
    rng = np.random.default_rng(len(shape) * rows)
    tab = rng.integers(-(2**40), 2**40, shape)
    # each axis in dtype where it holds the axis, else in the next wider: mixed folds too
    args = [rng.integers(0, dim, rows).astype(
        next(dt for dt in (dtype, np.uint8, np.uint16, np.int64) if fits(dt, dim)))
        for dim in shape]
    got = gather(tab, args)
    assert got.dtype == tab.dtype and np.array_equal(got, int64_read(tab, args))
    # the largest flat index, every axis at its end: no partial sum may wrap
    last = [np.full(rows, dim - 1, a.dtype) for a, dim in zip(args, shape)]
    assert (gather(tab, last) == tab.flat[-1]).all()


@pytest.mark.parametrize("first, second", [(np.uint64, np.int64), (np.int64, np.uint64),
                                           (np.uint64, np.int8), (np.uint64, np.uint8)])
def test_uint64_reads_beside_any_dtype_equal_the_int64_read(first, second):
    """numpy promotes uint64 beside a signed dtype to float64, which no table takes."""
    rng = np.random.default_rng(5)
    tab = rng.integers(0, 1000, (100, 100))
    for rows in (FANCY_READ_MAX - 1, 3 * FANCY_READ_MAX):
        args = [rng.integers(0, 100, rows).astype(first), rng.integers(0, 100, rows).astype(second)]
        assert np.array_equal(gather(tab, args), int64_read(tab, args))


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(64, 64, 64), (16,) * 5, (4096, 16)], ids=str)
def test_int64_reads_allocate_no_more_than_before(shape):
    rng = np.random.default_rng(1)
    tab = rng.integers(0, 1000, shape)
    args = [rng.integers(0, dim, 1 << 16) for dim in shape]  # 65,536 rows, int64
    want, before = traced_peak(parent_gather, tab, args)
    got, after = traced_peak(gather, tab, args)
    assert np.array_equal(got, want)
    assert after <= before, (after, before)


# -- TableAlgebra copies an integer array once ---------------------------------------------


def test_table_from_an_array_is_checked_without_masks():
    alg = power_algebra(4, 2)
    q = alg.q_table().ravel().copy()
    consts = tuple(alg.constant_index(k) for k in range(1, alg.n + 1))
    table, peak = traced_peak(core.TableAlgebra, alg.n, alg.size, consts, q)
    assert np.array_equal(table.q_table(), alg.q_table())
    assert not np.shares_memory(table.q_table(), q)  # its own copy
    assert peak <= 1.05 * q.nbytes, peak / q.nbytes  # the copy, and no table-sized mask
    q[0] = 5  # the caller's array may change: the table does not
    assert table.q_table().flat[0] == alg.q_table().flat[0]


@pytest.mark.parametrize("values, bad", [([0, 1, 16], 16), ([-1, 0], -1), ([2**63 + 5], 2**63 + 5)])
def test_table_arrays_out_of_range_name_their_entry(values, bad):
    q = np.zeros(16**5, np.uint64 if bad > 2**62 else np.int64)
    q[:len(values)] = values
    consts = tuple(power_algebra(4, 2).constant_index(k) for k in range(1, 5))
    with pytest.raises(ValueError, match=f"table entry {bad} out of range"):
        core.TableAlgebra(4, 16, consts, q)


@pytest.mark.parametrize("n, m", [(4, 2), (3, 3), (2, 6)])
def test_nba_of_star_peaks_near_two_tables(n, m):
    """The table, and the chain's last value that it copies; while the last link reads its
    index, the value before it (1/size of a table) is held too.  No third table."""
    alg = power_algebra(n, m)
    tab, peak = traced_peak(skew.nba_of_star, skew.star_of(alg))
    assert np.array_equal(tab.q_table(), alg.q_table())
    assert peak <= (2 + 1 / alg.size + 0.01) * tab.q_table().nbytes, peak / tab.q_table().nbytes
