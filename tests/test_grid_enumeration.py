"""Open-grid chunks against the flat tile, and the cached sample stream.

terms.first_witness enumerates an exhaustive check over open grids: each
fast variable an arange along its own axis, each slow one an int.  The
oracle here is the same loop over the flat six-argument
terms.assignment_chunks, where every chunk is a list of equal-length row
arrays.  Both must give the same verdicts, modes, counterexamples and
assignment counts.  Sampled checks read seeded_draws, which draws each
seeded stream once per process.
"""

import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest

from nbalab import core, skew, terms
from nbalab.transforms import CenterParams


def flat_first_witness(nvars, size, mode, budget, samples, seed, differ):
    """first_witness over the flat tile: one row array per variable."""
    count = 0
    for chunk in terms.assignment_chunks(nvars, size, mode, budget, samples, seed):
        rows = len(chunk[0]) if chunk else 1
        count += rows
        bad = np.flatnonzero(np.broadcast_to(differ(chunk), rows))
        if bad.size:
            return [int(a[bad[0]]) for a in chunk], count
    return None, count


@pytest.fixture
def on_both(monkeypatch):
    """run(f) -> (f() on the grid, f() on the flat tile)."""

    def run(f):
        grid = f()
        with monkeypatch.context() as m:
            m.setattr(terms, "first_witness", flat_first_witness)
            m.setattr(skew, "first_witness", flat_first_witness)
            flat = f()
        return grid, flat

    return run


def outcomes(rep):
    return [(a.name, a.ok, a.mode, a.counterexample, a.assignments) for a in rep.axioms]


def suites(alg):
    """(suite name, audited object) for every suite of alg."""
    sk = skew.reduct(alg, "skew", i=1)
    return [("NBA", alg), ("SKEW_LATTICE", sk), ("SKEW_BA", sk), ("RIGHT_HANDED", sk),
            ("SRCA", skew.reduct(alg, "rchurch", i=alg.n)), ("SKEW_STAR", skew.star_of(alg)),
            ("BOOLEAN", skew.boolean_center(alg, CenterParams(1, 2)).table)]


def mutated_stars(n, m, count, seed):
    """Star tables of n^m with one entry of one t_i changed, seeded."""
    st = skew.star_of(core.power_algebra(n, m))
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        i = int(rng.integers(st.n))
        tab = st.tables[i].copy()
        key = tuple(rng.integers(0, st.size, size=3))
        tab[key] = (tab[key] + rng.integers(1, st.size)) % st.size
        out.append(replace(st, tables=st.tables[:i] + (tab,) + st.tables[i + 1:]))
    return out


# -- audits ------------------------------------------------------------------------


@pytest.mark.parametrize("chunk", [7, 100])
@pytest.mark.parametrize("n,m", [(2, 2), (3, 1)])
def test_every_suite_matches_the_flat_tile(monkeypatch, on_both, chunk, n, m):
    monkeypatch.setattr(terms, "CHUNK", chunk)
    # 3^10: every axiom of 2^2 exhaustive, and of 3^1 all but B3 (3^13 rows)
    for suite, obj in suites(core.power_algebra(n, m)):
        grid, flat = on_both(lambda: outcomes(skew.check_axioms(obj, suite, budget=3**10)))
        assert grid == flat, suite
        assert all(mode == "exhaustive" for name, _, mode, _, _ in grid if name != "B3")


STARS = ([(f"2^3 star {t}", st) for t, st in enumerate(mutated_stars(2, 3, 3, 21))]
         + [(f"3^2 star {t}", st) for t, st in enumerate(mutated_stars(3, 2, 3, 22))])


@pytest.mark.parametrize("label,st", STARS, ids=[s[0] for s in STARS])
def test_mutated_star_tables_match_the_flat_tile(on_both, label, st):
    """7-variable axioms, exhaustive at the default budget: 5 fast variables, 2 slow ints."""
    grid, flat = on_both(lambda: outcomes(skew.check_axioms(st, "SKEW_STAR")))
    assert grid == flat
    wide = [o for o in grid if o[0].startswith("N5")]
    assert wide and all(mode == "exhaustive" for _, _, mode, _, _ in wide)
    assert not all(ok for _, ok, _, _, _ in grid)


def test_the_mutations_refute_beyond_the_first_chunk():
    late = [o for _, st in STARS for o in outcomes(skew.check_axioms(st, "SKEW_STAR"))
            if not o[1] and o[4] > terms.CHUNK]
    assert late


def mutated_table(n, m, seed):
    """The q table of n^m with one entry changed, seeded."""
    tab = core.table_of_power(core.power_algebra(n, m))
    rng = np.random.default_rng(seed)
    key = tuple(int(v) for v in rng.integers(0, tab.size, size=n + 1))
    return tab.mutate(key, (tab.q_idx(key[0], key[1:]) + int(rng.integers(1, tab.size))) % tab.size)


@pytest.mark.parametrize("n,m,chunk", [(2, 1, 1), (2, 2, 3)])
def test_slices_of_variable_0_match_the_flat_tile(monkeypatch, on_both, n, m, chunk):
    """size > CHUNK: no variable fits, so variable 0 runs through CHUNK-sized slices
    and every other variable is an int."""
    monkeypatch.setattr(terms, "CHUNK", chunk)
    for alg in (core.power_algebra(n, m), mutated_table(n, m, 5)):
        for suite, obj in [("NBA", alg), ("SKEW_STAR", skew.star_of(alg))]:
            grid, flat = on_both(lambda: outcomes(skew.check_axioms(obj, suite)))
            assert grid == flat, suite
            assert all(mode == "exhaustive" for _, _, mode, _, _ in grid)
    assert not skew.check_axioms(alg, "NBA").ok


@pytest.mark.parametrize("nvars,size,chunk", [(1, 7, 3), (2, 5, 2), (3, 4, 3), (2, 9, 4)])
def test_slices_of_variable_0_enumerate_the_flat_rows(monkeypatch, nvars, size, chunk):
    """ceil(size / CHUNK) * size^(nvars - 1) chunks, in the flat tile's row order,
    with the same first witness and count for any flagged row: every row up to the
    end of the witness's slice."""
    monkeypatch.setattr(terms, "CHUNK", chunk)
    args = (nvars, size, "exhaustive", size**nvars, 0, 0)
    chunks = list(terms.assignment_chunks(*args, True))
    assert len(chunks) == -(-size // chunk) * size ** (nvars - 1)
    rows = np.concatenate([np.stack(np.broadcast_arrays(*c), -1) for c in chunks])
    flat = np.concatenate([np.stack(c, -1) for c in terms.assignment_chunks(*args)])
    want = [r[::-1] for r in itertools.product(range(size), repeat=nvars)]  # variable 0 fastest
    assert rows.tolist() == flat.tolist() == [list(r) for r in want]
    for target in ([size - 1] * nvars, list(flat[len(flat) // 3]), list(flat[chunk]), None):
        differ = (lambda c: np.zeros((), bool)) if target is None else \
            (lambda c: functools.reduce(np.logical_and, [a == t for a, t in zip(c, target)]))
        got = terms.first_witness(*args, differ)
        assert got == flat_first_witness(*args, differ)
        at = flat.tolist().index(target) if target else size**nvars - 1
        assert got == (target, at - at % size + min(at % size // chunk * chunk + chunk, size))


@pytest.mark.parametrize("alg", [core.power_algebra(2, 2), core.power_algebra(3, 1),
                                 mutated_table(2, 2, 6)])
def test_pinned_axioms_with_no_variables_left(on_both, alg):
    """B4 pinned at an element has no variable: one chunk of no arrays, one row."""
    b4 = skew.nba_axioms(alg)[-1]
    for e in range(alg.size):
        ax = skew._pin(b4, "y", e)
        assert ax.varnames == ()
        grid, flat = on_both(lambda: skew._run_axiom(ax, alg.size, skew._label_tuple(alg),
                                                     terms.DEFAULT_BUDGET, 10, 0))
        assert grid == flat and grid.assignments == 1
    for kind in ("factor", "central"):
        got = on_both(lambda: [skew.is_element_kind(alg, e, kind) for e in range(alg.size)])
        assert got[0] == got[1]


# -- check_identity ------------------------------------------------------------------


def nba_identities(n):
    """B0[1], B1, B2, B3 and B4 as text, each with a broken copy (two branches swapped)."""
    ks = range(1, n + 1)
    q = lambda *args: "q(" + ",".join(args) + ")"
    x = lambda r, c: f"x{r}{c}"
    xs = [f"x{k}" for k in ks]
    rows = {"B0[1]": (q("e1", *xs), "x1"),
            "B1": (q("y", *["x"] * n), "x"),
            "B2": (q("y", *(q("y", *(x(r, c) for c in ks)) for r in ks)),
                   q("y", *(x(k, k) for k in ks))),
            "B3": (q("y", *(q(*(x(r, c) for c in range(n + 1))) for r in ks)),
                   q(*(q("y", *(x(r, c) for r in ks)) for c in range(n + 1)))),
            "B4": (q("y", *(f"e{k}" for k in ks)), "y")}
    broken = {"B0[1]": (q("e1", *xs), "x2"),
              "B1": (q("y", "y", *["x"] * (n - 1)), "x"),
              "B2": (rows["B2"][0], q("y", x(2, 1), *(x(k, k) for k in ks[1:]))),
              "B3": (rows["B3"][0], q(*(q("y", *(x(r, c) for r in ks)) for c in (0, 2, 1)),
                                      *(q("y", *(x(r, c) for r in ks)) for c in range(3, n + 1)))),
              "B4": (q("y", "e2", "e1", *(f"e{k}" for k in ks[2:])), "y")}
    return ([(name, lhs, rhs) for name, (lhs, rhs) in rows.items()]
            + [(f"{name}-broken", lhs, rhs) for name, (lhs, rhs) in broken.items()])


def verdict(lhs, rhs, n, **kw):
    try:
        return terms.check_identity(terms.parse_term(lhs, n), terms.parse_term(rhs, n), n, **kw)
    except terms.BudgetExceeded:
        return "budget"


IDENTITIES = [(n, *row) for n in (2, 3, 4) for row in nba_identities(n)]


@pytest.mark.parametrize("chunk", [7, 100])
@pytest.mark.parametrize("n,name,lhs,rhs", IDENTITIES,
                         ids=[f"n{n}-{name}" for n, name, _, _ in IDENTITIES])
def test_check_identity_matches_the_flat_tile(monkeypatch, on_both, chunk, n, name, lhs, rhs):
    monkeypatch.setattr(terms, "CHUNK", chunk)
    # over 3^9 the identities of 10 and 13 variables at n = 3 raise BudgetExceeded:
    # proving them in chunks of 3 or 81 rows would take too long
    for kw in ({"budget": 3**9}, {"mode": "sampled", "samples": 500, "seed": 3}):
        grid, flat = on_both(lambda: verdict(lhs, rhs, n, **kw))
        assert grid == flat, kw


def test_b3_at_three_proves_exhaustively_on_the_grid(on_both):
    grid, flat = on_both(lambda: verdict(*nba_identities(3)[3][1:], 3))
    assert grid == flat and grid.valid and grid.mode == "exhaustive"


# -- the draw cache -------------------------------------------------------------------


def test_draws_equal_fresh_draws_and_are_read_only():
    rng = np.random.default_rng(7)
    fresh = [rng.integers(0, 9, size=300, dtype=np.int64) for _ in range(4)]
    got = terms.seeded_draws(9, 300, 7, 4)
    assert [np.array_equal(g, f) for g, f in zip(got, fresh)] == [True] * 4
    assert all(g.dtype == np.uint8 and not g.flags.writeable for g in got)
    with pytest.raises(ValueError):
        got[0][0] = 1
    assert terms.seeded_draws(300, 10, 7, 1)[0].dtype == np.uint16


def test_fewer_variables_read_a_prefix_and_the_cache_holds_one_key():
    short = terms.seeded_draws(5, 200, 9, 2)
    long = terms.seeded_draws(5, 200, 9, 6)
    assert all(a is b for a, b in zip(short, long)) and len(long) == 6
    assert all(a is b for a, b in zip(terms.seeded_draws(5, 200, 9, 3), long[:3]))
    terms.seeded_draws(5, 200, 10, 1)
    assert terms._stream.cache_info().currsize == 1
    rng = np.random.default_rng(9)
    assert all(np.array_equal(a, rng.integers(0, 5, size=200, dtype=np.int64))
               for a in terms.seeded_draws(5, 200, 9, 6))


def test_sampled_chunks_are_int64_slices_of_the_draws(monkeypatch):
    monkeypatch.setattr(terms, "CHUNK", 64)
    chunks = list(terms.assignment_chunks(3, 9, "sampled", 0, 200, 4, True))
    assert all(a.dtype == np.int64 and len(a) <= 64 for c in chunks for a in c)
    got = [np.concatenate(col) for col in zip(*chunks)]
    assert all(np.array_equal(g, d) for g, d in zip(got, terms.seeded_draws(9, 200, 4, 3)))


def test_two_audits_give_equal_reports_in_either_order():
    """Two keys, and within one key a 13-variable axiom and 7-variable ones, either first."""
    audits = [(mutated_table(3, 2, 7), "NBA"),
              (skew.star_of(core.power_algebra(3, 2)), "SKEW_STAR"),
              (skew.star_of(core.power_algebra(2, 2)), "SKEW_STAR")]
    runs = []
    for order in (audits, audits[::-1]):
        terms._stream.cache_clear()
        reps = {suite + str(obj.size): outcomes(skew.check_axioms(obj, suite, budget=500,
                                                                  samples=3000, seed=8))
                for obj, suite in order}
        runs.append(dict(sorted(reps.items())))
    assert runs[0] == runs[1]
    assert all(any(mode == "sampled" for _, _, mode, _, _ in rep) for rep in runs[0].values())
