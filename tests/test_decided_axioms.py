"""Decided decomposition axioms against the exhaustive engine.

NBA B2-B3, SRCA D2-D3 and the factor clauses D2-D3 of an element say that
f_y = table[y] is a decomposition operation commuting with the table's own
operation.  skew.decide_decomposition decides them from the table, and an
axiom reports mode "decided" where the audit would otherwise sample it and
the decision's static read bound fits the budget.  Here the decision runs
directly on tables small enough for the exhaustive engine: the powers 2^2,
3^1 and 2^3, every one-entry mutation of the first two, seeded ones of the
third, and a table whose factor relations are equivalences that meet off
the diagonal.  Verdicts must agree, every refutation must re-evaluate to
lhs != rhs on the raw tables, and every witness construction must fire.
"""

import itertools
from collections import Counter

import numpy as np
import pytest

from nbalab import core, skew
from nbalab.core import TableAlgebra
from nbalab.terms import DEFAULT_BUDGET, DEFAULT_SAMPLES, DEFAULT_SEED

HUGE = 10**12  # exhaustive for every row here


def majority_table() -> TableAlgebra:
    """n = 3 on two elements, q(y, x1, x2, x3) the majority of the x: f_y(x, x, x) = x, and
    each factor relation is the total one, so they meet off the diagonal."""
    x = np.indices((2,) * 4)[1:]
    return TableAlgebra(3, 2, (0, 1, 1), ((x.sum(0) >= 2) * 1).ravel())


def tables() -> list:
    out = [("majority", majority_table())]
    for n, m in ((2, 2), (3, 1)):
        tab = core.table_of_power(core.power_algebra(n, m))
        out.append((f"{n}^{m}", tab))
        q = tab.q_table()
        for key in itertools.product(range(tab.size), repeat=n + 1):
            out += [(f"{n}^{m} {key}={v}", tab.mutate(key, v))
                    for v in range(tab.size) if v != q[key]]
    tab = core.table_of_power(core.power_algebra(2, 3))
    out.append(("2^3", tab))
    rng = np.random.default_rng(1)
    for _ in range(40):
        key = tuple(int(v) for v in rng.integers(0, tab.size, tab.n + 1))
        value = int((tab.q_table()[key] + 1 + rng.integers(tab.size - 1)) % tab.size)
        out.append((f"2^3 {key}={value}", tab.mutate(key, value)))
    return out


TABLES = tables()


def families(alg) -> list:
    """(family, its axioms 1-3, {operation name: table}) for NBA, SRCA of every right
    Church reduct, and the factor clauses of every element."""
    out = [("NBA", skew.nba_axioms(alg)[alg.n:alg.n + 3], {"q": alg.q_table()})]
    for i in range(1, alg.n + 1):
        rc = skew.reduct(alg, "rchurch", i=i)
        out.append((f"SRCA {i}", skew.srca_axioms(rc.q3, rc.zero)[2:5], {"t": rc.q3}))
    out += [(f"factor {e}", skew._factor_axioms(alg, e)[:3], {"q": alg.q_table()})
            for e in range(alg.size)]
    return out


def value(term, env: dict, ops: dict, tables: dict) -> int:
    """A term's value at one assignment, read element by element off the raw tables."""
    if isinstance(term, str):
        return int(env[term] if term in env else ops[term])
    op, *args = term
    return int(tables[op][tuple(value(a, env, ops, tables) for a in args)])


def exhaustive(ax, size):
    return skew._run_axiom(ax, size, range(size), HUGE, 0, 0)


@pytest.fixture(scope="module")
def comparison():
    """Per table, family and axiom 2 or 3: (label, family, algebra, axiom, tables, decided
    outcome or None, exhaustive outcome, the family's three exhaustive outcomes)."""
    out = []
    for label, alg in TABLES:
        for fam, axioms, tabs in families(alg):
            ex = [exhaustive(ax, alg.size) for ax in axioms]
            for ax, want in zip(axioms[1:], ex[1:]):
                out.append((label, fam, alg, ax, tabs, skew._decided(ax, range(alg.size)), want,
                            ex))
    return out


def test_the_tables_are_over_three_hundred_with_both_verdicts(comparison):
    assert len(TABLES) >= 300
    decided = [got for *_, got, _, _ in comparison if got is not None]
    assert {got.ok for got in decided} == {True, False}


def test_decided_verdicts_equal_the_exhaustive_ones(comparison):
    for label, fam, _, ax, _, got, want, ex in comparison:
        if got is None:  # no candidate re-checked: that needs axiom 1, or for 3 axiom 2, to fail
            assert not ex[0].ok or (ax.decomposition[1] == 3 and not ex[1].ok), (label, fam,
                                                                                 ax.name)
            continue
        assert (got.mode, got.ok) == ("decided", want.ok), (label, fam, ax.name)


def test_every_decided_witness_re_evaluates_to_a_failure(comparison):
    for label, fam, _, ax, tabs, got, _, _ in comparison:
        if got is None or got.ok:
            continue
        assert set(got.counterexample) == set(ax.varnames) and got.assignments >= 1
        lhs, rhs = (value(side, got.counterexample, ax.ops, tabs) for side in (ax.lhs, ax.rhs))
        assert lhs != rhs, (label, fam, ax.name, got.counterexample)


def test_every_witness_construction_fires(comparison):
    fired = Counter()
    for *_, ax, _, got, _, _ in comparison:
        if got is None or got.ok:
            continue
        dec, number = ax.decomposition
        wit = tuple(got.counterexample[v] for v in ax.varnames)
        fired[next(step for step, w in dec.verdicts[number - 2]
                   if (w if dec.y is None else w[1:]) == wit)] += 1
    assert set(fired) == {"symmetry", "transitivity", "intersection", "step 4", "step 5",
                          "transposed"}, fired


def test_a_candidate_that_does_not_re_check_falls_back_to_sampling(comparison):
    """At 3,645 reads B3 samples on 2^2 and 3^1 and the decision fits (2,048 and 3,645
    reads); where no candidate re-checks, the parent's sampled route answers."""
    undecided = [(alg, ax) for label, fam, alg, ax, _, got, _, _ in comparison
                 if got is None and fam == "NBA" and label.startswith(("2^2", "3^1"))]
    assert undecided
    for alg, ax in undecided:
        rep = skew.check_axioms(alg, "NBA", budget=3645, samples=300, seed=4)
        assert next(a for a in rep.axioms if a.name == ax.name).mode == "sampled"


# -- where the decision runs ------------------------------------------------------


def modes(rep) -> list:
    return [(a.name, a.mode) for a in rep.axioms]


def sampled_or_exhaustive(obj, suite, budget) -> list:
    rows = {"NBA": skew.nba_axioms, "SKEW_STAR": skew.skew_star_axioms,
            "SRCA": skew._srca_of}[suite](obj)
    return [(ax.name, "exhaustive" if obj.size ** len(ax.varnames) <= budget else "sampled")
            for ax in rows]


def pinned_audits():
    """The audits that tests pin at small budgets: powers 2^2 and 3^1, mutated 2^3 and
    3^2 tables, and the star tables of 2^2 and 3^2."""
    out = []
    for n, m in ((2, 2), (3, 1)):
        alg = core.power_algebra(n, m)
        out += [(alg, "NBA"), (skew.reduct(alg, "rchurch", i=n), "SRCA"),
                (skew.star_of(alg), "SKEW_STAR")]
    for n, m in ((2, 3), (3, 2)):
        out.append((core.table_of_power(core.power_algebra(n, m)).mutate((1,) * (n + 1), 0),
                    "NBA"))
    out.append((skew.star_of(core.power_algebra(3, 2)), "SKEW_STAR"))
    return out


@pytest.mark.parametrize("budget", [1, 500, 600])
def test_small_pinned_budgets_keep_their_modes(budget):
    for obj, suite in pinned_audits():
        rep = skew.check_axioms(obj, suite, budget=budget, samples=50, seed=3)
        assert modes(rep) == sampled_or_exhaustive(obj, suite, budget), (suite, obj.size)


def test_at_three_to_the_ten_only_b3_of_3_1_is_decided():
    for obj, suite in pinned_audits()[:6]:
        rep = skew.check_axioms(obj, suite, budget=3**10, samples=50, seed=3)
        want = sampled_or_exhaustive(obj, suite, 3**10)
        if suite == "NBA" and obj.size == 3:
            want = [(name, "decided" if name == "B3" else mode) for name, mode in want]
        assert modes(rep) == want, (suite, obj.size)


LADDER_NBA = {(3, 2): "decided", (2, 4): "decided", (2, 5): "decided",
              (4, 2): "sampled", (3, 3): "sampled", (2, 6): "sampled"}
LADDER_SRCA = {(2, 4): "decided", (4, 2): "decided", (2, 5): "decided", (3, 3): "decided",
               (2, 6): "sampled"}


@pytest.mark.parametrize("nm,mode", LADDER_NBA.items(), ids=[f"{n}^{m}" for n, m in LADDER_NBA])
def test_default_budget_decides_nba_where_its_reads_fit(nm, mode):
    rep = skew.check_axioms(core.power_algebra(*nm), "NBA")
    assert rep.ok
    wide = {a.mode for a in rep.axioms if a.name in ("B2", "B3") and a.mode != "exhaustive"}
    assert wide == {mode}


@pytest.mark.parametrize("nm,mode", LADDER_SRCA.items(),
                         ids=[f"{n}^{m}" for n, m in LADDER_SRCA])
def test_default_budget_decides_srca_where_its_reads_fit(nm, mode):
    rep = skew.check_axioms(skew.reduct(core.power_algebra(*nm), "skew", i=1), "SRCA")
    assert rep.ok
    wide = {a.mode for a in rep.axioms if a.name in ("D2", "D3") and a.mode != "exhaustive"}
    assert wide == {mode}


@pytest.mark.parametrize("nm", [(3, 2), (2, 5), (3, 3)], ids=["3^2", "2^5", "3^3"])
def test_factor_clauses_are_exact_at_the_default_budget(nm):
    alg = core.power_algebra(*nm)
    for e in (0, alg.size // 2, alg.size - 1):
        for ax in skew._factor_axioms(alg, e):
            out = skew._run_axiom(ax, alg.size, skew._Labels(alg), DEFAULT_BUDGET,
                                  DEFAULT_SAMPLES, DEFAULT_SEED)
            assert out.ok and out.mode in ("exhaustive", "decided"), (e, ax.name)


def test_a_mutated_3_2_table_is_refuted_by_a_decided_witness():
    tab = core.table_of_power(core.power_algebra(3, 2))
    key = (1, 2, 3, 5)  # y = 1 is no constant, and the x differ: B0 and B1 still hold
    tab = tab.mutate(key, int(tab.q_table()[key] + 1) % tab.size)
    rep = skew.check_axioms(tab, "NBA")
    fail = rep.first_failure()
    assert fail.mode == "decided" and not rep.sampled
    assert rep.to_json()["counterexample"]["axiom"] == fail.name


def test_a_diagonal_change_of_3_2_is_decided_at_a_constant_tuple():
    """q(y, x, x, x) changed: B1 fails at x alone, and step 4's witness at the constant
    tuple (x, x, x) re-checks for B2 and, transposed, for B3, so neither is sampled."""
    tab = core.table_of_power(core.power_algebra(3, 2))
    key = (7, 3, 3, 3)  # y = 7 is no constant
    tab = tab.mutate(key, 7)
    rows = {a.name: a for a in skew.check_axioms(tab, "NBA").axioms}
    assert not rows["B1"].ok
    tabs, index = {"q": tab.q_table()}, {lab: i for i, lab in enumerate(skew._label_tuple(tab))}
    for name, ax in zip(("B2", "B3"), skew.nba_axioms(tab)[tab.n + 1:tab.n + 3]):
        got = rows[name]
        assert (got.ok, got.mode) == (False, "decided"), name
        env = {v: index[got.counterexample[v]] for v in ax.varnames}
        assert value(ax.lhs, env, ax.ops, tabs) != value(ax.rhs, env, ax.ops, tabs), name
