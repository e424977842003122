"""The axiom rows of nbalab.skew against the hand-written suites they replaced.

The reference below is the earlier lambda form of every suite, kept
verbatim: each axiom is a function from an environment of index arrays to
its two sides.  The rows must give the same names, the same variable
order and, side by side, the same lhs and rhs arrays on whole assignment
arrays; is_element_kind must give the same answers.  The streaming oracle
in test_streaming.py evaluates the rows themselves, so it cannot see an
axiom rewritten wrongly into another identity; this test can.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from nbalab import core, skew
from nbalab.skew import BoolTable, SkewTable, StarTable, _label_tuple, reduct, run_suite
from nbalab.terms import DEFAULT_BUDGET, DEFAULT_SAMPLES, DEFAULT_SEED
from nbalab.transforms import CenterParams

ROWS = 10**5  # whole assignment arrays up to this many rows, seeded samples beyond
SAMPLE_SEED = 17


# -- reference: the lambda suites, verbatim --------------------------------------


@dataclass(frozen=True)
class Axiom:
    name: str
    varnames: tuple
    check: Callable  # (env: dict name->array) -> (lhs, rhs) arrays



def nba_axioms(alg) -> list:
    n = alg.n
    q = alg.q_vec
    const = lambda k, ref: np.full_like(ref, alg.constant_index(k))
    axs = []
    for i in range(1, n + 1):
        names = tuple(f"x{t}" for t in range(1, n + 1))

        def b0(env, i=i, names=names):
            ref = env[names[0]]
            return q(const(i, ref), [env[v] for v in names]), env[names[i - 1]]

        axs.append(Axiom(f"B0[{i}]", names, b0))

    axs += _decomposition_axioms(alg, "B", ("y",), lambda env, ref: env["y"])

    def b4(env):
        y = env["y"]
        return q(y, [const(k, y) for k in range(1, n + 1)]), y

    axs.append(Axiom("B4", ("y",), b4))
    return axs


def skew_lattice_axioms(sk: SkewTable) -> list:
    m, j = sk.meet, sk.join

    def ax(name, varnames, fn):
        return Axiom(name, varnames, fn)

    return [
        ax("assoc-meet", ("x", "y", "z"),
           lambda e: (m[m[e["x"], e["y"]], e["z"]], m[e["x"], m[e["y"], e["z"]]])),
        ax("assoc-join", ("x", "y", "z"),
           lambda e: (j[j[e["x"], e["y"]], e["z"]], j[e["x"], j[e["y"], e["z"]]])),
        ax("idem-meet", ("x",), lambda e: (m[e["x"], e["x"]], e["x"])),
        ax("idem-join", ("x",), lambda e: (j[e["x"], e["x"]], e["x"])),
        ax("absorb-1", ("x", "y"), lambda e: (j[e["x"], m[e["x"], e["y"]]], e["x"])),
        ax("absorb-2", ("x", "y"), lambda e: (m[e["x"], j[e["x"], e["y"]]], e["x"])),
        ax("absorb-3", ("x", "y"), lambda e: (j[m[e["y"], e["x"]], e["x"]], e["x"])),
        ax("absorb-4", ("x", "y"), lambda e: (m[j[e["y"], e["x"]], e["x"]], e["x"])),
    ]


def skew_ba_axioms(sk: SkewTable) -> list:
    m, j, s0 = sk.meet, sk.join, sk.zero
    mn = sk.minus
    axs = skew_lattice_axioms(sk)
    axs += [
        Axiom("S1-normality", ("x", "y", "z"),
              lambda e: (m[m[m[e["x"], e["y"]], e["z"]], e["x"]],
                         m[m[m[e["x"], e["z"]], e["y"]], e["x"]])),
        Axiom("S1-dist-left", ("x", "y", "z"),
              lambda e: (m[e["x"], j[e["y"], e["z"]]],
                         j[m[e["x"], e["y"]], m[e["x"], e["z"]]])),
        Axiom("S1-dist-right", ("x", "y", "z"),
              lambda e: (m[j[e["y"], e["z"]], e["x"]],
                         j[m[e["y"], e["x"]], m[e["z"], e["x"]]])),
        Axiom("S2-zero-left", ("x",), lambda e: (m[np.full_like(e["x"], s0), e["x"]],
                                                 np.full_like(e["x"], s0))),
        Axiom("S2-zero-right", ("x",), lambda e: (m[e["x"], np.full_like(e["x"], s0)],
                                                  np.full_like(e["x"], s0))),
        Axiom("S3-join-1", ("x", "y"),
              lambda e: (j[m[m[e["x"], e["y"]], e["x"]], mn[e["x"], e["y"]]], e["x"])),
        Axiom("S3-join-2", ("x", "y"),
              lambda e: (j[mn[e["x"], e["y"]], m[m[e["x"], e["y"]], e["x"]]], e["x"])),
        Axiom("S3-meet-1", ("x", "y"),
              lambda e: (m[m[m[e["x"], e["y"]], e["x"]], mn[e["x"], e["y"]]],
                         np.full_like(e["x"], s0))),
        Axiom("S3-meet-2", ("x", "y"),
              lambda e: (m[mn[e["x"], e["y"]], m[m[e["x"], e["y"]], e["x"]]],
                         np.full_like(e["x"], s0))),
    ]
    return axs


def right_handed_axioms(sk: SkewTable) -> list:
    m = sk.meet
    return [Axiom("right-handed", ("a", "b"),
                  lambda e: (m[m[e["a"], e["b"]], e["a"]], m[e["b"], e["a"]]))]


def srca_axioms(q3: np.ndarray, zero: int, prefix: str = "") -> list:
    def z(ref):
        return np.full_like(ref, zero)

    return [
        Axiom(prefix + "RCA", ("x", "y"), lambda e: (q3[z(e["x"]), e["x"], e["y"]], e["y"])),
        Axiom(prefix + "semicentral", ("x",), lambda e: (q3[e["x"], e["x"], z(e["x"])], e["x"])),
        Axiom(prefix + "D1", ("w", "x"), lambda e: (q3[e["w"], e["x"], e["x"]], e["x"])),
        Axiom(prefix + "D2", ("w", "a", "b", "c", "d"),
              lambda e: (q3[e["w"], q3[e["w"], e["a"], e["b"]], q3[e["w"], e["c"], e["d"]]],
                         q3[e["w"], e["a"], e["d"]])),
        Axiom(prefix + "D3", ("w", "a1", "b1", "c1", "a2", "b2", "c2"),
              lambda e: (q3[e["w"], q3[e["a1"], e["b1"], e["c1"]], q3[e["a2"], e["b2"], e["c2"]]],
                         q3[q3[e["w"], e["a1"], e["a2"]],
                            q3[e["w"], e["b1"], e["b2"]],
                            q3[e["w"], e["c1"], e["c2"]]])),
        Axiom(prefix + "D3-const", ("w",), lambda e: (q3[e["w"], z(e["w"]), z(e["w"])], z(e["w"]))),
    ]


def skew_star_axioms(st: StarTable) -> list:
    n = st.n
    axs = []
    for i in range(1, n + 1):
        axs += srca_axioms(st.tables[i - 1], st.zeros[i - 1], prefix=f"N0[{i}]-")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j == i:
                continue
            zj = st.zeros[j - 1]
            ti = st.tables[i - 1]
            axs.append(Axiom(f"N1[{i},{j}]", ("y", "z"),
                             lambda e, ti=ti, zj=zj:
                             (ti[np.full_like(e["y"], zj), e["y"], e["z"]], e["y"])))

    def n2(env):
        x = env["x"]
        acc = np.full_like(x, st.zeros[n - 1])
        for s in range(n - 1, 0, -1):
            acc = st.tables[s - 1][x, acc, np.full_like(x, st.zeros[s - 1])]
        return acc, x

    axs.append(Axiom("N2", ("x",), n2))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ti, tj = st.tables[i - 1], st.tables[j - 1]
            axs.append(Axiom(f"N3[{i},{j}]", ("x", "y", "z", "u"),
                             lambda e, ti=ti, tj=tj:
                             (ti[e["x"], tj[e["x"], e["y"], e["z"]], e["u"]],
                              tj[e["x"], ti[e["x"], e["y"], e["u"]], e["z"]])))
    for i in range(1, n + 1):
        def n4(env, i=i):
            x, y, z = env["x"], env["y"], env["z"]
            return _n4_nest(st, i, x, y, z), st.tables[i - 1][x, y, z]

        axs.append(Axiom(f"N4[{i}]", ("x", "y", "z"), n4))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            ti, tj = st.tables[i - 1], st.tables[j - 1]
            axs.append(Axiom(f"N5[{i},{j}]", ("x", "y1", "y2", "y3", "z1", "z2", "z3"),
                             lambda e, ti=ti, tj=tj:
                             (ti[e["x"], tj[e["y1"], e["y2"], e["y3"]],
                                 tj[e["z1"], e["z2"], e["z3"]]],
                              tj[ti[e["x"], e["y1"], e["z1"]],
                                 ti[e["x"], e["y2"], e["z2"]],
                                 ti[e["x"], e["y3"], e["z3"]]])))
    return axs


def _n4_nest(st: StarTable, i: int, x, y, z):
    """t_1(x, t_2(x, ... t_{i-1}(x, t_i(x, t_{i+1}(x, ..., y), z), y) ..., y), y)."""
    n = st.n
    # innermost: the chain t_{i+1}(x, t_{i+2}(x, ..., y), y) ending at t_n(x, y, y)
    if i < n:
        acc = y
        for s in range(n, i, -1):
            acc = st.tables[s - 1][x, acc, y]
    else:
        acc = y
    acc = st.tables[i - 1][x, acc, z]
    for s in range(i - 1, 0, -1):
        acc = st.tables[s - 1][x, acc, y]
    return acc


def boolean_axioms(bt: BoolTable) -> list:
    m, j, neg = bt.meet, bt.join, bt.neg
    z = bt.zero
    o = bt.one
    return [
        Axiom("comm-meet", ("x", "y"), lambda e: (m[e["x"], e["y"]], m[e["y"], e["x"]])),
        Axiom("comm-join", ("x", "y"), lambda e: (j[e["x"], e["y"]], j[e["y"], e["x"]])),
        Axiom("assoc-meet", ("x", "y", "z"),
              lambda e: (m[m[e["x"], e["y"]], e["z"]], m[e["x"], m[e["y"], e["z"]]])),
        Axiom("assoc-join", ("x", "y", "z"),
              lambda e: (j[j[e["x"], e["y"]], e["z"]], j[e["x"], j[e["y"], e["z"]]])),
        Axiom("absorb-1", ("x", "y"), lambda e: (m[e["x"], j[e["x"], e["y"]]], e["x"])),
        Axiom("absorb-2", ("x", "y"), lambda e: (j[e["x"], m[e["x"], e["y"]]], e["x"])),
        Axiom("dist", ("x", "y", "z"),
              lambda e: (m[e["x"], j[e["y"], e["z"]]],
                         j[m[e["x"], e["y"]], m[e["x"], e["z"]]])),
        Axiom("compl-meet", ("x",), lambda e: (m[e["x"], neg[e["x"]]], np.full_like(e["x"], z))),
        Axiom("compl-join", ("x",), lambda e: (j[e["x"], neg[e["x"]]], np.full_like(e["x"], o))),
        Axiom("bottom", ("x",), lambda e: (m[e["x"], np.full_like(e["x"], z)],
                                           np.full_like(e["x"], z))),
        Axiom("top", ("x",), lambda e: (j[e["x"], np.full_like(e["x"], o)],
                                        np.full_like(e["x"], o))),
    ]



def _decomposition_axioms(alg, prefix: str, lead: tuple, scrutinee) -> list:
    """Axioms 1-3 of the n-ary decomposition operation f = q(s, -, ..., -).

    f(x, ..., x) = x; f of the rows of f equals f of the diagonal; f
    commutes with q.  The nBA axioms B1-B3 take s = y, a variable (lead
    ("y",)); the factor axioms D1-D3 take s = e, a fixed element (lead ()).
    scrutinee(env, ref) gives s as an array shaped like ref.
    """
    n = alg.n
    q = alg.q_vec

    def f(env, args):
        return q(scrutinee(env, args[0]), list(args))

    names2 = tuple(f"x{r}{c}" for r in range(1, n + 1) for c in range(1, n + 1))
    names3 = tuple(f"x{r}{c}" for r in range(1, n + 1) for c in range(0, n + 1))

    def a1(env):
        return f(env, [env["x"]] * n), env["x"]

    def a2(env):
        rows = [f(env, [env[f"x{r}{c}"] for c in range(1, n + 1)]) for r in range(1, n + 1)]
        return f(env, rows), f(env, [env[f"x{k}{k}"] for k in range(1, n + 1)])

    def a3(env):  # the left side first: fewer full-length arrays live at once
        lhs = f(env, [q(env[f"x{r}0"], [env[f"x{r}{c}"] for c in range(1, n + 1)])
                      for r in range(1, n + 1)])
        cols = [f(env, [env[f"x{r}{c}"] for r in range(1, n + 1)]) for c in range(0, n + 1)]
        return lhs, q(cols[0], cols[1:])

    return [
        Axiom(f"{prefix}1", lead + ("x",), a1),
        Axiom(f"{prefix}2", lead + names2, a2),
        Axiom(f"{prefix}3", lead + names3, a3),
    ]


def _factor_axioms_nary(alg, e_idx: int) -> list:
    """D1-D3 for f = q(e, -, ..., -) on a q-signature algebra, plus D3-const."""
    n = alg.n

    def d3_const(env):
        ref = env["x"]
        outs = []
        for k in range(1, n + 1):
            ck = np.full_like(ref, alg.constant_index(k))
            outs.append(alg.q_vec(np.full_like(ref, e_idx), [ck] * n) == ck)
        return np.all(np.stack(outs), axis=0), np.ones_like(ref, dtype=bool)

    factor = _decomposition_axioms(alg, "D", (), lambda env, ref: np.full_like(ref, e_idx))
    return factor + [Axiom("D3-const", ("x",), d3_const)]


def is_element_kind(alg, e, kind, i: int = None, budget=DEFAULT_BUDGET,
                    samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED) -> bool:
    """kind in {"factor", "semicentral", "central"}.

    Exponential assignment spaces fall back to deterministic sampling;
    a True from a sampled run is only probabilistic.
    """
    kind = kind.lower()
    e_idx = e if isinstance(e, int) else alg.index(tuple(e))
    size = alg.size
    labels = _label_tuple(alg)
    if kind == "factor":
        rep = run_suite("FACTOR", _factor_axioms_nary(alg, e_idx), size, labels,
                        budget, samples, seed)
        return rep.ok
    if kind == "semicentral":
        if i is None:
            raise ValueError("semicentral needs the reduct index i")
        rc = reduct(alg, "rchurch", i=i)
        q3, zero = rc.q3, rc.zero
        if int(q3[e_idx, e_idx, zero]) != e_idx:
            return False
        # universally quantified clauses with w pinned to e; RCA and the
        # pointwise q3(e,e,0) = e clause are not part of the w-family
        fixed = []
        for ax in srca_axioms(q3, zero):
            if ax.name in ("RCA", "semicentral"):
                continue

            def chk(env, ax=ax):
                env = dict(env)
                some = next(iter(env.values())) if env else np.zeros(1, dtype=np.int64)
                env["w"] = np.full_like(some, e_idx)
                return ax.check(env)

            fixed.append(Axiom(ax.name, tuple(v for v in ax.varnames if v != "w"), chk))
        rep = run_suite("SEMICENTRAL", fixed, size, labels, budget, samples, seed)
        return rep.ok
    if kind == "central":
        q = alg.q_vec
        ref = np.array([e_idx], dtype=np.int64)
        consts = [np.full_like(ref, alg.constant_index(k)) for k in range(1, alg.n + 1)]
        if int(q(ref, consts)[0]) != e_idx:
            return False
        return is_element_kind(alg, e_idx, "factor", budget=budget,
                               samples=samples, seed=seed)
    raise ValueError(f"unknown element kind {kind!r}")


# -- the comparison ---------------------------------------------------------------


def mutations(n, m, count, seed):
    tab = core.table_of_power(core.power_algebra(n, m))
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        key = tuple(int(v) for v in rng.integers(0, tab.size, size=n + 1))
        out.append(tab.mutate(key, int(rng.integers(0, tab.size))))
    return out


MUTANTS = ([(f"2^3 mutation {t}", alg) for t, alg in enumerate(mutations(2, 3, 5, 21))]
           + [(f"3^2 mutation {t}", alg) for t, alg in enumerate(mutations(3, 2, 5, 22))])
CASES = [("2^2", core.power_algebra(2, 2)), ("3^1", core.power_algebra(3, 1))] + MUTANTS


def suite_pairs(alg):
    """(suite, carrier size, the rows, the reference) for every suite that applies to alg."""
    st = skew.star_of(alg)
    out = [("NBA", alg.size, skew.nba_axioms(alg), nba_axioms(alg)),
           ("SKEW_STAR", alg.size, skew.skew_star_axioms(st), skew_star_axioms(st))]
    for i in range(1, alg.n + 1):
        sk = reduct(alg, "skew", i=i)
        out += [(f"{suite} {i}", alg.size, rows(sk), ref(sk)) for suite, rows, ref in (
            ("SKEW_LATTICE", skew.skew_lattice_axioms, skew_lattice_axioms),
            ("SKEW_BA", skew.skew_ba_axioms, skew_ba_axioms),
            ("RIGHT_HANDED", skew.right_handed_axioms, right_handed_axioms),
            ("SRCA", lambda t: skew.srca_axioms(t.q3, t.zero),
             lambda t: srca_axioms(t.q3, t.zero)))]
    if isinstance(alg, core.PowerAlgebra):
        bt = skew.boolean_center(alg, CenterParams(1, 2)).table
        out.append(("BOOLEAN", bt.size, skew.boolean_axioms(bt), boolean_axioms(bt)))
    return out


def assignment_arrays(nvars, size):
    """Every assignment when there are at most ROWS, else ROWS seeded ones."""
    if size**nvars <= ROWS:
        idx = np.arange(size**nvars, dtype=np.int64)
        return [idx // size**t % size for t in range(nvars)]
    rng = np.random.default_rng(SAMPLE_SEED)
    return [rng.integers(0, size, size=ROWS, dtype=np.int64) for _ in range(nvars)]


@pytest.mark.parametrize("label,alg", CASES, ids=[c[0] for c in CASES])
def test_rows_evaluate_to_the_reference_sides(label, alg):
    for suite, size, rows, ref in suite_pairs(alg):
        assert [a.name for a in rows] == [a.name for a in ref], (label, suite)
        for ax, want in zip(rows, ref):
            assert ax.varnames == want.varnames, (label, suite, ax.name)
            arrays = assignment_arrays(len(ax.varnames), size)
            env = dict(zip(ax.varnames, arrays))
            shape = arrays[0].shape
            for got, exp in zip(ax.check(env), want.check(env)):
                assert np.array_equal(np.broadcast_to(got, shape), exp), (label, suite, ax.name)


KIND_CASES = [("2^3", core.power_algebra(2, 3)), ("3^2", core.power_algebra(3, 2))] + MUTANTS
# the small budget makes the wide clauses sampled, so both modes are compared
BUDGETS = {"budget": 10**4, "samples": 2000}


@pytest.mark.parametrize("label,alg", KIND_CASES, ids=[c[0] for c in KIND_CASES])
def test_element_kinds_match_the_reference(label, alg):
    kinds = [("factor", None), ("central", None)] + [("semicentral", i)
                                                     for i in range(1, alg.n + 1)]
    for e in range(alg.size):
        for kind, i in kinds:
            got = skew.is_element_kind(alg, e, kind, i=i, **BUDGETS)
            assert got == is_element_kind(alg, e, kind, i=i, **BUDGETS), (label, e, kind, i)


def test_the_mutants_break_element_kinds_both_ways():
    """Some answers on the mutants are False and some True, so both sides are compared."""
    seen = {skew.is_element_kind(alg, e, kind, i=1, **BUDGETS)
            for _, alg in MUTANTS[:3] for e in range(alg.size)
            for kind in ("factor", "semicentral")}
    assert seen == {True, False}
