"""Reducts, skew-lattice relations, axiom audits and the Boolean center.

Audits evaluate identities over all assignments of carrier elements
(vectorised), falling back to deterministic sampling past a budget.
Assignments stream in chunks of at most 2^16 rows (terms.CHUNK), and an
axiom's check stops at the first chunk that holds a witness, so the
memory of an exhaustive audit does not grow with its budget.  They run
on raw tables, so candidate algebras that fail the axioms are
first-class inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import PowerAlgebra, TableAlgebra
from .terms import DEFAULT_BUDGET, DEFAULT_SAMPLES, DEFAULT_SEED, assignment_chunks
from .transforms import CenterParams


# -- table carriers for the reducts --------------------------------------


@dataclass(frozen=True)
class SkewTable:
    """A (meet, join, minus, 0) table algebra; join is the double-bar join."""

    size: int
    meet: np.ndarray
    join: np.ndarray
    minus: np.ndarray  # minus[a, b] = a \ b
    zero: int
    labels: tuple
    q3: Optional[np.ndarray] = None  # ternary selector, when available
    base: object = field(default=None, compare=False)
    index: Optional[int] = None  # i of a skew i-reduct, when applicable

    def element_label(self, a: int) -> str:
        return self.labels[a]


@dataclass(frozen=True)
class RightChurchTable:
    """(A, t, 0): a candidate semicentral right Church algebra."""

    size: int
    q3: np.ndarray
    zero: int
    labels: tuple
    base: object = field(default=None, compare=False)
    index: Optional[int] = None

    def element_label(self, a: int) -> str:
        return self.labels[a]


@dataclass(frozen=True)
class ChurchTable:
    """(A, t_d, 0_i, 1_j)."""

    size: int
    q3: np.ndarray
    zero: int
    one: int
    labels: tuple
    base: object = field(default=None, compare=False)
    d: Optional[frozenset] = None

    def element_label(self, a: int) -> str:
        return self.labels[a]


@dataclass(frozen=True)
class StarTable:
    """(A, t_1..t_n, 0_1..0_n): a candidate skew star algebra."""

    n: int
    size: int
    tables: tuple  # n arrays of shape (size, size, size)
    zeros: tuple  # n carrier indices
    labels: tuple

    def element_label(self, a: int) -> str:
        return self.labels[a]

    def t(self, i: int, x, y, z):
        return self.tables[i - 1][x, y, z]


@dataclass(frozen=True)
class BoolTable:
    """A candidate Boolean algebra (meet, join, neg, 0, 1) on indices."""

    size: int
    meet: np.ndarray
    join: np.ndarray
    neg: np.ndarray
    zero: int
    one: int
    labels: tuple

    def element_label(self, a: int) -> str:
        return self.labels[a]


def _label_tuple(alg) -> tuple:
    return tuple(alg.element_label(i) for i in range(alg.size))


def _t_table(alg, d: frozenset) -> np.ndarray:
    """Dense table of t_d over carrier indices of a q-algebra."""
    s = alg.size
    x, y, z = np.indices((s, s, s)).reshape(3, -1)
    branches = [z if k in d else y for k in range(1, alg.n + 1)]
    return alg.q_vec(x, branches).reshape(s, s, s)


def reduct(alg, kind: str, i: int = None, d=None, j: int = None):
    """Extract a reduct: kind in {"church", "rchurch", "skew"}.

    church needs d, i in d, j outside d; rchurch and skew need i.
    """
    n = alg.n
    if kind == "skew":
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of 1..{n}")
        dset = frozenset({i})
        t = _t_table(alg, dset)
        zero = alg.constant_index(i)
        s = t.shape[0]
        a, b = np.indices((s, s))
        meet = t[a, b, np.full_like(a, zero)]
        join = t[a, a, b]
        minus = t[b, np.full_like(a, zero), a]  # a \ b = t(b, 0, a)
        return SkewTable(s, meet, join, minus, zero, _label_tuple(alg),
                         q3=t, base=alg, index=i)
    if kind == "rchurch":
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of 1..{n}")
        t = _t_table(alg, frozenset({i}))
        return RightChurchTable(t.shape[0], t, alg.constant_index(i), _label_tuple(alg),
                                base=alg, index=i)
    if kind == "church":
        dset = frozenset(d)
        if i not in dset or (j in dset) or not dset:
            raise ValueError("church reduct needs i in d and j outside d")
        t = _t_table(alg, dset)
        return ChurchTable(t.shape[0], t, alg.constant_index(i), alg.constant_index(j),
                           _label_tuple(alg), base=alg, d=dset)
    raise ValueError(f"unknown reduct kind {kind!r}")


def star_of(alg) -> StarTable:
    """Table-level skew-star companion: all singleton t_i plus their zeros."""
    n = alg.n
    tables = tuple(_t_table(alg, frozenset({i})) for i in range(1, n + 1))
    zeros = tuple(alg.constant_index(i) for i in range(1, n + 1))
    return StarTable(n, alg.size, tables, zeros, _label_tuple(alg))


def nba_of_star(st: StarTable) -> TableAlgebra:
    """Table-level companion in the other direction, via the nested selector."""
    n, s = st.n, st.size
    grids = np.indices((s,) * (n + 1)).reshape(n + 1, -1)
    x, ys = grids[0], grids[1:]
    acc = ys[n - 1]
    for i in range(n - 1, 0, -1):
        acc = st.tables[i - 1][x, acc, ys[i - 1]]
    return TableAlgebra(n, s, st.zeros, tuple(int(v) for v in acc))


# -- the audit engine -----------------------------------------------------


@dataclass(frozen=True)
class Axiom:
    name: str
    varnames: tuple
    check: Callable  # (env: dict name->array) -> (lhs, rhs) arrays


@dataclass
class AxiomOutcome:
    name: str
    ok: bool
    mode: str
    counterexample: Optional[dict] = None
    assignments: int = 0  # evaluated; fewer than all when refuted early


@dataclass
class AxiomReport:
    suite: str
    axioms: list
    size: int

    @property
    def ok(self) -> bool:
        return all(a.ok for a in self.axioms)

    @property
    def sampled(self) -> bool:
        return any(a.mode == "sampled" for a in self.axioms)

    def first_failure(self) -> Optional[AxiomOutcome]:
        for a in self.axioms:
            if not a.ok:
                return a
        return None

    def to_json(self) -> dict:
        out = {
            "suite": self.suite,
            "ok": self.ok,
            "axioms": [
                {"name": a.name, "ok": a.ok, "mode": a.mode}
                for a in self.axioms
            ],
        }
        fail = self.first_failure()
        if fail is not None:
            out["counterexample"] = {"axiom": fail.name, **fail.counterexample}
        return out


def _run_axiom(ax: Axiom, size: int, labels, budget, samples, seed) -> AxiomOutcome:
    v = len(ax.varnames)
    mode = "exhaustive" if size**v <= budget else "sampled"
    count = 0
    for chunk in assignment_chunks(v, size, mode, budget, samples, seed):
        lhs, rhs = ax.check(dict(zip(ax.varnames, chunk)))
        differ = np.asarray(lhs) != np.asarray(rhs)
        count += differ.size
        bad = np.flatnonzero(differ)
        if bad.size:
            b = int(bad[0])
            cex = {name: labels[int(arr[b])] for name, arr in zip(ax.varnames, chunk)}
            return AxiomOutcome(ax.name, False, mode, cex, count)
    return AxiomOutcome(ax.name, True, mode, assignments=count)


def run_suite(suite_name: str, axioms: Sequence[Axiom], size: int, labels,
              budget=DEFAULT_BUDGET, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED) -> AxiomReport:
    return AxiomReport(
        suite_name,
        [_run_axiom(ax, size, labels, budget, samples, seed) for ax in axioms],
        size,
    )


# -- axiom suites ----------------------------------------------------------


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


SUITES = ("SKEW_LATTICE", "SKEW_BA", "RIGHT_HANDED", "SRCA", "NBA", "SKEW_STAR", "BOOLEAN")


def check_axioms(obj, suite: str, budget=DEFAULT_BUDGET, samples=DEFAULT_SAMPLES,
                 seed=DEFAULT_SEED) -> AxiomReport:
    """Run an axiom suite against a table-backed algebra or reduct."""
    suite = suite.upper()
    if suite == "NBA":
        if not isinstance(obj, (PowerAlgebra, TableAlgebra)):
            raise TypeError("NBA suite needs a q-signature algebra")
        return run_suite("NBA", nba_axioms(obj), obj.size, _label_tuple(obj),
                         budget, samples, seed)
    if suite in ("SKEW_LATTICE", "SKEW_BA", "RIGHT_HANDED"):
        if not isinstance(obj, SkewTable):
            raise TypeError(f"{suite} suite needs a skew-signature table")
        axs = {
            "SKEW_LATTICE": skew_lattice_axioms,
            "SKEW_BA": skew_ba_axioms,
            "RIGHT_HANDED": right_handed_axioms,
        }[suite](obj)
        return run_suite(suite, axs, obj.size, obj.labels, budget, samples, seed)
    if suite == "SRCA":
        if isinstance(obj, SkewTable):
            if obj.q3 is None:
                raise TypeError("this skew table carries no ternary selector")
            q3, zero, size, labels = obj.q3, obj.zero, obj.size, obj.labels
        elif isinstance(obj, RightChurchTable):
            q3, zero, size, labels = obj.q3, obj.zero, obj.size, obj.labels
        else:
            raise TypeError("SRCA suite needs a ternary-selector table")
        return run_suite("SRCA", srca_axioms(q3, zero), size, labels,
                         budget, samples, seed)
    if suite == "SKEW_STAR":
        if not isinstance(obj, StarTable):
            raise TypeError("SKEW_STAR suite needs a star table")
        return run_suite("SKEW_STAR", skew_star_axioms(obj), obj.size, obj.labels,
                         budget, samples, seed)
    if suite == "BOOLEAN":
        if not isinstance(obj, BoolTable):
            raise TypeError("BOOLEAN suite needs a Boolean table")
        return run_suite("BOOLEAN", boolean_axioms(obj), obj.size, obj.labels,
                         budget, samples, seed)
    raise ValueError(f"unknown suite {suite!r}")


# -- skew-lattice relations -------------------------------------------------


@dataclass(frozen=True)
class RelationBundle:
    leq: np.ndarray  # natural partial order
    preceq: np.ndarray
    preceq_l: np.ndarray
    preceq_r: np.ndarray
    d_rel: np.ndarray
    l_rel: np.ndarray
    r_rel: np.ndarray
    right_handed: bool
    left_handed: bool


class AuditFailure(RuntimeError):
    def __init__(self, report: AxiomReport):
        self.report = report
        fail = report.first_failure()
        super().__init__(f"{report.suite} audit failed at {fail.name}: {fail.counterexample}")


def relations(sk: SkewTable, budget=DEFAULT_BUDGET) -> RelationBundle:
    rep = check_axioms(sk, "SKEW_LATTICE", budget=budget)
    if not rep.ok:
        raise AuditFailure(rep)
    m = sk.meet
    s = sk.size
    a, b = np.indices((s, s))
    leq = (m[a, b] == a) & (m[b, a] == a)
    preceq = m[m[a, b], a] == a
    pl = m[a, b] == a
    pr = m[b, a] == a
    d = preceq & preceq.T
    l = pl & pl.T
    r = pr & pr.T
    rh_ident = bool(np.all(m[m[a, b], a] == m[b, a]))
    lh_ident = bool(np.all(m[m[a, b], a] == m[a, b]))
    right_handed = bool(np.array_equal(r, d))
    left_handed = bool(np.array_equal(l, d))
    if right_handed != rh_ident or left_handed != lh_ident:
        raise ValueError("handedness from the relations disagrees with the identities")
    return RelationBundle(leq, preceq, pl, pr, d, l, r, right_handed, left_handed)


def equivalence_is_congruence(rel: np.ndarray, tables: Sequence[np.ndarray]) -> bool:
    """rel an equivalence matrix; check block-respecting under binary tables."""
    s = rel.shape[0]
    for tab in tables:
        for x, y in itertools.product(range(s), repeat=2):
            if not rel[x, y]:
                continue
            if not (rel[tab[x], tab[y]].all() and rel[tab[:, x], tab[:, y]].all()):
                return False
    return True


# -- element classification --------------------------------------------------


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


# -- Boolean center -----------------------------------------------------------


@dataclass(frozen=True)
class BooleanCenter:
    alg: PowerAlgebra
    cp: CenterParams
    members: tuple  # carrier indices of the base algebra, sorted
    table: BoolTable

    @property
    def size(self) -> int:
        return len(self.members)

    def contains(self, idx: int) -> bool:
        return idx in set(self.members)

    def local(self, base_idx: int) -> int:
        return self.members.index(base_idx)

    def atoms(self) -> list:
        """Local indices of the atoms (covers of the bottom)."""
        m = self.table.meet
        z = self.table.zero
        out = []
        for a in range(self.size):
            if a == z:
                continue
            below = [b for b in range(self.size)
                     if b not in (z, a) and m[b, a] == b]
            if not below:
                out.append(a)
        return out

    def leq(self, a: int, b: int) -> bool:
        return int(self.table.meet[a, b]) == a


def boolean_center(alg, cp: CenterParams) -> BooleanCenter:
    """The Boolean algebra on {x : x meet_i e_j = x}."""
    i, j = cp.i, cp.j
    sk = reduct(alg, "skew", i=i)
    ej = alg.constant_index(j)
    ei = sk.zero
    carrier = np.arange(sk.size)
    members = carrier[sk.meet[carrier, ej] == carrier]
    loc = np.full(sk.size, -1, dtype=np.int64)  # local index, -1 off the center
    loc[members] = np.arange(len(members))
    grid = np.ix_(members, members)
    ops = {"meet": sk.meet[grid], "join": sk.join[grid],
           "negation": sk.q3[members, ei, ej]}  # -x = t_i(x, e_i, e_j)
    for name, out in ops.items():
        bad = np.argwhere(loc[out] < 0)
        if bad.size:
            args = ", ".join(sk.labels[a] for a in members[bad[0]])
            raise ValueError(f"the Boolean center is not closed under {name}: {name}({args})"
                             f" = {sk.labels[out[tuple(bad[0])]]} lies outside it")
    for k, e in ((i, ei), (j, ej)):
        if loc[e] < 0:
            raise ValueError(f"the Boolean center does not contain e{k}")
    labels = tuple(sk.labels[a] for a in members)
    bt = BoolTable(len(members), loc[ops["meet"]], loc[ops["join"]], loc[ops["negation"]],
                   int(loc[ei]), int(loc[ej]), labels)
    return BooleanCenter(alg, cp, tuple(int(a) for a in members), bt)


# -- factor congruences of an element ------------------------------------------


def factor_congruences_of(alg, e, i: int):
    """The pair (phi, phi-bar) induced by e in the right Church i-reduct."""
    from .ideals import Congruence, blocks_to_congruence

    e_idx = e if isinstance(e, int) else alg.index(tuple(e))
    rc = reduct(alg, "rchurch", i=i)
    q3 = rc.q3
    size = rc.size
    a, b = np.indices((size, size))
    phi = q3[np.full_like(a, e_idx), a, b] == a
    phibar = q3[np.full_like(a, e_idx), a, b] == b
    return (
        blocks_to_congruence(alg, phi),
        blocks_to_congruence(alg, phibar),
    )
