"""Reducts, skew-lattice relations, axiom audits and the Boolean center.

An axiom is a row (name, variables, lhs, rhs) whose sides are operation terms:
a name, or a tuple (op, *args).  A suite binds its rows to one ops dict of
named tables and constants, e.g. {"meet": sk.meet, "0": sk.zero} for the skew
suites, or terms.q_ops(alg) (q and e1..en) for the nBA axioms.  An axiom lowers
its sides once (terms.lower), and its runner computes them over arrays of
carrier indices: terms.run, or for the nBA rows alg.run, which on powers past
core.GATHER_TABLE_MAX with n <= 5 runs them in generator(n) on digit planes.
Constants broadcast as scalars.  Pinning a variable to an element (_pin) moves
it from the variables into ops: that is how the factor and semicentral checks
of an element reuse the suites' rows, each pinned copy with its own program.

Audits evaluate identities over all assignments of carrier elements
(vectorised), falling back to deterministic sampling past a budget.  Past
the budget, the decomposition axioms (NBA B2-B3, SRCA D2-D3 and their
pinned copies) are decided from the operation table instead, when a
static bound on its reads fits the budget (Decomposition).
Assignments stream in chunks of at most 2^16 rows (terms.CHUNK), and an
axiom's check stops at the first chunk that holds a witness
(terms.first_witness, shared with terms.check_identity), so the memory
of an exhaustive audit does not grow with its budget.  They run on raw
tables, so candidate algebras that fail the axioms are first-class
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import terms
from .core import (TABLE_BOUND, PowerAlgebra, TableAlgebra, check_table_bound, element_index,
                   gather)
from .terms import (BINARY, DEFAULT_BUDGET, DEFAULT_SAMPLES, DEFAULT_SEED, SKEW_KINDS,
                    first_witness, q_ops, star_chain, t_branches)
from .transforms import CenterParams


# -- table carriers for the reducts --------------------------------------


class _Labelled:
    def element_label(self, a: int) -> str:
        return self.labels[a]


@dataclass(frozen=True)
class SkewTable(_Labelled):
    """A (meet, join, minus, 0) table algebra; join is the double-bar join.

    A skew i-reduct carries q3 = t_i and is the right Church i-reduct (A, t_i, 0_i) too.
    """

    size: int
    meet: np.ndarray
    join: np.ndarray
    minus: np.ndarray  # minus[a, b] = a \ b
    zero: int
    labels: tuple
    q3: Optional[np.ndarray] = None  # ternary selector, when available
    index: Optional[int] = None  # i of a skew i-reduct, when applicable


@dataclass(frozen=True)
class ChurchTable(_Labelled):
    """(A, t_d, 0_i, 1_j)."""

    size: int
    q3: np.ndarray
    zero: int
    one: int
    labels: tuple
    d: Optional[frozenset] = None


@dataclass(frozen=True)
class StarTable(_Labelled):
    """(A, t_1..t_n, 0_1..0_n): a candidate skew star algebra."""

    n: int
    size: int
    tables: tuple  # n arrays of shape (size, size, size)
    zeros: tuple  # n carrier indices
    labels: tuple


@dataclass(frozen=True)
class BoolTable(_Labelled):
    """A candidate Boolean algebra (meet, join, neg, 0, 1) on indices."""

    size: int
    meet: np.ndarray
    join: np.ndarray
    neg: np.ndarray
    zero: int
    one: int
    labels: tuple


def _label_tuple(alg) -> tuple:
    return tuple(alg.element_label(i) for i in range(alg.size))


@dataclass(frozen=True)
class _Labels:
    """labels[a] is alg.element_label(a), made when read: only a counterexample's are."""

    alg: object

    def __getitem__(self, a: int) -> str:
        return self.alg.element_label(a)


def _subscript(alg, i: int) -> frozenset:
    """{i}, the subscript of t_i and of the i-reducts; ValueError unless i lies in 1..n."""
    if not 1 <= i <= alg.n:
        raise ValueError(f"index {i} out of 1..{alg.n}")
    return frozenset({i})


def _t_table(alg, d: frozenset) -> np.ndarray:
    """Dense table of t_d over carrier indices of a q-algebra."""
    check_table_bound("a t table", alg.size, alg.size**3)
    x, y, z = np.ix_(*[range(alg.size)] * 3)
    return alg.q_vec(x, t_branches(alg.n, d, y, z))


def reduct(alg, kind: str, i: int = None, d=None, j: int = None):
    """Extract a reduct: kind in {"church", "rchurch", "skew"}.

    church needs d, i in d, j outside d; rchurch and skew need i, and give one
    SkewTable: the skew i-reduct, whose selector q3 is the right Church t_i.
    """
    n = alg.n
    if kind in ("skew", "rchurch"):
        t = _t_table(alg, _subscript(alg, i))
        zero = alg.constant_index(i)
        a, b = np.ix_(range(alg.size), range(alg.size))
        meet, join, minus = (gather(t, BINARY[k](a, b, zero, None)) for k in SKEW_KINDS)
        return SkewTable(alg.size, meet, join, minus, zero, _label_tuple(alg), q3=t, index=i)
    if kind == "church":
        dset = frozenset(d)
        if not dset | {i, j} <= set(range(1, n + 1)):
            raise ValueError(f"subscripts d={sorted(dset)}, i={i}, j={j} must lie in 1..{n}")
        if i not in dset or j in dset:
            raise ValueError("church reduct needs i in d and j outside d")
        t = _t_table(alg, dset)
        return ChurchTable(t.shape[0], t, alg.constant_index(i), alg.constant_index(j),
                           _label_tuple(alg), d=dset)
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
    grid = np.ix_(*[range(s)] * (n + 1))
    acc = star_chain(lambda i, x, a, b: gather(st.tables[i - 1], (x, a, b)), grid[0], grid[1:])
    return TableAlgebra(n, s, st.zeros, acc.ravel())


# -- the audit engine -----------------------------------------------------


@dataclass(frozen=True)
class Axiom:
    """lhs = rhs for every value of varnames; both sides are operation terms over ops."""

    name: str
    varnames: tuple
    lhs: object
    rhs: object
    ops: dict = field(compare=False, repr=False)
    # (a Decomposition, 2 or 3) for axiom 2 or 3 of one: y first, then its x row by row
    decomposition: Optional[tuple] = field(default=None, compare=False, repr=False)
    # runs the program over ops: a q algebra's own run, else terms.run
    runner: Callable = field(default=terms.run, compare=False, repr=False)

    @cached_property
    def program(self) -> terms.Program:
        return terms.lower((self.lhs, self.rhs))

    def check(self, env: dict) -> tuple:
        return self.runner(self.program, env, self.ops)


def _axioms(ops: dict, rows, runner: Callable = terms.run) -> list:
    """Axioms from rows (name, variables separated by spaces, lhs, rhs[, decomposition])."""
    return [Axiom(name, tuple(vs.split()), lhs, rhs, ops, *dec, runner=runner)
            for name, vs, lhs, rhs, *dec in rows]


def _pin(ax: Axiom, var: str, value: int) -> Axiom:
    """ax with var no longer quantified but bound to the element value.  A decomposition
    axiom pinned at its decomposing element is decided with it pinned; pinned elsewhere,
    it is not decided."""
    dec = ax.decomposition
    if dec is not None:
        dec = (dec[0].pin(value), dec[1]) if var == ax.varnames[0] else None
    return replace(ax, varnames=tuple(v for v in ax.varnames if v != var),
                   ops={**ax.ops, var: value}, decomposition=dec)


def _op(name: str):
    """A constructor of operation terms (name, *args)."""
    return lambda *args: (name, *args)


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
        return next((a for a in self.axioms if not a.ok), None)

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


# -- decided decomposition axioms --------------------------------------------


def decide_decomposition(f: np.ndarray, selectors: Optional[Sequence] = None,
                         ys: Optional[Sequence] = None) -> tuple:
    """Decide axioms 2 and 3 of _decomposition_rows for f_y = f[y], y in ys (default: all).

    f is the (k+1)-ary table, q in an nBA and t in an SRCA; a θ_{y,r} b iff f_y(b, ...,
    a at r, ..., b) = b.  Axioms 1 and 2 hold at y iff (1) f_y(x, ..., x) = x, (2) each
    θ_{y,r} is an equivalence, (3) the θ_{y,r} intersect in the diagonal and (4) f_y(x)
    θ_{y,r} x_r for every x and r; 3 and 4 give 1.  Given them, f_y commutes with f
    (axiom 3) iff (5) each θ_{y,r} is compatible with f: its labels are the same at every
    argument tuple and at the tuple of its arguments' least class members, read once per
    distinct relation (Salibra, Ledda, Paoli and Kowalski, Algebra Universalis 69, 2013).

    Returns axiom 2's and axiom 3's verdicts: True when proved, else a list of (step,
    candidate witness), the witness being y and then the axiom's x row by row.  Each
    candidate refutes its axiom wherever axiom 1 holds on the elements it reads, so the
    caller re-checks it.  Step 4 gives two: from its first failure, and from its first at
    a constant tuple (x, ..., x).  The second reads axiom 1 only at x and at f_y(x, ..., x),
    so it still re-checks where axiom 1 fails at x alone, as after a one-entry change of a
    diagonal entry f_y(x, ..., x).  When steps 1-4 fail, axiom 3's candidates are axiom 2's
    transposed, x_r0 = σ_r and x_rc = W_cr, for the selectors σ_r with f(σ_r, z_1..z_k)
    = z_r (e_r in an nBA); by B0 and B4 that turns axiom 3 into axiom 2.
    """
    s, k = f.shape[0], f.ndim - 1
    ys = np.arange(s) if ys is None else np.asarray(ys, dtype=np.int64)
    el = np.arange(s)
    a, b = el[:, None], el[None, :]

    def slot(r, u, v):  # (v, ..., u at r, ..., v)
        return [u if c == r else v for c in range(k)]

    def first(mask):
        return np.unravel_index(mask.argmax(), mask.shape) if mask.any() else None

    def witness(j, rows):
        return (int(ys[j]), *(int(x) for row in rows for x in row))

    theta = np.stack([gather(f, [ys[:, None, None], *slot(r, a, b)]) == b for r in range(k)], 1)
    cands = []
    if (at := first(theta & ~theta.swapaxes(2, 3))) is not None:  # u θ v, not v θ u
        j, r, u, v = at
        cands.append(("symmetry", witness(j, [slot(r, u, v) if t == r else [u] * k
                                              for t in range(k)])))
    if (at := first(np.matmul(theta, theta) & ~theta)) is not None:  # u θ v θ w, not u θ w
        j, r, u, w = at
        v = (theta[j, r, u] & theta[j, r, :, w]).argmax()
        cands.append(("transitivity", witness(j, [slot(r, u, v) if t == r else [w] * k
                                                  for t in range(k)])))
    if (at := first(theta.all(1) & (a != b))) is not None:
        j, u, v = at
        cands.append(("intersection", witness(j, [slot(t, u, v) for t in range(k)])))
    grid = np.ix_(*[el] * k)
    jj = np.arange(len(ys)).reshape((-1,) + (1,) * k)
    fx = gather(f, [ys[jj], *grid])
    off = ~np.stack([gather(theta[:, r], [jj, fx, grid[r]]) for r in range(k)], 1)
    fails = [first(off)]
    if (at := first(off[(slice(None),) * 2 + (el,) * k])) is not None:  # at some (x, ..., x)
        fails.append((*at[:2], *[at[2]] * k))
    for j, r, *x in dict.fromkeys(tuple(map(int, at)) for at in fails if at is not None):
        fxv = int(gather(fx, [j, *x]))
        cands.append(("step 4", witness(j, [x if t == r else [fxv] * k for t in range(k)])))
    if cands:
        if selectors is None:
            return cands, []
        transposed = [("transposed", (w[0], *(v for r in range(k) for v in (
            selectors[r], *(w[1 + c * k + r] for c in range(k)))))) for _, w in cands]
        return cands, transposed
    lab = theta.argmax(3).reshape(-1, s)  # the least member of each class
    for i in np.sort(np.unique(lab, axis=0, return_index=True)[1]):
        least = lab[i]
        lo = least[f]
        x = first(lo != gather(lo, np.ix_(*[least] * f.ndim)))
        if x is None:
            continue
        # walk x to its class minima one argument at a time: some step changes the label
        x = [int(v) for v in x]
        for p in range(f.ndim):
            moved = x[:p] + [int(least[x[p]])] + x[p + 1:]
            if gather(lo, x) != gather(lo, moved):
                j, r = divmod(int(i), k)
                return True, [("step 5", witness(j, [x if t == r else moved for t in range(k)]))]
            x = moved
    return True, True


@dataclass(eq=False)
class Decomposition:
    """f_y = table[y] of arity k, for every element y or for y pinned: the decomposition
    operations that axioms 2 and 3 of _decomposition_rows make commute with table itself
    (q in an nBA, t in an SRCA).  The table is built only when a decision reads it."""

    size: int
    k: int
    table: Callable  # () -> the (size,)*(k+1) table
    selectors: Optional[tuple] = None  # σ_r with table(σ_r, z_1..z_k) = z_r, e.g. the e_r
    y: Optional[int] = None  # the pinned decomposing element; None: every element
    _pins: dict = field(default_factory=dict, repr=False)

    def fits(self, budget: int) -> bool:
        """Whether a static bound on the decision's table reads fits budget, and the table
        TABLE_BOUND.  The bound allows each of the k relations of each decomposing element
        k + 2 reads of the table; step 5 makes about 3 per distinct relation, and steps
        1-4 read less."""
        entries = self.size ** (self.k + 1)
        ys = self.size if self.y is None else 1
        return ys * self.k * (self.k + 2) * entries <= budget and entries <= TABLE_BOUND

    @cached_property
    def verdicts(self) -> tuple:
        return decide_decomposition(self.table(), self.selectors,
                                    None if self.y is None else [self.y])

    def pin(self, y: int) -> "Decomposition":
        """This decomposition with y pinned, one per element, so its axioms share a decision."""
        if y not in self._pins:
            self._pins[y] = replace(self, y=y, _pins={})
        return self._pins[y]


def _decided(ax: Axiom, labels) -> Optional[AxiomOutcome]:
    """ax's outcome from its decomposition's verdict: proved, or refuted by the first
    candidate that re-checks through ax.check; None when none does."""
    dec, number = ax.decomposition
    verdict = dec.verdicts[number - 2]
    if verdict is True:
        return AxiomOutcome(ax.name, True, "decided")
    for tried, (_, wit) in enumerate(verdict, 1):
        wit = wit if dec.y is None else wit[1:]
        lhs, rhs = ax.check({name: np.array([a]) for name, a in zip(ax.varnames, wit)})
        if np.any(lhs != rhs):
            cex = {name: labels[a] for name, a in zip(ax.varnames, wit)}
            return AxiomOutcome(ax.name, False, "decided", cex, tried)
    return None


def _run_axiom(ax: Axiom, size: int, labels, budget, samples, seed) -> AxiomOutcome:
    v = len(ax.varnames)
    dec = getattr(ax, "decomposition", None)  # run_suite also takes bare (name, varnames, check)
    if size**v > budget and dec is not None and dec[0].fits(budget):
        out = _decided(ax, labels)
        if out is not None:
            return out
    mode = "exhaustive" if size**v <= budget else "sampled"
    differ = lambda chunk: np.not_equal(*ax.check(dict(zip(ax.varnames, chunk))))
    wit, count = first_witness(v, size, mode, budget, samples, seed, differ)
    if wit is None:
        return AxiomOutcome(ax.name, True, mode, assignments=count)
    cex = {name: labels[a] for name, a in zip(ax.varnames, wit)}
    return AxiomOutcome(ax.name, False, mode, cex, count)


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
    xs = [f"x{t}" for t in range(1, n + 1)]
    rows = [(f"B0[{i}]", " ".join(xs), ("q", f"e{i}", *xs), xs[i - 1]) for i in range(1, n + 1)]
    rows += _decomposition_rows(alg, "B")
    rows.append(("B4", "y", ("q", "y", *(f"e{k}" for k in range(1, n + 1))), "y"))
    return _axioms(q_ops(alg), rows, alg.run)


def _decomposition_rows(alg, prefix: str) -> list:
    """Axioms 1-3 of the n-ary decomposition operation f = q(y, -, ..., -).

    f(x, ..., x) = x; f of the rows of f equals f of the diagonal; f
    commutes with q.  These are the nBA axioms B1-B3; with y pinned to an
    element e they are the factor axioms D1-D3 of e.  Axioms 2 and 3 carry
    alg's Decomposition, with the constants e_r as its selectors.
    """
    n = alg.n
    ks = range(1, n + 1)
    dec = Decomposition(alg.size, n, alg.q_table, tuple(alg.constant_index(k) for k in ks))
    f = _op("q")
    y = lambda *args: f("y", *args)
    x = lambda r, c: f"x{r}{c}"
    return [
        (f"{prefix}1", "y x", y(*["x"] * n), "x"),
        (f"{prefix}2", " ".join(["y"] + [x(r, c) for r in ks for c in ks]),
         y(*(y(*(x(r, c) for c in ks)) for r in ks)), y(*(x(k, k) for k in ks)), (dec, 2)),
        (f"{prefix}3", " ".join(["y"] + [x(r, c) for r in ks for c in range(n + 1)]),
         y(*(f(*(x(r, c) for c in range(n + 1))) for r in ks)),
         f(*(y(*(x(r, c) for r in ks)) for c in range(n + 1))), (dec, 3)),
    ]


def skew_lattice_axioms(sk: SkewTable) -> list:
    m, j = _op("meet"), _op("join")
    return _axioms({"meet": sk.meet, "join": sk.join}, [
        ("assoc-meet", "x y z", m(m("x", "y"), "z"), m("x", m("y", "z"))),
        ("assoc-join", "x y z", j(j("x", "y"), "z"), j("x", j("y", "z"))),
        ("idem-meet", "x", m("x", "x"), "x"),
        ("idem-join", "x", j("x", "x"), "x"),
        ("absorb-1", "x y", j("x", m("x", "y")), "x"),
        ("absorb-2", "x y", m("x", j("x", "y")), "x"),
        ("absorb-3", "x y", j(m("y", "x"), "x"), "x"),
        ("absorb-4", "x y", m(j("y", "x"), "x"), "x"),
    ])


def skew_ba_axioms(sk: SkewTable) -> list:
    m, j, minus = _op("meet"), _op("join"), _op("minus")
    xyx = m(m("x", "y"), "x")
    ops = {"meet": sk.meet, "join": sk.join, "minus": sk.minus, "0": sk.zero}
    return skew_lattice_axioms(sk) + _axioms(ops, [
        ("S1-normality", "x y z", m(m(m("x", "y"), "z"), "x"), m(m(m("x", "z"), "y"), "x")),
        ("S1-dist-left", "x y z", m("x", j("y", "z")), j(m("x", "y"), m("x", "z"))),
        ("S1-dist-right", "x y z", m(j("y", "z"), "x"), j(m("y", "x"), m("z", "x"))),
        ("S2-zero-left", "x", m("0", "x"), "0"),
        ("S2-zero-right", "x", m("x", "0"), "0"),
        ("S3-join-1", "x y", j(xyx, minus("x", "y")), "x"),
        ("S3-join-2", "x y", j(minus("x", "y"), xyx), "x"),
        ("S3-meet-1", "x y", m(xyx, minus("x", "y")), "0"),
        ("S3-meet-2", "x y", m(minus("x", "y"), xyx), "0"),
    ])


def right_handed_axioms(sk: SkewTable) -> list:
    m = _op("meet")
    return _axioms({"meet": sk.meet},
                   [("right-handed", "a b", m(m("a", "b"), "a"), m("b", "a"))])


def srca_axioms(q3: np.ndarray, zero: int, prefix: str = "") -> list:
    """D1-D3 say that t(w, -, -) is a binary decomposition operation commuting with t."""
    t = _op("t")
    dec = Decomposition(len(q3), 2, lambda: q3)
    return _axioms({"t": q3, "0": zero}, [
        (prefix + "RCA", "x y", t("0", "x", "y"), "y"),
        (prefix + "semicentral", "x", t("x", "x", "0"), "x"),
        (prefix + "D1", "w x", t("w", "x", "x"), "x"),
        (prefix + "D2", "w a b c d", t("w", t("w", "a", "b"), t("w", "c", "d")), t("w", "a", "d"),
         (dec, 2)),
        (prefix + "D3", "w a1 b1 c1 a2 b2 c2",
         t("w", t("a1", "b1", "c1"), t("a2", "b2", "c2")),
         t(t("w", "a1", "a2"), t("w", "b1", "b2"), t("w", "c1", "c2")), (dec, 3)),
        (prefix + "D3-const", "w", t("w", "0", "0"), "0"),
    ])


def skew_star_axioms(st: StarTable) -> list:
    """N0-N5 over the operations t1..tn and the constants 01..0n."""
    n = st.n
    ks = range(1, n + 1)
    t = {i: _op(f"t{i}") for i in ks}
    rows = [(f"N1[{i},{j}]", "y z", t[i](f"0{j}", "y", "z"), "y")
            for i in ks for j in ks if j != i]
    chain = lambda ys: star_chain(lambda s, x, a, b: t[s](x, a, b), "x", ys)
    rows.append(("N2", "x", chain([f"0{s}" for s in ks]), "x"))
    rows += [(f"N3[{i},{j}]", "x y z u", t[i]("x", t[j]("x", "y", "z"), "u"),
              t[j]("x", t[i]("x", "y", "u"), "z")) for i in ks for j in range(i + 1, n + 1)]
    # N4[i]: t1(x, t2(x, ... ti(x, t{i+1}(x, ... tn(x, y, y) ..., y), z) ..., y), y)
    rows += [(f"N4[{i}]", "x y z", chain(t_branches(n, {i}, "y", "z") + ("y",)),
              t[i]("x", "y", "z")) for i in ks]
    rows += [(f"N5[{i},{j}]", "x y1 y2 y3 z1 z2 z3",
              t[i]("x", t[j]("y1", "y2", "y3"), t[j]("z1", "z2", "z3")),
              t[j](t[i]("x", "y1", "z1"), t[i]("x", "y2", "z2"), t[i]("x", "y3", "z3")))
             for i in ks for j in ks if i != j]
    ops = {f"t{i}": st.tables[i - 1] for i in ks} | {f"0{i}": st.zeros[i - 1] for i in ks}
    n0 = [ax for i in ks for ax in srca_axioms(st.tables[i - 1], st.zeros[i - 1], f"N0[{i}]-")]
    return n0 + _axioms(ops, rows)


def boolean_axioms(bt: BoolTable) -> list:
    m, j, neg = _op("meet"), _op("join"), _op("neg")
    ops = {"meet": bt.meet, "join": bt.join, "neg": bt.neg, "0": bt.zero, "1": bt.one}
    return _axioms(ops, [
        ("comm-meet", "x y", m("x", "y"), m("y", "x")),
        ("comm-join", "x y", j("x", "y"), j("y", "x")),
        ("assoc-meet", "x y z", m(m("x", "y"), "z"), m("x", m("y", "z"))),
        ("assoc-join", "x y z", j(j("x", "y"), "z"), j("x", j("y", "z"))),
        ("absorb-1", "x y", m("x", j("x", "y")), "x"),
        ("absorb-2", "x y", j("x", m("x", "y")), "x"),
        ("dist", "x y z", m("x", j("y", "z")), j(m("x", "y"), m("x", "z"))),
        ("compl-meet", "x", m("x", neg("x")), "0"),
        ("compl-join", "x", j("x", neg("x")), "1"),
        ("bottom", "x", m("x", "0"), "0"),
        ("top", "x", j("x", "1"), "1"),
    ])


def _srca_of(t) -> list:
    if t.q3 is None:
        raise TypeError("this skew table carries no ternary selector")
    return srca_axioms(t.q3, t.zero)


# suite name -> (accepted types, what the suite needs, axiom builder)
SUITES = {
    "SKEW_LATTICE": (SkewTable, "a skew-signature table", skew_lattice_axioms),
    "SKEW_BA": (SkewTable, "a skew-signature table", skew_ba_axioms),
    "RIGHT_HANDED": (SkewTable, "a skew-signature table", right_handed_axioms),
    "SRCA": (SkewTable, "a ternary-selector table", _srca_of),
    "NBA": ((PowerAlgebra, TableAlgebra), "a q-signature algebra", nba_axioms),
    "SKEW_STAR": (StarTable, "a star table", skew_star_axioms),
    "BOOLEAN": (BoolTable, "a Boolean table", boolean_axioms),
}


def check_axioms(obj, suite: str, budget=DEFAULT_BUDGET, samples=DEFAULT_SAMPLES,
                 seed=DEFAULT_SEED) -> AxiomReport:
    """Run an axiom suite against a table-backed algebra or reduct."""
    suite = suite.upper()
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    types, needs, build = SUITES[suite]
    if not isinstance(obj, types):
        raise TypeError(f"{suite} suite needs {needs}")
    return run_suite(suite, build(obj), obj.size, _Labels(obj), budget, samples, seed)


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


def relations(sk: SkewTable) -> RelationBundle:
    rep = check_axioms(sk, "SKEW_LATTICE")
    if not rep.ok:
        raise AuditFailure(rep)
    m = sk.meet
    s = sk.size
    a, b = np.ix_(range(s), range(s))
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
    """rel an equivalence matrix (ValueError otherwise); check its blocks respect each table."""
    from .ideals import _least_labels, _violations

    lab = _least_labels(rel)
    return all(_violations(tab, lab)[0].size == 0 for tab in tables)


# -- element classification --------------------------------------------------


def _factor_axioms(alg, e: int) -> list:
    """D1-D3 of f = q(e, -, ..., -), which are B1-B3 with y pinned to e, and D3-const."""
    d1, d2, d3 = (_pin(ax, "y", e)
                  for ax in _axioms(q_ops(alg), _decomposition_rows(alg, "D"), alg.run))
    # D3-const: f(e_k, ..., e_k) = e_k for each k, that is D1 at the constants
    const = replace(d1, name="D3-const")
    return [d1, d2, d3] + [_pin(const, "x", alg.constant_index(k)) for k in range(1, alg.n + 1)]


def is_element_kind(alg, e, kind, i: int = None, budget=DEFAULT_BUDGET,
                    samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED) -> bool:
    """kind in {"factor", "semicentral", "central"}.

    The decomposition clauses with e pinned are decided from the table when
    its reads fit budget (Decomposition): at the default budget on 3^2, 2^5,
    3^3 and 2^6, not on 4^2.  Other exponential assignment spaces fall back to
    deterministic sampling; a True from a sampled run is only probabilistic.
    """
    kind = kind.lower()
    e = element_index(alg, e)
    if kind == "semicentral":
        if i is None:
            raise ValueError("semicentral needs the reduct index i")
        # t_i(e, e, 0_i) = e at e itself, then the clauses quantified over w, with w pinned to e
        t = _t_table(alg, _subscript(alg, i))
        _rca, semi, *family = srca_axioms(t, alg.constant_index(i))
        axs = [_pin(semi, "x", e)] + [_pin(ax, "w", e) for ax in family]
    elif kind == "factor":
        axs = _factor_axioms(alg, e)
    elif kind == "central":  # q(e, e1, ..., en) = e, which is B4 at e, and e is a factor
        axs = [_pin(nba_axioms(alg)[-1], "y", e)] + _factor_axioms(alg, e)
    else:
        raise ValueError(f"unknown element kind {kind!r}")
    labels = _Labels(alg)
    return all(_run_axiom(ax, alg.size, labels, budget, samples, seed).ok for ax in axs)


# -- Boolean center -----------------------------------------------------------


@dataclass(frozen=True)
class BooleanCenter:
    members: tuple  # carrier indices of the base algebra, sorted
    table: BoolTable
    loc: np.ndarray = field(compare=False, repr=False)  # local index per base index, -1 off it

    @property
    def size(self) -> int:
        return len(self.members)

    def local(self, base_idx):
        """Local indices of base carrier indices (an int or an array); ValueError off the center."""
        t = self.loc[base_idx]
        if np.any(t < 0):
            off = np.asarray(base_idx)[t < 0].min()
            raise ValueError(f"carrier index {off} lies outside the Boolean center")
        return t

    def atoms(self) -> list:
        """Local indices of the atoms (covers of the bottom)."""
        z = self.table.zero
        below = self.table.meet == np.arange(self.size)[:, None]  # below[b, a]: b <= a
        below[z] = False
        np.fill_diagonal(below, False)
        return np.flatnonzero(~below.any(0) & (np.arange(self.size) != z)).tolist()


def boolean_center(alg, cp: CenterParams) -> BooleanCenter:
    """The Boolean algebra on {x : x meet_i e_j = x}, read off the t_i table (BINARY)."""
    i, j = cp.i, cp.j
    t = _t_table(alg, _subscript(alg, i))  # bounded before any constant is read
    ei, ej = alg.constant_index(i), alg.constant_index(j)
    carrier = np.arange(alg.size)
    members = carrier[gather(t, (carrier, ej, ei)) == carrier]
    loc = np.full(alg.size, -1, dtype=np.int64)  # local index, -1 off the center
    loc[members] = np.arange(len(members))
    a, b = np.ix_(members, members)
    ops = {"meet": gather(t, BINARY["and"](a, b, ei, None)),
           "join": gather(t, BINARY["bv"](a, b, ei, None)),
           "negation": gather(t, (members, ei, ej))}  # -x = t_i(x, e_i, e_j)
    for name, out in ops.items():
        bad = np.argwhere(loc[out] < 0)
        if bad.size:
            args = ", ".join(alg.element_label(x) for x in members[bad[0]])
            raise ValueError(f"the Boolean center is not closed under {name}: {name}({args})"
                             f" = {alg.element_label(gather(out, bad[0]))} lies outside it")
    for k, e in ((i, ei), (j, ej)):
        if loc[e] < 0:
            raise ValueError(f"the Boolean center does not contain e{k}")
    bt = BoolTable(len(members), loc[ops["meet"]], loc[ops["join"]], loc[ops["negation"]],
                   int(loc[ei]), int(loc[ej]), tuple(map(alg.element_label, members)))
    return BooleanCenter(tuple(int(x) for x in members), bt, loc)


# -- factor congruences of an element ------------------------------------------


def factor_congruences_of(alg, e, i: int):
    """The pair (phi, phi-bar) induced by e in the right Church i-reduct: fe[a, b] =
    t_i(e, a, b) is one q_vec over the open pair grid, held to TABLE_BOUND."""
    from .ideals import blocks_to_congruence

    d, e, size = _subscript(alg, i), element_index(alg, e), alg.size
    check_table_bound("the factor table", size, size * size)
    a, b = np.ix_(range(size), range(size))
    fe = alg.q_vec(e, t_branches(alg.n, d, a, b))
    return blocks_to_congruence(alg, fe == a), blocks_to_congruence(alg, fe == b)
