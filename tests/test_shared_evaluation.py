"""Shared-node evaluation against the recursive tree walkers it replaces.

The oracle below is the earlier recursive elaborate, op_term and evaluate,
kept verbatim: they walk a term as a tree, so a subterm reachable through
several parents is rewritten and evaluated once per path.  The walkers of
nbalab.terms fold over the term as a DAG and visit each distinct node once
per chunk; verdicts, modes and witnesses must not change.  Also here: the
count of q calls per chunk, the memory a walk holds, the full-power q_vec
against the digit kernel on each side of core.GATHER_TABLE_MAX, terms
nested deeper than the recursion limit, to_skew against its recursive
form, and star translation of a star form.  The oracle's q on elements is
q's per-point definition, against which PowerAlgebra.q, eval_term and
t_eval are checked, with eval_term's order of errors.
"""

import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nbalab import core, skew, synthesis, terms, transforms
from nbalab.cli import main
from nbalab.terms import (BINARY, Bin, Const, Q, T, TermError, Var, Verdict, children,
                          t_branches)


# -- the oracle: the recursive tree walkers, verbatim ---------------------------


def elaborate(t, n: int):
    """Rewrite T/Bin nodes into their defining Q form."""
    if isinstance(t, (Var, Const)):
        return t
    if isinstance(t, Bin) and not t.d:
        raise TermError("empty subscript")
    if not (isinstance(t, (Q, T)) or isinstance(t, Bin) and t.kind in BINARY):
        raise TermError(f"unknown node {t!r}")
    args = [elaborate(s, n) for s in children(t)]
    if isinstance(t, Q):
        return Q(args[0], tuple(args[1:]))
    if isinstance(t, Bin):
        outside = set(range(1, n + 1)) - t.d
        one = Const(min(outside), "e") if outside else None  # 1_j, j smallest outside d
        args = BINARY[t.kind](*args, Const(min(t.d), "0"), one)
        if any(a is None for a in args):
            raise TermError(f"{t.kind} needs an index outside the subscript")
    x, y, z = args
    return Q(x, t_branches(n, t.d, y, z))


def evaluate(t, env: dict, ops: dict):
    """Evaluate an operation term: a name (env, then ops) or a tuple (op, *args)."""
    if isinstance(t, str):
        if t in env:
            return env[t]
        if t in ops:
            return ops[t]
        raise TermError(f"unbound variable {t!r}")
    op, args = ops[t[0]], [evaluate(a, env, ops) for a in t[1:]]
    return op[tuple(args)] if isinstance(op, np.ndarray) else op(*args)


def op_term(t, n: int):
    """An elaborated q-signature term as an operation term over q_ops."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return f"e{t.k}"
    if len(t.branches) != n:
        raise TermError(f"q node has {len(t.branches)} branches, expected {n}")
    return ("q", *(op_term(s, n) for s in children(t)))


def oracle_check_identity(lhs, rhs, n, mode="exhaustive", budget=terms.DEFAULT_BUDGET,
                          samples=terms.DEFAULT_SAMPLES, seed=terms.DEFAULT_SEED) -> Verdict:
    """check_identity over the tree walkers and the generator's digit kernel."""
    gen = core.generator(n)
    ops = {f"e{k}": gen.constant_index(k) for k in range(1, n + 1)}
    ops["q"] = lambda s, *ys: gen._q_codes(s, ys)
    left, right = (op_term(elaborate(t, n), n) for t in (lhs, rhs))
    names = list(dict.fromkeys(terms.free_vars(lhs) + terms.free_vars(rhs)))
    drawn = {"samples": samples, "seed": seed} if mode == "sampled" else {}

    def differ(chunk):
        env = dict(zip(names, chunk))
        return evaluate(left, env, ops) != evaluate(right, env, ops)

    wit, _ = terms.first_witness(len(names), n, mode, budget, samples, seed, differ)
    if wit is None:
        return Verdict(True, mode, **drawn)
    cex = {name: f"e{v + 1}" for name, v in zip(names, wit)}
    return Verdict(False, mode, counterexample=cex, **drawn)


def both_verdicts(lhs, rhs, n, **kw):
    """(engine verdict, oracle verdict); "budget" for each that exceeds the budget."""
    out = []
    for check in (terms.check_identity, oracle_check_identity):
        try:
            out.append(check(lhs, rhs, n, **kw))
        except terms.BudgetExceeded:
            out.append("budget")
    return tuple(out)


# -- B0-B4 as q-terms, and broken variants ----------------------------------------


def nba_identities(n: int) -> dict:
    """B0[i]..B4 as parsed q-terms (lhs, rhs)."""
    ks = range(1, n + 1)
    xs = ",".join(f"x{k}" for k in ks)
    q = lambda *args: "q(" + ",".join(args) + ")"
    x = lambda r, c: f"x{r}{c}"
    rows = {f"B0[{i}]": (q(f"e{i}", xs), f"x{i}") for i in ks}
    rows["B1"] = (q("y", *["x"] * n), "x")
    rows["B2"] = (q("y", *(q("y", *(x(r, c) for c in ks)) for r in ks)),
                  q("y", *(x(k, k) for k in ks)))
    rows["B3"] = (q("y", *(q(*(x(r, c) for c in range(n + 1))) for r in ks)),
                  q(*(q("y", *(x(r, c) for r in ks)) for c in range(n + 1))))
    rows["B4"] = (q("y", *(f"e{k}" for k in ks)), "y")
    return {name: (terms.parse_term(a, n), terms.parse_term(b, n)) for name, (a, b) in rows.items()}


def swap_two_branches(t, rng):
    """t with two branches of one of its q nodes swapped, or None if it has none."""
    nodes = [s for s in terms.subterms(t) if isinstance(s, Q)]
    if not nodes:
        return None
    target = nodes[int(rng.integers(len(nodes)))]
    a, b = rng.choice(len(target.branches), 2, replace=False)
    branches = list(target.branches)
    branches[a], branches[b] = branches[b], branches[a]
    swapped = Q(target.scrutinee, tuple(branches))
    return terms.fold(t, children, lambda s, args: swapped if s is target else
                      Q(args[0], tuple(args[1:])) if isinstance(s, Q) else s)


IDENTITY_CASES = [(n, name) for n in (2, 3, 4) for name in nba_identities(n)]


@pytest.mark.parametrize("n,name", IDENTITY_CASES)
@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_nba_identities_and_broken_variants_match_the_tree_oracle(n, name, mode, monkeypatch):
    monkeypatch.setattr(terms, "CHUNK", 50)  # several chunks, so no value may cross one
    lhs, rhs = nba_identities(n)[name]
    kw = dict(mode=mode, budget=3**9, samples=300, seed=5)
    got, want = both_verdicts(lhs, rhs, n, **kw)
    assert got == want and (got == "budget" or got.valid)
    rng = np.random.default_rng(sum(map(ord, name)) + n)
    broken = swap_two_branches(lhs, rng) or swap_two_branches(rhs, rng)
    if broken is not None:
        got, want = both_verdicts(broken, rhs, n, **kw)
        assert got == want


def seeded_tables(n, k, count, seed):
    rng = np.random.default_rng(seed)
    return [synthesis.TruthTable(n, k, tuple(int(v) for v in rng.integers(1, n + 1, n**k)))
            for _ in range(count)]


@pytest.mark.parametrize("n,k,count", [(2, 3, 6), (3, 2, 6), (4, 2, 4), (4, 3, 1)])
def test_star_and_simplified_pairs_match_the_tree_oracle(n, k, count):
    tables = seeded_tables(n, k, count + 1, seed=100 * n + k)
    simps = [synthesis.simplify(synthesis.synth(tb), n)[0] for tb in tables]
    for j in range(count):
        star = transforms.translate_term(simps[j], "star", n)
        for other in (simps[j], simps[j + 1]):  # the same table, then a different one
            for kw in ({}, {"mode": "sampled", "samples": 200, "seed": j}):
                got, want = both_verdicts(star, other, n, **kw)
                assert got == want
        assert terms.check_identity(star, simps[j], n).valid


# -- hypothesis: terms that reuse one subterm object under several parents -----------


@st.composite
def shared_terms(draw, n):
    """A pair of terms over a pool of nodes; each new node takes its arguments
    from the pool, so one object often sits under several parents, and the
    two sides often share nodes."""
    pool = [Var(v) for v in "xyz"] + [Const(k, draw(st.sampled_from("e0")))
                                      for k in range(1, n + 1)]
    for _ in range(draw(st.integers(1, 6))):
        pick = lambda: pool[draw(st.integers(0, len(pool) - 1))]
        kind = draw(st.sampled_from(["q", "t", "and", "sub", "bw", "bv", "or"]))
        d = frozenset(draw(st.sets(st.integers(1, n), min_size=1, max_size=n)))
        if kind == "q":
            node = Q(pick(), tuple(pick() for _ in range(n)))
        elif kind == "t":
            node = T(d, pick(), pick(), pick())
        elif kind == "or" and len(d) == n:
            continue  # or needs an index outside its subscript
        else:
            node = Bin(kind, d, pick(), pick())
        pool.append(node)
    return pool[-1], pick()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_shared_subterms_match_the_tree_oracle(data):
    n = data.draw(st.integers(2, 4))
    lhs, rhs = data.draw(shared_terms(n))
    for kw in ({}, {"mode": "sampled", "samples": 64, "seed": 3}):
        got, want = both_verdicts(lhs, rhs, n, **kw)
        assert got == want
    assert terms.print_term(terms.elaborate(lhs, n)) == terms.print_term(elaborate(lhs, n))
    alg = core.power_algebra(n, 2)
    env = {v: (1, n) for v in "xyz"}
    assert terms.eval_term(lhs, env, alg) == _tree_eval_term(lhs, env, alg)


def defined_q(x, ys) -> tuple:
    """q on elements by its definition, point by point: result[p] = ys[x[p] - 1][p]."""
    return tuple(ys[x[p] - 1][p] for p in range(len(x)))


def _tree_eval_term(t, env, alg):
    """The term's element, walked as a tree with q by its definition: no nbalab evaluator."""
    ops = {f"e{k}": alg.constant(k) for k in range(1, alg.n + 1)}
    ops["q"] = lambda s, *ys: defined_q(s, ys)
    return evaluate(op_term(elaborate(t, alg.n), alg.n), env, ops)


# -- elements: q, eval_term and t_eval against q's per-point definition ---------------------


def elements(n: int, points: int):
    return st.tuples(*[st.integers(1, n)] * points)


@st.composite
def algebras_and_elements(draw):
    """(alg, a strategy for its elements): n^p for n = 2..4 and p = 0..6, a subpower of
    one generated by up to two elements, or 2^70, of which no element is listed."""
    kind = draw(st.sampled_from(["power", "subpower", "2^70"]))
    if kind == "2^70":
        return core.power_algebra(2, 70), elements(2, 70)
    n, points = draw(st.integers(2, 4)), draw(st.integers(0, 6))
    alg = core.power_algebra(n, points)
    if kind == "power":
        return alg, elements(n, points)
    sub = core.subalgebra_closure(alg, draw(st.lists(elements(n, points), max_size=2)))
    return sub, st.sampled_from(sub.carrier)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_elements_evaluate_as_q_is_defined(data):
    alg, element = data.draw(algebras_and_elements())
    n = alg.n
    x, *ys = [data.draw(element) for _ in range(n + 1)]
    assert alg.q(x, ys) == defined_q(x, ys)
    d = frozenset(data.draw(st.sets(st.integers(1, n), min_size=1)))
    y, z = ys[:2]
    assert transforms.t_eval(d, x, y, z, alg) == defined_q(x, t_branches(n, d, y, z))
    lhs, rhs = data.draw(shared_terms(n))
    env = {v: data.draw(element) for v in "xyz"}
    for t in (lhs, rhs):
        assert terms.eval_term(t, env, alg) == _tree_eval_term(t, env, alg)


def test_an_open_carrier_is_refused_at_the_element_q_produces():
    alg = core.PowerAlgebra(2, 2, ((1, 1), (2, 2), (1, 2)))
    with pytest.raises(core.ShapeError, match=r"^carrier not closed under q: produced \(2, 1\)$"):
        alg.q((1, 2), [(2, 2), (1, 1)])
    with pytest.raises(core.ShapeError, match=r"^carrier not closed under q: produced \(2, 1\)$"):
        terms.eval_term(terms.parse_term("q(x,e2,e1)", 2), {"x": (1, 2)}, alg)


# a malformed term, then an unbound variable, then the first bad element (in env order,
# used or not): on 2^2, y's value 3 and z's one point are both bad
BAD_ENV = {"x": (1, 2), "y": (3, 1), "z": (1,)}
ERROR_ORDER = [
    (Q(Var("w"), (Var("y"),)), TermError, "q node has 1 branches, expected 2"),
    (Q(Var("w"), (Var("y"), Var("z"))), TermError, "unbound variable 'w'"),
    (Q(Var("x"), (Var("x"), Var("x"))), core.ShapeError, "value 3 out of 1..2 in (3, 1)"),
]


@pytest.mark.parametrize("t,error,message", ERROR_ORDER, ids=[m for _, _, m in ERROR_ORDER])
def test_element_evaluation_errors_come_in_order(t, error, message):
    with pytest.raises(error) as exc:
        terms.eval_term(t, BAD_ENV, core.power_algebra(2, 2))
    assert str(exc.value) == message


# -- one q call per distinct q node per chunk ---------------------------------------------


def distinct_nodes(*roots) -> int:
    """Distinct (by identity) non-leaf nodes: each becomes one q node when elaborated."""
    return sum(1 for s in terms.subterms(*roots) if children(s))


def counting_q_ops(calls):
    def q_ops(alg):
        ops = {f"e{k}": alg.constant_index(k) for k in range(1, alg.n + 1)}

        def q(s, *ys):
            calls.append(1)
            return alg.q_vec(s, ys)

        ops["q"] = q
        return ops
    return q_ops


def test_check_identity_calls_q_once_per_distinct_node_per_chunk(monkeypatch):
    n = 3
    calls, chunks = [], []
    monkeypatch.setattr(terms, "q_ops", counting_q_ops(calls))
    monkeypatch.setattr(terms, "CHUNK", 9)
    enumerate_chunks = terms.assignment_chunks

    def counted(*args):
        for chunk in enumerate_chunks(*args):
            chunks.append(1)
            yield chunk

    monkeypatch.setattr(terms, "assignment_chunks", counted)
    shared = terms.parse_term("q(x,e1,e2,e3)", n)
    # the same text twice parses to two equal nodes, which are two distinct q nodes
    equal = [terms.parse_term("q(y,e1,e2,e3)", n) for _ in range(2)]
    lhs = T(frozenset({1}), shared, Q(Var("y"), (*equal, Var("z"))), shared)
    rhs = Q(lhs, (Const(1), Const(2), Const(3)))  # B4: equal to lhs, and sharing all of it
    assert terms.check_identity(lhs, rhs, n).valid
    assert len(chunks) == 3  # 27 rows in chunks of 9
    assert len(calls) == len(chunks) * distinct_nodes(lhs, rhs) == 3 * 6


def test_axiom_check_calls_q_once_per_distinct_node():
    calls = []
    alg = core.power_algebra(2, 2)
    ops = counting_q_ops(calls)(alg)
    inner = ("q", "y", "x", "e1")
    copy = ("q", *inner[1:])  # equal to inner, but another object
    ax = skew.Axiom("shared", ("x", "y"), ("q", inner, inner, copy), ("q", "x", inner, "y"), ops)
    env = {"x": np.arange(4), "y": np.arange(4)[::-1]}
    lhs, rhs = ax.check(env)
    assert len(calls) == 4  # inner, its equal copy, and the two roots
    assert np.array_equal(lhs, evaluate(ax.lhs, env, ops))
    assert np.array_equal(rhs, evaluate(ax.rhs, env, ops))


def test_a_fold_frees_what_it_need_not_keep():
    x, y = Var("x"), Var("y")
    shared = Q(x, (y, x))
    t = Q(shared, (Q(y, (x, shared)), y))
    keep = terms.shared_nodes([t])
    assert keep == {id(x), id(y), id(shared)}
    arity = lambda s, args: len(args)
    for given in (None, keep):  # by default a fold keeps the nodes with several parents
        memo = {}
        assert terms.fold(t, children, arity, memo, given) == 3
        assert set(memo) == keep | {id(t)}


def traced_peak(f) -> int:
    """The most bytes traced at once while f runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_term_holds_one_value_per_level_not_per_node():
    # a synthesised 2^11 table is a tree of 2^11 - 1 q nodes, none shared, 11 deep;
    # keeping each node's value, one int64 per row, would trace over 2,000 rows' worth
    # of values, where a walk holds 11 and its own bookkeeping, a few dozen bytes a node
    n, k = 2, 11
    tb = seeded_tables(n, k, 1, seed=11)[0]
    t = synthesis.synth(tb)
    assert traced_peak(lambda: synthesis.verify_term(t, tb)) < 200 * 8 * n**k


# -- full-power q_vec: table gather under the bound, digit kernel past it ------------------


# every full power whose q table has at most 2^16 entries, then the first ones past it
GATHERING = [(2, m) for m in range(6)] + [(3, m) for m in range(3)] + [(4, 0), (4, 1), (5, 0),
                                                                      (5, 1), (6, 0)]
KERNEL = [(3, 3), (2, 6), (4, 2), (6, 1)]


@pytest.mark.parametrize("n,m", GATHERING + KERNEL)
def test_full_power_q_vec_matches_the_digit_kernel(n, m):
    alg = core.power_algebra(n, m)
    size = n**m
    assert ((size ** (n + 1)) <= core.GATHER_TABLE_MAX) == ((n, m) in GATHERING)
    rng = np.random.default_rng(n * 10 + m)
    s = rng.integers(0, size, 40)
    ys = [rng.integers(0, size, 40) for _ in range(n)]
    assert np.array_equal(alg.q_vec(s, ys), alg._q_codes(s, ys))
    # broadcast: a column of scrutinees against rows of branches, and scalar branches
    col = s[:8].reshape(-1, 1)
    rows = [y[:5].reshape(1, -1) for y in ys]
    assert alg.q_vec(col, rows).shape == (8, 5)
    assert np.array_equal(alg.q_vec(col, rows), alg._q_codes(col, rows))
    scalars = [int(y[0]) for y in ys]
    assert np.array_equal(alg.q_vec(s, scalars), alg._q_codes(s, scalars))
    one = alg.q_vec(int(s[0]), scalars)
    assert np.ndim(one) == 0 and int(one) == int(alg._q_codes(int(s[0]), scalars))
    # the table is built exactly when q_vec gathers from it
    assert ("qtab" in alg._cache) == ((n, m) in GATHERING)


# -- terms deeper than the recursion limit --------------------------------------------------


DEEP = 5000


def deep_text(depth):
    return "t[1](" * depth + "x" + ",y,z)" * depth


def test_deep_terms_parse_print_and_translate():
    assert DEEP > sys.getrecursionlimit()
    text = deep_text(DEEP)
    t = terms.parse_term(text, 2)
    assert terms.print_term(t) == text
    q = terms.elaborate(t, 2)
    assert terms.print_term(q) == "q(" * DEEP + "x" + ",z,y)" * DEEP  # t_1(x,y,z) = q(x,z,y)
    assert terms.free_vars(transforms.to_skew(t, 2, 1)) == ["x", "y", "z"]
    assert terms.print_term(transforms.to_star(t, 2)) == text  # t_1 is its own star form at n = 2


def test_deep_terms_answer_on_the_cli(capsys):
    text = deep_text(DEEP)
    assert main(["translate", "--n", "2", "--term", text, "--to", "q"]) == 0
    assert json.loads(capsys.readouterr().out)["term"].startswith("q(q(q(")
    assert main(["equiv", "--n", "2", text, text]) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True, "mode": "exhaustive"}
    deeper = "t[1](" * DEEP + "y" + ",y,z)" * DEEP
    assert main(["equiv", "--n", "2", text, deeper]) == 1
    assert json.loads(capsys.readouterr().out)["counterexample"] == {"x": "e1", "y": "e2",
                                                                     "z": "e1"}


def test_deep_parse_errors_keep_their_position():
    text = "t[1](" * DEEP + "x" + ",y)" + ",y,z)" * (DEEP - 1)
    with pytest.raises(TermError, match="t takes 3 arguments at position"):
        terms.parse_term(text, 2)


def test_print_term_holds_about_its_output():
    # keeping every subterm's string of this chain would hold DEEP / 2 outputs at once
    text = deep_text(DEEP)
    t = terms.parse_term(text, 2)
    assert traced_peak(lambda: terms.print_term(t)) < 100 * len(text)


# -- a second translation to star stays linear ------------------------------------------


def to_star_tree(t, n):
    """The earlier recursive to_star, for small terms."""
    if isinstance(t, Var):
        return t
    if isinstance(t, Const):
        return Const(t.k, "0")
    if isinstance(t, (T, Bin)):
        return to_star_tree(elaborate(t, n), n)
    x, *ys = (to_star_tree(s, n) for s in children(t))
    return terms.star_chain(lambda s, x, a, b: T(frozenset({s}), x, a, b), x, ys)


def to_skew_tree(t, n, i):
    """The earlier recursive to_skew, verbatim."""
    fam = frozenset({i})
    if isinstance(t, Var):
        return t
    if isinstance(t, Const):
        if t.k != i:
            raise TermError(f"constant outside the index-{i} family")
        return Const(i, "0")
    if isinstance(t, T):
        if t.d != fam:
            raise TermError(f"t subscript {sorted(t.d)} outside the index-{i} family")
        x, y, z = (to_skew_tree(s, n, i) for s in (t.x, t.y, t.z))
        return Bin("bv", fam, Bin("and", fam, x, y), Bin("sub", fam, z, x))
    if isinstance(t, Bin):
        if t.d != fam or t.kind in ("or", "bw"):
            raise TermError("operation outside the skew signature for this family")
        return Bin(t.kind, fam, to_skew_tree(t.lhs, n, i), to_skew_tree(t.rhs, n, i))
    raise TermError("q nodes are not in the scope of the skew translation")


def printed_or_error(f, *args) -> str:
    try:
        return terms.print_term(f(*args))
    except TermError as e:
        return f"TermError: {e}"


@pytest.mark.parametrize("text", [
    "t[1](x,and[1](y,01),sub[1](z,x))",
    "and[1](t[2](x,y,z),02)",  # the first offence in preorder is reported: t[2], not 02
    "bv[1](and[1](x,02),t[1,2](x,y,z))",
    "sub[1](q(x,y,z),or[1](x,y))",
    "bv[1](bw[1](x,y),q(x,y,z))",
])
def test_to_skew_answers_as_the_tree_translation(text):
    t = terms.parse_term(text, 2)
    got = printed_or_error(transforms.to_skew, t, 2, 1)
    assert got == printed_or_error(to_skew_tree, t, 2, 1)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_to_skew_of_shared_terms_answers_as_the_tree_translation(data):
    n = data.draw(st.integers(2, 3))
    t, _ = data.draw(shared_terms(n))
    i = data.draw(st.integers(1, n))
    assert printed_or_error(transforms.to_skew, t, n, i) == printed_or_error(to_skew_tree, t, n, i)


@pytest.mark.parametrize("n,k", [(2, 3), (3, 2), (4, 2)])
def test_star_of_a_star_form_prints_as_the_tree_translation(n, k):
    for tb in seeded_tables(n, k, 3, seed=7 * n + k):
        simp = synthesis.simplify(synthesis.synth(tb), n)[0]
        once = transforms.to_star(simp, n)
        assert terms.print_term(once) == terms.print_term(to_star_tree(simp, n))
        twice = transforms.to_star(once, n)
        assert terms.print_term(twice) == terms.print_term(to_star_tree(once, n))
        assert synthesis.verify_term(twice, tb)


def test_star_of_a_star_form_shares_its_nodes():
    tb = seeded_tables(4, 3, 1, seed=43)[0]
    simp = synthesis.simplify(synthesis.synth(tb), 4)[0]
    once = transforms.to_star(simp, 4)
    twice = transforms.to_star(once, 4)
    # every t_1 node of the first star form becomes one chain of three t nodes
    assert len(list(terms.subterms(twice))) <= 4 * len(list(terms.subterms(once)))
    assert synthesis.verify_term(twice, tb)
    assert terms.check_identity(twice, simp, 4).valid
