"""One walk per job in the terms layer.

check_identity reads its variables off the name steps of the program it
lowers, lower keeps every step index in its fold's memo, simplify refuses a
node outside the q signature inside its rewrite walk, and to_star is one fold
over each node's q form.  The walk counts are pinned with counters on the
walkers; the earlier forms of the four functions, verbatim, are the oracles.
"""

import collections

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nbalab import synthesis, terms, transforms
from nbalab.synthesis import RewriteStep, _rule_at
from nbalab.terms import Bin, Const, Q, T, TermError, Var, Verdict, children


# -- the oracles: the earlier forms, verbatim ---------------------------------------------


def old_check_identity(lhs, rhs, n, mode="exhaustive", budget=terms.DEFAULT_BUDGET,
                       samples=terms.DEFAULT_SAMPLES, seed=terms.DEFAULT_SEED) -> Verdict:
    """check_identity with its variables from free_vars of each side."""
    ops, program = terms.q_ops(terms.generator(n)), terms.lower((lhs, rhs), n)
    names = list(dict.fromkeys(terms.free_vars(lhs) + terms.free_vars(rhs)))
    drawn = {"samples": samples, "seed": seed} if mode == "sampled" else {}

    def differ(chunk):
        left, right = terms.run(program, dict(zip(names, chunk)), ops)
        return left != right

    wit, _ = terms.first_witness(len(names), n, mode, budget, samples, seed, differ)
    if wit is None:
        return Verdict(True, mode, **drawn)
    cex = {name: f"e{v + 1}" for name, v in zip(names, wit)}
    return Verdict(False, mode, counterexample=cex, **drawn)


def old_to_star(t, n):
    """to_star as a fold over the DAG that elaborate builds."""
    def star(s, args):
        if isinstance(s, Var):
            return s
        if isinstance(s, Const):
            return Const(s.k, "0")
        x, *ys = args
        return terms.star_chain(lambda k, x, a, b: T(frozenset({k}), x, a, b), x, ys)

    return terms.fold(terms.elaborate(t, n), children, star)


def _old_simplify_walk(t, n, trace):
    path = []
    stack = [(t, children(t), [])]
    while True:
        node, kids, done = stack[-1]
        if len(done) < len(kids):
            path.append(len(done))
            c = kids[len(done)]
            stack.append((c, children(c), []))
            continue
        stack.pop()
        if kids:
            node = Q(done[0], tuple(done[1:]))
        hit = _rule_at(node, n)
        if hit is not None:
            rule, node = hit
            trace.append(RewriteStep(rule, tuple(path)))
        if not stack:
            return node
        stack[-1][2].append(node)
        path.pop()


def old_simplify(t, n):
    """simplify with its separate subterms pass over the q signature."""
    if not all(isinstance(s, (Var, Const, Q)) for s in terms.subterms(t)):
        raise ValueError("simplify handles q-signature terms only")
    trace = []
    out = _old_simplify_walk(t, n, trace)
    return out, tuple(trace)


def outcome(f, *args, **kw):
    """f's result, or the type and text of what it raised."""
    try:
        return f(*args, **kw)
    except (TermError, ValueError, terms.BudgetExceeded) as exc:
        return type(exc), str(exc)


# -- walk counts ---------------------------------------------------------------------------


@pytest.fixture
def walks(monkeypatch):
    """Counts the calls of free_vars, subterms, shared_nodes, elaborate and fold."""
    calls = collections.Counter()
    for name in ("free_vars", "subterms", "shared_nodes", "elaborate", "fold"):
        def counted(*args, _name=name, _f=getattr(terms, name), **kw):
            calls[_name] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(terms, name, counted)
    # simplify once read subterms through its own module's name
    monkeypatch.setattr(synthesis, "subterms", terms.subterms, raising=False)
    return calls


N = 3
SHARED = terms.parse_term("t[2](y,x,e1)", N)
LHS = Bin("or", frozenset({1}), Var("x"), Q(SHARED, (SHARED, Var("z"), SHARED)))
RHS = Bin("bv", frozenset({2, 3}), SHARED, Const(2, "0"))


def test_check_identity_walks_neither_side_again(walks):
    assert not terms.check_identity(LHS, RHS, N)
    terms.check_identity(LHS, RHS, N, mode="sampled", samples=50)
    assert walks["free_vars"] == walks["subterms"] == walks["shared_nodes"] == 0


def test_lower_makes_no_keep_walk(walks):
    terms.lower((LHS, RHS, SHARED), N)
    terms.lower([("q", "x", ("q", "y", "x", "x"), "x")])
    assert walks["shared_nodes"] == 0


def test_simplify_makes_no_subterms_walk(walks):
    table = synthesis.TruthTable(N, 2, tuple(1 + k % N for k in range(N**2)))
    synthesis.simplify(synthesis.synth(table), N)
    with pytest.raises(ValueError):
        synthesis.simplify(LHS, N)
    assert walks["subterms"] == 0


def test_to_star_is_one_fold_and_no_elaboration(walks):
    transforms.to_star(LHS, N)
    assert walks["fold"] == 1
    assert walks["elaborate"] == 0


# -- check_identity: variable order and verdicts -------------------------------------------


@st.composite
def shared_pairs(draw, n):
    """A pair of terms over a pool of nodes, variables in a drawn order: each new node
    takes its arguments from the pool, so one object often sits under several parents
    and the two sides share nodes."""
    names = draw(st.permutations("uvwxyz"))[:draw(st.integers(1, 6))]
    pool = [Var(v) for v in names] + [Const(k, draw(st.sampled_from("e0")))
                                      for k in range(1, n + 1)]
    pick = lambda: pool[draw(st.integers(0, len(pool) - 1))]
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["q", "t", "and", "sub", "bw", "bv", "or"]))
        d = frozenset(draw(st.sets(st.integers(1, n), min_size=1, max_size=n)))
        if kind == "q":
            pool.append(Q(pick(), tuple(pick() for _ in range(n))))
        elif kind == "t":
            pool.append(T(d, pick(), pick(), pick()))
        elif kind != "or" or len(d) < n:  # or needs an index outside its subscript
            pool.append(Bin(kind, d, pick(), pick()))
    return pick(), pick()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_variables_and_verdicts_are_those_of_free_vars(data):
    n = data.draw(st.integers(2, 4))
    lhs, rhs = data.draw(shared_pairs(n))
    envs = []
    with pytest.MonkeyPatch.context() as mp:
        real_run = terms.run
        mp.setattr(terms, "run", lambda program, env, ops: envs.append(list(env))
                   or real_run(program, env, ops))
        got = [outcome(terms.check_identity, lhs, rhs, n, budget=5_000, **kw)
               for kw in ({}, {"mode": "sampled", "samples": 300, "seed": 5})]
    want = [outcome(old_check_identity, lhs, rhs, n, budget=5_000, **kw)
            for kw in ({}, {"mode": "sampled", "samples": 300, "seed": 5})]
    assert got == want
    order = list(dict.fromkeys(terms.free_vars(lhs) + terms.free_vars(rhs)))
    assert envs and all(names == order for names in envs)
    for verdict in got:
        if isinstance(verdict, Verdict) and not verdict.valid:
            assert list(verdict.counterexample) == order


def test_a_constant_outside_1_to_n_is_not_a_variable():
    for check in (terms.check_identity, old_check_identity):
        with pytest.raises(TermError, match="unbound variable 'e5'"):
            check(Q(Var("x"), (Const(5), Var("y"), Var("x"))), Var("x"), 3)


def test_counterexamples_of_the_axioms_stay_byte_identical():
    n = 3
    b3 = "q(q(x,y1,y2,y3),q(x,a1,a2,a3),q(x,b1,b2,b3),q(x,c1,c2,c3))"
    broken = [("q(x,y,x,z)", "q(x,y,y,z)"), (b3, "q(x,a1,b2,c3)"),
              ("t[1](x,y,z)", "t[2](x,y,z)"), ("or[1,2](x,sub[3](y,x))", "bv[1](y,x)")]
    for lhs, rhs in broken:
        lhs, rhs = (terms.parse_term(s, n) for s in (lhs, rhs))
        for kw in ({}, {"mode": "sampled", "samples": 1000, "seed": 9}):
            got = terms.check_identity(lhs, rhs, n, **kw)
            assert not got.valid
            assert got == old_check_identity(lhs, rhs, n, **kw)


# -- to_star ---------------------------------------------------------------------------------


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_to_star_prints_as_the_fold_over_the_elaborated_term(data):
    n = data.draw(st.integers(2, 4))
    t, _ = data.draw(shared_pairs(n))
    assert terms.print_term(transforms.to_star(t, n)) == terms.print_term(old_to_star(t, n))


def test_to_star_refuses_as_elaborate_did():
    x, y = Var("x"), Var("y")
    for t in (Bin("and", frozenset(), x, y), Q(x, ("y", y)), Q(x, (y,)),
              Bin("or", frozenset({1, 2}), x, y), Q(x, (Bin("or", frozenset({1, 2}), x, y),
                                                       Q(x, (y,))))):
        assert outcome(transforms.to_star, t, 2) == outcome(old_to_star, t, 2)
        assert isinstance(outcome(transforms.to_star, t, 2), tuple)


def test_to_star_of_a_deep_chain_prints_as_before():
    t = Var("x")
    for _ in range(5_000):
        t = T(frozenset({1}), Var("x"), t, Var("y"))
    got = terms.print_term(transforms.to_star(t, 2))
    assert got == terms.print_term(old_to_star(t, 2))
    assert got.count("t[1](") == 5_000


# -- simplify ----------------------------------------------------------------------------


def deep(bottom, depth=5_000):
    """q(x, q(x, ..., bottom, y), y), depth nodes above bottom."""
    t = bottom
    for _ in range(depth):
        t = Q(Var("x"), (t, Var("y")))
    return t


FOREIGN = [T(frozenset({1}), Var("x"), Var("y"), Var("x")),
           Bin("and", frozenset({1}), Var("x"), Var("y")),
           ("q", "x", "y", "y")]


@pytest.mark.parametrize("bad", FOREIGN, ids=["T", "Bin", "foreign"])
@pytest.mark.parametrize("where", ["root", "5000 deep", "under a shared subterm"])
def test_simplify_refuses_as_its_separate_pass_did(bad, where):
    shared = Q(Var("x"), (Const(1), bad))
    t = {"root": bad, "5000 deep": deep(bad),
         "under a shared subterm": Q(Var("x"), (shared, Q(Const(2), (shared, shared))))}[where]
    with pytest.raises(ValueError) as got:
        synthesis.simplify(t, 2)
    with pytest.raises(ValueError) as want:
        old_simplify(t, 2)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value) == "simplify handles q-signature terms only"


@pytest.mark.parametrize("n,k", [(2, 1), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_simplify_forms_and_traces_are_those_of_the_two_walks(n, k):
    rng = np.random.default_rng(100 * n + k)
    for _ in range(8):
        entries = tuple(int(v) for v in rng.integers(1, rng.integers(2, n + 2), n**k))
        t = synthesis.synth(synthesis.TruthTable(n, k, entries))
        got, got_trace = synthesis.simplify(t, n)
        want, want_trace = old_simplify(t, n)
        assert terms.print_term(got) == terms.print_term(want)
        assert got_trace == want_trace


def test_simplify_of_deep_and_shared_q_terms_is_unchanged():
    shared = Q(Var("x"), (Const(1), Const(2)))
    for t in (deep(Var("y")), deep(Q(Const(1), (Var("z"), Var("y")))),
              Q(shared, (shared, Q(shared, (shared, shared))))):
        got, want = synthesis.simplify(t, 2), old_simplify(t, 2)
        assert terms.print_term(got[0]) == terms.print_term(want[0])
        assert got[1] == want[1]
