"""synthesis.simplify walks its term as a tree with its own stack.

The oracle below is the earlier recursive simplifier, verbatim: the normal
form and the trace must not change, for synthesised tables, for chains of
redexes and for shared subterms, which are rewritten and traced at every
position they occupy.  Chains deeper than the recursion limit must simplify too.
"""

import contextlib
import sys

import numpy as np
import pytest

from nbalab import synthesis, terms
from nbalab.synthesis import RewriteStep, _rule_at
from nbalab.terms import Const, Q, Var, children


# -- the oracle: the recursive simplifier, verbatim --------------------------------------


def _simplify(t, n, pos, trace):
    if isinstance(t, Q):
        scr, *branches = (_simplify(s, n, pos + (c,), trace) for c, s in enumerate(children(t)))
        t = Q(scr, tuple(branches))
    while True:
        hit = _rule_at(t, n)
        if hit is None:
            return t
        rule, t = hit
        trace.append(RewriteStep(rule, pos))
        # the reduct may expose a fresh redex below; renormalise it
        t = _simplify(t, n, pos, trace)


@contextlib.contextmanager
def recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def oracle_simplify(t, n):
    trace = []
    with recursion_limit(10_000):
        out = _simplify(t, n, (), trace)
    return out, tuple(trace)


def assert_same_as_oracle(t, n):
    got, got_trace = synthesis.simplify(t, n)
    want, want_trace = oracle_simplify(t, n)
    assert terms.print_term(got) == terms.print_term(want)
    assert got_trace == want_trace
    return got_trace


# -- synthesised tables ------------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(2, 1), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_synthesised_tables_simplify_as_the_oracle(n, k):
    rng = np.random.default_rng(10 * n + k)
    for _ in range(8):
        # few distinct values, so that equal branches and constant subtables occur
        entries = tuple(int(v) for v in rng.integers(1, rng.integers(2, n + 2), n**k))
        assert_same_as_oracle(synthesis.synth(synthesis.TruthTable(n, k, entries)), n)


# -- chains of redexes, and shared subterms ----------------------------------------------


def random_chain(n, depth, rng):
    """A chain that wraps a term depth times, each time as a scrutinee, a branch, or
    the reduct of a B0, B1 or B4 redex; a few B1 levels share the term twice."""
    x, y = Var("x"), Var("y")
    consts = tuple(Const(k) for k in range(1, n + 1))
    t, shared = Q(x, consts), 0
    for _ in range(depth):
        kind = rng.integers(6)
        if kind == 0:
            t = Q(t, (y,) * (n - 1) + (x,))
        elif kind == 1:
            slot = int(rng.integers(n))
            t = Q(x, tuple(t if s == slot else y for s in range(n)))
        elif kind == 2:
            k = int(rng.integers(1, n + 1))
            t = Q(consts[k - 1], tuple(t if s == k - 1 else x for s in range(n)))
        elif kind == 3 and shared < 4:
            t, shared = Q(y, (t,) * n), shared + 1
        else:
            t = Q(t, consts)
    return t


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("depth", [1, 10, 100, 500])
def test_chains_simplify_as_the_oracle(n, depth):
    rng = np.random.default_rng(depth * n)
    for _ in range(3):
        assert assert_same_as_oracle(random_chain(n, depth, rng), n)


def test_a_shared_subterm_is_traced_at_each_position():
    redex = terms.parse_term("q(e2,x,y)", 2)
    t = Q(Var("z"), (redex, Q(redex, (Var("x"), redex))))
    trace = assert_same_as_oracle(t, 2)
    assert [s.position for s in trace] == [(1,), (2, 0), (2, 2)]


# -- deeper than the recursion limit -------------------------------------------------------


DEEP = 5000


def test_a_deep_chain_in_the_scrutinee_simplifies():
    assert DEEP > sys.getrecursionlimit()
    t = terms.parse_term("q(" * DEEP + "q(e1,x,y)" + ",y,z)" * DEEP, 2)
    out, trace = synthesis.simplify(t, 2)
    assert terms.print_term(out) == "q(" * DEEP + "x" + ",y,z)" * DEEP
    assert trace == (RewriteStep("B0-const-scrutinee", (0,) * DEEP),)


def test_a_deep_chain_in_a_branch_simplifies():
    t = terms.parse_term("q(x," * DEEP + "q(y,z,z)" + ",y)" * DEEP, 2)
    out, trace = synthesis.simplify(t, 2)
    assert terms.print_term(out) == "q(x," * DEEP + "z" + ",y)" * DEEP
    assert trace == (RewriteStep("B1-equal-branches", (1,) * DEEP),)
