"""Folds whose result holds every value keep their whole memo.

`elaborate`, `transforms.to_star` and `transforms.to_skew` build a term out of
their children's values, so freeing those values frees nothing: each passes
its memo as `fold`'s keep set and makes no `shared_nodes` walk.  `print_term`
builds strings, which do not hold their parts, and keeps the default.  The
earlier forms, with the default keep walk, are the oracles; results are
compared by printed text and by their number of distinct nodes, so sharing is
kept too.
"""

import collections

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nbalab import terms, transforms
from nbalab.terms import Bin, Const, T, Var, children
from test_one_walk import shared_pairs


# -- the oracles: the earlier forms, verbatim ---------------------------------------------


def old_elaborate(t, n):
    rewrite = lambda s, args: (s if isinstance(s, (Var, Const))
                               else terms.Q(*terms.q_form(s, n, args, Const)))
    return terms.fold(t, lambda s: terms.checked_children(s, n), rewrite)


def old_to_star(t, n):
    def star(s, args):
        if isinstance(s, Var):
            return s
        if isinstance(s, Const):
            return Const(s.k, "0")
        x, ys = terms.q_form(s, n, args, lambda k, style: Const(k, "0"))
        return terms.star_chain(lambda k, x, a, b: T(frozenset({k}), x, a, b), x, ys)

    return terms.fold(t, lambda s: terms.checked_children(s, n), star)


def old_to_skew(t, n, i):
    fam = frozenset({i})

    def kids(s):
        if isinstance(s, Const) and s.k != i:
            raise terms.TermError(f"constant outside the index-{i} family")
        if isinstance(s, T) and s.d != fam:
            raise terms.TermError(f"t subscript {sorted(s.d)} outside the index-{i} family")
        if isinstance(s, Bin) and (s.d != fam or s.kind not in terms.SKEW_KINDS):
            raise terms.TermError("operation outside the skew signature for this family")
        if not isinstance(s, (Var, Const, T, Bin)):
            raise terms.TermError("q nodes are not in the scope of the skew translation")
        return children(s)

    def skew(s, args):
        if isinstance(s, Var):
            return s
        if isinstance(s, Const):
            return Const(i, "0")
        if isinstance(s, T):
            x, y, z = args
            return Bin("bv", fam, Bin("and", fam, x, y), Bin("sub", fam, z, x))
        return Bin(s.kind, fam, *args)

    return terms.fold(t, kids, skew)


def distinct_nodes(t) -> int:
    seen, stack = set(), [t]
    while stack:
        s = stack.pop()
        if id(s) not in seen:
            seen.add(id(s))
            stack.extend(children(s))
    return len(seen)


def same(got, want):
    assert terms.print_term(got) == terms.print_term(want)
    assert distinct_nodes(got) == distinct_nodes(want)


PAIRS = [("elaborate", terms.elaborate, old_elaborate),
         ("to_star", transforms.to_star, old_to_star)]


@pytest.fixture
def keep_walks(monkeypatch):
    calls = collections.Counter()
    real = terms.shared_nodes
    monkeypatch.setattr(terms, "shared_nodes",
                        lambda *a, **kw: calls.update(["shared_nodes"]) or real(*a, **kw))
    return calls


DEEP = terms.parse_term("t[1](x," * 5_000 + "y" + ",z)" * 5_000, 2)  # x is not nested: to_skew repeats it


def test_only_print_term_makes_a_keep_walk(keep_walks):
    for _, new, _ in PAIRS:
        new(DEEP, 2)
    transforms.to_skew(DEEP, 2, 1)
    assert keep_walks["shared_nodes"] == 0
    terms.print_term(DEEP)
    assert keep_walks["shared_nodes"] == 1


@pytest.mark.parametrize("name, new, old", PAIRS, ids=[p[0] for p in PAIRS])
def test_a_deep_chain_folds_as_before(name, new, old):
    same(new(DEEP, 2), old(DEEP, 2))


def test_a_deep_chain_translates_to_skew_as_before():
    same(transforms.to_skew(DEEP, 2, 1), old_to_skew(DEEP, 2, 1))


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except terms.TermError as exc:
        return "error", str(exc)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_shared_terms_fold_as_before(data):
    n = data.draw(st.integers(2, 4))
    for t in data.draw(shared_pairs(n)):
        for _, new, old in PAIRS:
            (got_kind, got), (want_kind, want) = outcome(new, t, n), outcome(old, t, n)
            assert got_kind == want_kind
            if got_kind == "ok":
                same(got, want)
            else:
                assert got == want


@st.composite
def skew_terms(draw, n):
    """A term over t_i, and_i, bv_i, sub_i and 0_i, its nodes drawn from a growing pool so
    that subterms are shared; sometimes one node from outside the family."""
    i = draw(st.integers(1, n))
    fam = frozenset({i})
    pool = [Var(v) for v in "xyz"] + [Const(i, "0")]
    pick = lambda: pool[draw(st.integers(0, len(pool) - 1))]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["t", *terms.SKEW_KINDS]))
        pool.append(T(fam, pick(), pick(), pick()) if kind == "t"
                    else Bin(kind, fam, pick(), pick()))
    if draw(st.booleans()):
        pool.append(T(frozenset({i % n + 1}), pick(), pick(), pick()))
    return i, pool[-1]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_skew_terms_translate_as_before(data):
    n = data.draw(st.integers(2, 4))
    i, t = data.draw(skew_terms(n))
    (got_kind, got), (want_kind, want) = (outcome(transforms.to_skew, t, n, i),
                                          outcome(old_to_skew, t, n, i))
    assert got_kind == want_kind
    if got_kind == "ok":
        same(got, want)
    else:
        assert got == want
