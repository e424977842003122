"""Callers that read one slice of t_i build no whole skew reduct.

`skew.boolean_center` reads the center off the t_i table, `factor_congruences_of`
computes t_i(e, -, -) as one q_vec over the open pair grid, the semicentral check
of `is_element_kind` runs the SRCA rows on the t_i table, and the partial-function
operations `pf_*` run t_1 in generator(3).  Each is checked, with `skew.reduct`
refusing, against the form it replaced, which read a whole reduct; those forms are
kept here as the oracles.  `nba translate` refuses a term whose printed tree passes
`TABLE_BOUND` nodes, counted on the DAG before anything is printed.
"""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from nbalab import core, representation, skew, terms, transforms
from nbalab.cli import main
from nbalab.core import element_index, gather
from nbalab.representation import PartialFn, all_partial_fns, pf_join, pf_meet, pf_minus, pf_q
from nbalab.terms import DEFAULT_BUDGET, DEFAULT_SAMPLES, DEFAULT_SEED
from nbalab.transforms import CenterParams
from test_array_closures import SUB33


def _refuse(*args, **kwargs):
    raise AssertionError("built a whole skew reduct or a t table")


# -- the replaced forms, kept as oracles -----------------------------------------


def oracle_boolean_center(alg, cp):
    """The center read off a whole skew i-reduct."""
    i, j = cp.i, cp.j
    sk = skew.reduct(alg, "skew", i=i)
    ej = alg.constant_index(j)
    ei = sk.zero
    carrier = np.arange(sk.size)
    members = carrier[gather(sk.meet, (carrier, ej)) == carrier]
    loc = np.full(sk.size, -1, dtype=np.int64)  # local index, -1 off the center
    loc[members] = np.arange(len(members))
    grid = np.ix_(members, members)
    ops = {"meet": gather(sk.meet, grid), "join": gather(sk.join, grid),
           "negation": gather(sk.q3, (members, ei, ej))}  # -x = t_i(x, e_i, e_j)
    for name, out in ops.items():
        bad = np.argwhere(loc[out] < 0)
        if bad.size:
            args = ", ".join(sk.labels[a] for a in members[bad[0]])
            raise ValueError(f"the Boolean center is not closed under {name}: {name}({args})"
                             f" = {sk.labels[gather(out, bad[0])]} lies outside it")
    for k, e in ((i, ei), (j, ej)):
        if loc[e] < 0:
            raise ValueError(f"the Boolean center does not contain e{k}")
    labels = tuple(sk.labels[a] for a in members)
    bt = skew.BoolTable(len(members), loc[ops["meet"]], loc[ops["join"]], loc[ops["negation"]],
                        int(loc[ei]), int(loc[ej]), labels)
    return skew.BooleanCenter(tuple(int(a) for a in members), bt, loc)


def oracle_factor_congruences_of(alg, e, i):
    """The pair read off the whole right Church i-reduct's t_i table."""
    from nbalab.ideals import blocks_to_congruence

    fe = skew.reduct(alg, "rchurch", i=i).q3[element_index(alg, e)]  # fe[a, b] = t(e, a, b)
    carrier = np.arange(alg.size)
    return (
        blocks_to_congruence(alg, fe == carrier[:, None]),
        blocks_to_congruence(alg, fe == carrier),
    )


def oracle_semicentral(alg, e, i):
    """is_element_kind(alg, e, "semicentral", i) on the right Church i-reduct."""
    e = element_index(alg, e)
    rc = skew.reduct(alg, "rchurch", i=i)
    _rca, semi, *family = skew.srca_axioms(rc.q3, rc.zero)
    axs = [skew._pin(semi, "x", e)] + [skew._pin(ax, "w", e) for ax in family]
    labels = skew._Labels(alg)
    return all(skew._run_axiom(ax, alg.size, labels, DEFAULT_BUDGET, DEFAULT_SAMPLES,
                               DEFAULT_SEED).ok for ax in axs)


def _one_point():
    """The operations on one point: the skew 1-reduct of generator(3)."""
    return skew.reduct(core.generator(3), "skew", 1)


def _pointwise(table, *fns):
    return PartialFn(fns[0].points, tuple(int(table[vs]) for vs in zip(*(f.values for f in fns))))


ORACLE_PF = {
    "meet": lambda f, g: _pointwise(_one_point().meet, f, g),
    "join": lambda f, g: _pointwise(_one_point().join, f, g),
    "minus": lambda g, f: _pointwise(_one_point().minus, g, f),
    "q": lambda f, g, h: _pointwise(_one_point().q3, f, g, h),
}
PF = {"meet": pf_meet, "join": pf_join, "minus": pf_minus, "q": pf_q}


# -- comparing outcomes ----------------------------------------------------------


def outcome(f, *args):
    """f(*args), or the type and text of the ValueError it raises."""
    try:
        return "value", f(*args)
    except ValueError as exc:
        return "error", type(exc).__name__, str(exc)


def center_key(bc):
    t = bc.table
    return (bc.members, bc.loc.tolist(), t.size, t.meet.tolist(), t.join.tolist(),
            t.neg.tolist(), t.zero, t.one, t.labels)


def pair_key(pair):
    return [c.blocks for c in pair]


def keyed(out, key):
    return (out[0], key(out[1])) if out[0] == "value" else out


def mutants(alg, count, seed):
    """count tables of alg, each with 1 to 3 seeded entries changed."""
    tab, rng = core.table_of_power(alg), np.random.default_rng(seed)
    out = []
    for _ in range(count):
        mut = tab
        for _ in range(rng.integers(1, 4)):
            key = tuple(int(v) for v in rng.integers(0, tab.size, tab.n + 1))
            mut = mut.mutate(key, int(rng.integers(0, tab.size)))
        out.append(mut)
    return out


A23, A32 = core.power_algebra(2, 3), core.power_algebra(3, 2)
ALGEBRAS = [("2^3", A23), ("3^2", A32), ("table 2^3", core.table_of_power(A23)),
            ("table 3^2", core.table_of_power(A32)), ("subpower of 3^3", SUB33)]
MUTANTS = ([(f"2^3 mutant {s}", m) for s, m in enumerate(mutants(A23, 12, 1))]
           + [(f"3^2 mutant {s}", m) for s, m in enumerate(mutants(A32, 12, 2))])
IDS = [label for label, _ in ALGEBRAS + MUTANTS]


def center_params(n):
    """Every cp of dimension n, and cps with an index outside 1..n."""
    good = [CenterParams(i, j) for i, j in itertools.permutations(range(1, n + 1), 2)]
    return good + [CenterParams(0, 1), CenterParams(n + 1, 1), CenterParams(1, 0),
                   CenterParams(1, n + 1)]


@pytest.mark.parametrize("alg", [alg for _, alg in ALGEBRAS + MUTANTS], ids=IDS)
def test_boolean_center_equals_the_reduct_form(alg, monkeypatch):
    cps = center_params(alg.n)
    want = [keyed(outcome(oracle_boolean_center, alg, cp), center_key) for cp in cps]
    monkeypatch.setattr(skew, "reduct", _refuse)
    assert [keyed(outcome(skew.boolean_center, alg, cp), center_key) for cp in cps] == want


def test_the_oracles_see_every_refusal_text():
    """The cases above reach each refusal the center keeps."""
    power = core.power_algebra(3, 2)
    texts = {out[-1] for cp in center_params(3)
             if (out := outcome(oracle_boolean_center, power, cp))[0] == "error"}
    assert {"index 0 out of 1..3", "index 4 out of 1..3", "constant index 0 out of 1..3",
            "constant index 4 out of 1..3"} <= texts
    bad = core.table_of_power(core.power_algebra(2, 3)).mutate((5, 0, 7), 2)
    got = outcome(skew.boolean_center, bad, CenterParams(1, 2))
    assert got == outcome(oracle_boolean_center, bad, CenterParams(1, 2))
    assert "not closed under join: join(#1, #4) = #5" in got[-1]


@pytest.mark.parametrize("alg", [alg for _, alg in ALGEBRAS + MUTANTS], ids=IDS)
def test_factor_congruences_and_semicentral_equal_the_reduct_forms(alg, monkeypatch):
    cases = [(e, i) for e in (*range(alg.size), -1, alg.size) for i in (0, *range(1, alg.n + 2))]
    want_pairs = [keyed(outcome(oracle_factor_congruences_of, alg, e, i), pair_key)
                  for e, i in cases]
    semi_cases = [(e, i) for e, i in cases if 0 <= e < alg.size]
    want_semi = [outcome(oracle_semicentral, alg, e, i) for e, i in semi_cases]
    assert any(w[0] == "value" for w in want_semi)
    monkeypatch.setattr(skew, "reduct", _refuse)
    assert [keyed(outcome(skew.factor_congruences_of, alg, e, i), pair_key)
            for e, i in cases] == want_pairs
    assert [outcome(skew.is_element_kind, alg, e, "semicentral", i)
            for e, i in semi_cases] == want_semi


def test_factor_congruences_check_the_index_before_the_element():
    for alg in (A23, core.table_of_power(A23)):
        with pytest.raises(ValueError, match="^index 3 out of 1..2$"):
            skew.factor_congruences_of(alg, 8, 3)
        with pytest.raises(ValueError, match="out of 0..7"):
            skew.factor_congruences_of(alg, 8, 1)


def test_factor_congruences_build_no_t_table_past_its_bound(monkeypatch):
    """On 2^9 the t table would pass TABLE_BOUND; the pair grid does not."""
    monkeypatch.setattr(skew, "_t_table", _refuse)
    monkeypatch.setattr(skew, "reduct", _refuse)
    alg = core.power_algebra(2, 9)
    e = alg.index((1, 2, 2, 1, 2, 2, 1, 2, 2))  # e_1 at 3 points
    phi, phi_bar = skew.factor_congruences_of(alg, e, 1)
    assert (phi.num_blocks, phi_bar.num_blocks) == (2**3, 2**6)
    assert pair_key((phi, phi_bar)) == pair_key(skew.factor_congruences_of(alg, alg.elements()[e], 1))


def test_factor_congruences_on_2_8_peak_under_8_mb():
    alg = core.power_algebra(2, 8)
    skew.factor_congruences_of(alg, 1, 1)  # warm the imports
    tracemalloc.start()
    try:
        phi, phi_bar = skew.factor_congruences_of(alg, 5, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert phi.num_blocks * phi_bar.num_blocks == alg.size


def test_factor_congruences_refuse_a_pair_grid_past_the_bound():
    alg = core.power_algebra(2, 13)
    with pytest.raises(ValueError, match="the factor table over carrier size 8192 needs 67108864"):
        skew.factor_congruences_of(alg, 0, 1)


# -- partial functions -----------------------------------------------------------


def _pf_cases():
    """All pairs and triples of partial functions on 0, 1 and 2 points, and seeded ones
    on 3 to 7 points."""
    rng = np.random.default_rng(7)
    small = [fns for p in range(3) for fns in itertools.product(all_partial_fns(p), repeat=3)]
    large = [tuple(PartialFn(p, tuple(int(v) for v in rng.integers(0, 3, p)))
                   for _ in range(3)) for p in range(3, 8) for _ in range(40)]
    return small + large


def test_partial_function_operations_equal_the_one_point_reduct(monkeypatch):
    cases = _pf_cases()
    want = [[ORACLE_PF[k](*fns[:3 if k == "q" else 2]) for k in PF] for fns in cases]
    monkeypatch.setattr(skew, "reduct", _refuse)
    monkeypatch.setattr(representation, "reduct", _refuse)
    assert [[PF[k](*fns[:3 if k == "q" else 2]) for k in PF] for fns in cases] == want


def test_partial_function_operations_refuse_functions_on_other_point_counts():
    short, long = PartialFn(1, (1,)), PartialFn(2, (2, 0))
    for args in ((short, long), (long, short)):
        for op in (pf_meet, pf_join, pf_minus):
            with pytest.raises(ValueError, match="^value vector length mismatch$"):
                op(*args)
    for args in itertools.permutations((short, long, long)):
        with pytest.raises(ValueError, match="^value vector length mismatch$"):
            pf_q(*args)


def test_partial_function_operations_enumerate_nothing():
    """In a fresh process, so that no earlier call has built a table of generator(3)."""
    code = (
        "from nbalab import core\n"
        "from nbalab.representation import PartialFn, pf_join, pf_meet, pf_minus, pf_q\n"
        "def refuse(self):\n"
        "    raise AssertionError(f'{self.n}^{self.points} enumerated')\n"
        "core.PowerAlgebra.elements = refuse\n"
        "f, g, h = PartialFn(3, (0, 1, 2)), PartialFn(3, (2, 2, 0)), PartialFn(3, (1, 0, 1))\n"
        "print([op(f, g).values for op in (pf_meet, pf_join, pf_minus)] + [pf_q(f, g, h).values])\n"
    )
    src = os.path.dirname(os.path.dirname(core.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    f, g, h = PartialFn(3, (0, 1, 2)), PartialFn(3, (2, 2, 0)), PartialFn(3, (1, 0, 1))
    want = [ORACLE_PF[k](f, g).values for k in ("meet", "join", "minus")]
    assert out.stdout.strip() == str(want + [ORACLE_PF["q"](f, g, h).values])


# -- the printed size of a translation --------------------------------------------


def _chain(depth, scrutinee=False):
    t = "x" if scrutinee else "y"
    for _ in range(depth):
        t = f"t[1]({t},y,z)" if scrutinee else f"t[1](x,{t},z)"
    return t


def _translate(capsys, n, to, term):
    code = main(["translate", "--n", str(n), "--to", to, "--term", term])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, json.loads(captured.out)


@pytest.mark.parametrize("depth, chars", [(8, 2296), (12, 36856), (16, 589816)])
def test_chains_under_the_bound_print_as_before(capsys, depth, chars):
    code, out = _translate(capsys, 3, "q", _chain(depth))
    want = terms.print_term(transforms.translate_term(terms.parse_term(_chain(depth), 3), "q", 3))
    assert code == 0 and out == {"term": want} and len(want) == chars


@pytest.mark.parametrize("n, to, term", [(3, "q", _chain(30)),
                                         (2, "skew", _chain(5000, scrutinee=True))],
                         ids=["30-deep chain to q", "5,000-deep scrutinee chain to skew"])
def test_a_translation_past_the_printed_bound_exits_1(capsys, monkeypatch, n, to, term):
    monkeypatch.setattr(terms, "print_term", _refuse)
    code, out = _translate(capsys, n, to, term)
    assert code == 1
    assert out["error"].startswith(f"the translated term prints as a tree past the bound of "
                                   f"{core.TABLE_BOUND} nodes")
