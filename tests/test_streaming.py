"""The streaming assignment engine against a whole-array oracle.

The oracle below materialises every assignment at once and evaluates it
to the end.  The engine streams chunks and stops at the first witness;
it must give the same verdicts, modes and counterexamples.  terms.CHUNK
is patched small, so that witnesses fall beyond the first chunk and
across the boundaries of the fast-variable tile.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import nbalab
from nbalab import core, skew, terms
from nbalab.transforms import CenterParams

BUDGET = 600  # small enough that the wide axioms are sampled, so both modes stream
SAMPLES = 500
SEED = 11


# -- the oracle ----------------------------------------------------------------


def oracle_arrays(nvars, size, mode, budget, samples, seed):
    if mode == "sampled":
        rng = np.random.default_rng(seed)
        return [rng.integers(0, size, size=samples, dtype=np.int64) for _ in range(nvars)]
    if size**nvars > budget:
        raise terms.BudgetExceeded("over budget")
    idx = np.arange(size**nvars, dtype=np.int64)
    return [(idx // size**t) % size for t in range(nvars)]


def oracle_first_witness(arrays, evaluate):
    """(index of the first failing row or None, the assignment arrays)."""
    lhs, rhs = evaluate(arrays)
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs), np.asarray(rhs))
    bad = np.flatnonzero(lhs != rhs)
    return (int(bad[0]) if bad.size else None), (arrays or [np.zeros(1, dtype=np.int64)])


def chunk_rows(size, mode):
    """Rows per chunk: the fast-variable tile, CHUNK sampled rows, or, when no
    variable fits, a CHUNK-sized slice of variable 0 (the last slice of each run of
    size rows may be shorter)."""
    if mode == "sampled":
        return terms.CHUNK
    fast = 0
    while size ** (fast + 1) <= terms.CHUNK:
        fast += 1
    return size**fast if fast else terms.CHUNK


def expected_assignments(nvars, size, mode, samples, first_bad):
    total = size**nvars if mode == "exhaustive" else (samples if nvars else 1)
    if first_bad is None:
        return total
    rows = chunk_rows(size, mode)
    run = size if mode == "exhaustive" and size > terms.CHUNK else total  # where slices restart
    start = first_bad - first_bad % run
    return min(total, start + (first_bad % run // rows + 1) * rows, start + run)


def oracle_axiom(ax, size, labels):
    v = len(ax.varnames)
    mode = "exhaustive" if size**v <= BUDGET else "sampled"
    arrays = oracle_arrays(v, size, mode, BUDGET, SAMPLES, SEED)
    bad, arrays = oracle_first_witness(arrays, lambda a: ax.check(dict(zip(ax.varnames, a))))
    cex = None
    if bad is not None:
        cex = {name: labels[int(arr[bad])] for name, arr in zip(ax.varnames, arrays)}
    return (ax.name, bad is None, mode, cex,
            expected_assignments(v, size, mode, SAMPLES, bad))


# -- the cases -------------------------------------------------------------------


def suites(alg, center=False):
    """(suite name, audited object, its axiom list) for every suite that applies."""
    sk = skew.reduct(alg, "skew", i=1)
    rc = skew.reduct(alg, "rchurch", i=alg.n)
    st = skew.star_of(alg)
    out = [
        ("NBA", alg, skew.nba_axioms(alg)),
        ("SKEW_LATTICE", sk, skew.skew_lattice_axioms(sk)),
        ("SKEW_BA", sk, skew.skew_ba_axioms(sk)),
        ("RIGHT_HANDED", sk, skew.right_handed_axioms(sk)),
        ("SRCA", rc, skew.srca_axioms(rc.q3, rc.zero)),
        ("SKEW_STAR", st, skew.skew_star_axioms(st)),
    ]
    if center:
        bt = skew.boolean_center(alg, CenterParams(1, 2)).table
        out.append(("BOOLEAN", bt, skew.boolean_axioms(bt)))
    return out


def mutations(n, m, count, seed):
    tab = core.table_of_power(core.power_algebra(n, m))
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        key = tuple(int(v) for v in rng.integers(0, tab.size, size=n + 1))
        out.append(tab.mutate(key, int(rng.integers(0, tab.size))))
    return out


CASES = ([("2^2", core.power_algebra(2, 2), True), ("3^1", core.power_algebra(3, 1), True)]
         + [(f"2^3 mutation {t}", alg, False) for t, alg in enumerate(mutations(2, 3, 20, 1))]
         + [(f"3^2 mutation {t}", alg, False) for t, alg in enumerate(mutations(3, 2, 20, 2))])


@pytest.mark.parametrize("chunk", [7, 100])
@pytest.mark.parametrize("label,alg,center", CASES, ids=[c[0] for c in CASES])
def test_audits_match_the_whole_array_oracle(monkeypatch, chunk, label, alg, center):
    monkeypatch.setattr(terms, "CHUNK", chunk)
    for suite, obj, axioms in suites(alg, center):
        rep = skew.check_axioms(obj, suite, budget=BUDGET, samples=SAMPLES, seed=SEED)
        labels = skew._label_tuple(obj) if suite == "NBA" else obj.labels
        got = [(a.name, a.ok, a.mode, a.counterexample, a.assignments) for a in rep.axioms]
        assert got == [oracle_axiom(ax, obj.size, labels) for ax in axioms], (label, suite)


def test_the_cases_refute_beyond_the_first_chunk(monkeypatch):
    """The mutations put witnesses past the first chunk, in both modes."""
    monkeypatch.setattr(terms, "CHUNK", 7)
    late = {"exhaustive": 0, "sampled": 0}
    for _, alg, _ in CASES[2:]:
        for ax in skew.nba_axioms(alg):
            _, ok, mode, _, count = oracle_axiom(ax, alg.size, skew._label_tuple(alg))
            if not ok and count > chunk_rows(alg.size, mode):
                late[mode] += 1
    assert late["exhaustive"] > 0 and late["sampled"] > 0


# -- check_identity ------------------------------------------------------------------

B2 = {2: ("q(y,q(y,a,b),q(y,c,d))", "q(y,a,d)"),
      3: ("q(y,q(y,a,b,c),q(y,d,f,g),q(y,h,i,j))", "q(y,a,f,j)")}
B3 = {2: ("q(y,q(a0,a1,a2),q(b0,b1,b2))", "q(q(y,a0,b0),q(y,a1,b1),q(y,a2,b2))"),
      3: ("q(y,q(a0,a1,a2,a3),q(b0,b1,b2,b3),q(c0,c1,c2,c3))",
          "q(q(y,a0,b0,c0),q(y,a1,b1,c1),q(y,a2,b2,c2),q(y,a3,b3,c3))")}
IDENTITIES = [
    (2, *B2[2]), (2, *B3[2]), (3, *B2[3]),
    (2, "q(y,q(y,a,b),q(y,c,d))", "q(y,a,c)"),  # broken B2
    (2, "q(y,q(y,a,b),q(y,c,d))", "q(y,b,d)"),
    (2, "q(y,q(a0,a1,a2),q(b0,b1,b2))", "q(q(y,a0,b0),q(y,a1,b2),q(y,a2,b2))"),  # broken B3
    (2, "q(y,q(a0,a1,a2),q(b0,b1,b2))", "q(q(y,a0,b0),q(y,a1,b1),q(y,b2,a2))"),
    (3, "q(y,q(y,a,b,c),q(y,d,f,g),q(y,h,i,j))", "q(y,a,f,c)"),
    (3, "q(y,q(y,a,b,c),q(y,d,f,g),q(y,h,i,j))", "q(y,d,f,j)"),
    (3, "q(y,q(a0,a1,a2,a3),q(b0,b1,b2,b3),q(c0,c1,c2,c3))",
     "q(q(y,a0,b0,c0),q(y,a1,b1,c1),q(y,a2,b1,c2),q(y,a3,b3,c3))"),
    (3, "q(y,q(a0,a1,a2,a3),q(b0,b1,b2,b3),q(c0,c1,c2,c3))",
     "q(q(y,a0,b0,c0),q(y,b1,a1,c1),q(y,a2,b2,c2),q(y,a3,b3,c3))"),
    (2, "e1", "q(e1,e1,e2)"),  # no variables: one padded assignment
    (2, "e1", "q(e2,e1,e2)"),
]


def oracle_identity(lhs, rhs, n, mode, budget, samples, seed):
    alg = core.generator(n)
    names = list(dict.fromkeys(terms.free_vars(lhs) + terms.free_vars(rhs)))
    arrays = oracle_arrays(len(names), n, mode, budget, samples, seed)
    bad, arrays = oracle_first_witness(arrays, lambda a: (
        terms.eval_vec(lhs, dict(zip(names, a)), alg),
        terms.eval_vec(rhs, dict(zip(names, a)), alg)))
    cex = None
    if bad is not None:
        cex = {name: f"e{int(arr[bad]) + 1}" for name, arr in zip(names, arrays)}
    sampled = mode == "sampled"
    return terms.Verdict(bad is None, mode, cex, samples if sampled else None,
                         seed if sampled else None)


# every identity in both modes and at both chunk sizes, except the one proof too
# slow in chunks of 3 rows (3^10 of them); the broken n = 3 identities refute early
IDENTITY_RUNS = [(n, lhs, rhs, mode, chunk) for n, lhs, rhs in IDENTITIES
                 for mode in ("exhaustive", "sampled") for chunk in (7, 1000)
                 if ((n, lhs, rhs), mode, chunk) != ((3, *B2[3]), "exhaustive", 7)]


@pytest.mark.parametrize("n,lhs,rhs,mode,chunk", IDENTITY_RUNS)
def test_check_identity_matches_the_whole_array_oracle(monkeypatch, n, lhs, rhs, mode, chunk):
    monkeypatch.setattr(terms, "CHUNK", chunk)
    lhs, rhs = terms.parse_term(lhs, n), terms.parse_term(rhs, n)
    args = (lhs, rhs, n, mode, terms.DEFAULT_BUDGET, 3000, SEED)
    assert terms.check_identity(*args) == oracle_identity(*args)


# -- the enumerator ------------------------------------------------------------------


@pytest.mark.parametrize("nvars,size", [(0, 3), (1, 9), (3, 2), (4, 3), (5, 2), (3, 8)])
@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_chunks_concatenate_to_the_oracle_order(monkeypatch, nvars, size, mode):
    monkeypatch.setattr(terms, "CHUNK", 7)
    chunks = list(terms.assignment_chunks(nvars, size, mode, 10**6, 40, SEED))
    assert all(len(c) == nvars for c in chunks)
    if nvars == 0:
        assert chunks == [[]]
        return
    assert all(0 < len(a) <= 7 for c in chunks for a in c)
    got = [np.concatenate(col) for col in zip(*chunks)]
    want = oracle_arrays(nvars, size, mode, 10**6, 40, SEED)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_budget_exceeded_at_tiny_budgets():
    lhs, rhs = terms.parse_term(B2[2][0], 2), terms.parse_term(B2[2][1], 2)
    with pytest.raises(terms.BudgetExceeded):
        terms.check_identity(lhs, rhs, 2, budget=2**5 - 1)
    with pytest.raises(terms.BudgetExceeded):
        next(terms.assignment_chunks(2, 3, "exhaustive", 8, 0, SEED))
    assert terms.check_identity(lhs, rhs, 2, budget=2**5).mode == "exhaustive"
    rep = skew.check_axioms(core.power_algebra(2, 2), "NBA", budget=3, samples=50)
    assert rep.ok and all(a.mode == "sampled" for a in rep.axioms)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_exhaustive_audit_memory_does_not_grow_with_its_budget():
    """The SRCA audit of 3^2 (9^7 assignments for D3) stays far below the whole array.

    The child reports VmHWM, the peak of its own address space: ru_maxrss
    would carry over the peak of the test process it was started from.
    """
    code = textwrap.dedent("""
        from nbalab import core, skew
        rep = skew.check_axioms(skew.reduct(core.power_algebra(3, 2), "skew", i=1), "SRCA")
        with open("/proc/self/status") as fh:
            peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
        print(rep.ok, rep.sampled, peak_kb // 1024)
    """)
    src = os.path.dirname(os.path.dirname(nbalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    ok, sampled, peak_mb = proc.stdout.split()
    assert (ok, sampled) == ("True", "False"), proc.stderr
    assert int(peak_mb) < 150
