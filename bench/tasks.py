"""Seeded task lists for the four workloads.

A task is one question a user would ask: one audit, one enumeration, one
compiled table or one CLI call.  Each task builds its algebra objects
afresh, asks the program, and grades the answer against bench.reference.

Every workload is a plan of two parts.  The fixed part asks each ladder
question once.  The stream is a seeded sequence of smaller questions in
fixed proportions, cycle after cycle; its length follows from the run's
--seconds, never from the clock, so every run of a workload holds the
same mix of questions and its latency percentiles fall on the same tiers
of tasks.  All inputs are made here from the seed, before the first task,
and the program sees only them.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from bench import reference as ref

LADDER = ((3, 2), (2, 4), (2, 5), (4, 2), (3, 3), (2, 6))
MUTATED = ((3, 2), (2, 3), (2, 4), (4, 2))
TABLE_SHAPES = ((2, 5), (3, 2), (3, 3), (4, 2), (4, 3))

OK, WRONG, DEFECT = "ok", "wrong", "defect"
EXACT, SAMPLED = "exact", "sampled"


@dataclass
class Outcome:
    status: str = OK  # ok | wrong (bad answer on valid input) | defect (bad rejection)
    verdict: Optional[str] = None  # exact | sampled, for tasks that return a verdict
    detail: str = ""


@dataclass
class Task:
    name: str
    run: Callable[[], Outcome]


@dataclass
class Plan:
    fixed: list
    stream: list
    cycle: int  # length of one cycle of stream proportions

    def order(self) -> list:
        """Fixed tasks spread evenly through the stream.

        A slow spell of the machine then touches a share of every tier of
        tasks instead of one whole tier, which keeps run-to-run spread down.
        """
        return spread(self.fixed, self.stream)


def rng_for(seed: int, *labels) -> np.random.Generator:
    """Independent stream per input family, fixed by the run seed."""
    key = [seed] + [sum(ord(c) * 131**i for i, c in enumerate(str(lab))) % 2**31
                    for lab in labels]
    return np.random.default_rng(key)


def spread(*seqs) -> list:
    """Merge sequences so that the items of each are spread evenly over the result."""
    marks = sorted(((i + 0.5) / len(seq), k, i)
                   for k, seq in enumerate(seqs) for i in range(len(seq)))
    return [seqs[k][i] for _, k, i in marks]


def stream_keys(counts: dict, seconds: float, per_second: float) -> list:
    """Stream families, one evenly spread cycle after another: per_second * seconds of them.

    per_second is set per workload so that at --seconds 25 a run holds at
    least 100 tasks and takes 15-30 s on the reference machine (2 cores,
    Python 3.11.7, numpy 2.4.6).  The count never depends on the clock.
    """
    cycle = spread(*([key] * c for key, c in counts.items()))
    count = max(len(cycle), round(seconds * per_second))
    return [cycle[t % len(cycle)] for t in range(count)]


def label(n: int, m: int) -> str:
    return f"{n}^{m}"


def wrong(detail: str) -> Outcome:
    return Outcome(WRONG, None, detail)


def audit_verdict(report) -> str:
    """proved | refuted | sampled, from the per-axiom results."""
    if not report.ok:
        return "refuted"
    if any(a.mode == "sampled" for a in report.axioms):
        return "sampled"
    return "proved"


def expect_holds(report) -> Outcome:
    """An audit of an algebra that satisfies the suite."""
    v = audit_verdict(report)
    if v == "refuted":
        fail = report.first_failure()
        return wrong(f"refuted a true suite at {fail.name}")
    return Outcome(OK, EXACT if v == "proved" else SAMPLED)


# -- audit ----------------------------------------------------------------------


class MutatedTable:
    """A ladder table with one seeded entry changed, kept as (base, position, value)."""

    def __init__(self, n, m, base, pos, value):
        self.n, self.m = n, m
        self.base, self.pos, self.value = base, pos, value

    def flat(self) -> tuple:
        out = list(self.base)
        out[self.pos] = self.value
        return tuple(out)

    def array(self) -> np.ndarray:
        size = self.n**self.m
        arr = np.asarray(self.base, dtype=np.int64).copy()
        arr[self.pos] = self.value
        return arr.reshape((size,) * (self.n + 1))


def mutations(seed: int, n: int, m: int, base: tuple, count: int) -> list:
    rng = rng_for(seed, "mutation", n, m)
    size = n**m
    out = []
    for _ in range(count):
        pos = int(rng.integers(len(base)))
        value = (base[pos] + 1 + int(rng.integers(size - 1))) % size
        out.append(MutatedTable(n, m, base, pos, value))
    return out


def audit_plan(seed: int, seconds: float, nbalab) -> Plan:
    core, skew, representation = nbalab.core, nbalab.skew, nbalab.representation
    from nbalab.transforms import CenterParams

    tables = {}
    for n, m in set(LADDER) | set(MUTATED):
        tables[(n, m)] = tuple(ref.power_q_table(n, m).ravel().tolist())

    def consts(n, m):
        return tuple(ref.constant_index(n, m, k) for k in range(1, n + 1))

    def nba_power(n, m):
        return lambda: expect_holds(skew.check_axioms(core.power_algebra(n, m), "NBA"))

    def nba_table(n, m):
        def run():
            alg = core.TableAlgebra(n, n**m, consts(n, m), tables[(n, m)])
            return expect_holds(skew.check_axioms(alg, "NBA"))
        return run

    def reduct_suite(n, m, suite):
        def run():
            sk = skew.reduct(core.power_algebra(n, m), "skew", i=1)
            return expect_holds(skew.check_axioms(sk, suite))
        return run

    def boolean(n, m):
        def run():
            bc = skew.boolean_center(core.power_algebra(n, m), CenterParams(1, 2))
            if bc.size != 2**m:
                return wrong(f"Boolean center has {bc.size} elements, expected {2**m}")
            return expect_holds(skew.check_axioms(bc.table, "BOOLEAN"))
        return run

    def star(n, m):
        return lambda: expect_holds(
            skew.check_axioms(skew.star_of(core.power_algebra(n, m)), "SKEW_STAR"))

    def embedding(points, n, i):
        def run():
            rep = representation.verify_embedding(points, n, i)
            return Outcome() if rep.ok and rep.injective else wrong(f"embedding failed: {rep}")
        return run

    def mutated(mt: MutatedTable):
        n, m = mt.n, mt.m

        def run():
            alg = core.TableAlgebra(n, n**m, consts(n, m), mt.flat())
            report = skew.check_axioms(alg, "NBA")
            v = audit_verdict(report)
            if v == "proved":
                return wrong("a mutated table was proved an nBA")
            if v == "sampled":
                return Outcome(OK, SAMPLED)
            fail = report.first_failure()
            if not ref.nba_witness_holds(fail.name, fail.counterexample, mt.array(),
                                         consts(n, m), n):
                return wrong(f"witness for {fail.name} does not re-check")
            return Outcome(OK, EXACT)
        return run

    fixed = []
    for n, m in LADDER:
        fixed.append(Task(f"nba-power {label(n, m)}", nba_power(n, m)))
        fixed.append(Task(f"nba-table {label(n, m)}", nba_table(n, m)))
        for suite in ("SKEW_BA", "RIGHT_HANDED", "SRCA"):
            fixed.append(Task(f"{suite.lower()} {label(n, m)}", reduct_suite(n, m, suite)))
        fixed.append(Task(f"boolean {label(n, m)}", boolean(n, m)))
    for n, m in ((2, 3), (3, 2)):
        fixed.append(Task(f"skew_star {label(n, m)}", star(n, m)))
    rng = rng_for(seed, "embedding")
    for points, n in ((2, 3), (3, 3), (2, 4), (3, 4)):
        i = int(rng.integers(3, n + 1))
        fixed.append(Task(f"embedding {points},{n},{i}", embedding(points, n, i)))

    # Mostly cheap refutations of 3^2 tables, so that task_p50_s sits among
    # them; 2^3 mutations (exhaustive B2/B3) are the tier task_p90_s sits in;
    # one 4^2 mutation (sampled B2/B3) per cycle.
    counts = {(3, 2): 30, (2, 4): 4, (2, 3): 5, (4, 2): 1}
    keys = stream_keys(counts, seconds, 3.2)
    pools = {nm: iter(mutations(seed, *nm, tables[nm], keys.count(nm))) for nm in MUTATED}
    stream = [Task(f"mutation {label(*nm)}", mutated(next(pools[nm]))) for nm in keys]
    return Plan(fixed, stream, sum(counts.values()))


# -- structure ------------------------------------------------------------------


def subpower_gens(seed: int, n: int, m: int, size: int, count: int) -> list:
    """Seeded one- or two-element generator sets whose subpower has `size` elements.

    Sizes are fixed per task slot so that every run holds the same mix of
    carrier sizes (all at most 16); the generators are drawn from the seed.
    """
    rng = rng_for(seed, "subpower", n, m, size)
    out = []
    while len(out) < count:
        k = int(rng.integers(1, 3))
        gens = sorted({int(g) for g in rng.integers(n**m, size=k)})
        carrier = ref.closure(n, m, gens)
        if len(carrier) == size:
            out.append((gens, carrier))
    return out


def pairs(seed: int, n: int, m: int, agreements) -> list:
    """Seeded pairs of distinct elements of n^m, one per requested agreement count.

    The agreement count (points where the two elements have the same value)
    fixes the size of the generated congruence, n**agree blocks, and with it
    the work; the seed picks the elements.
    """
    rng = rng_for(seed, "pair", n, m)
    dig = ref.digits(n, m)
    out = []
    for agree in agreements:
        a = int(rng.integers(n**m))
        same = set(rng.choice(m, size=agree, replace=False).tolist())
        vals = [int(v) + 1 if p in same else (int(v) + int(rng.integers(1, n))) % n + 1
                for p, v in enumerate(dig[a])]
        out.append((a, ref.element_index(vals, n)))
    return out


def structure_plan(seed: int, seconds: float, nbalab) -> Plan:
    core, ideals = nbalab.core, nbalab.ideals

    def elements(n, m):
        return [tuple(int(v) + 1 for v in row) for row in ref.digits(n, m).tolist()]

    def congruences(n, m):
        expect = ref.power_congruences(n, m)

        def run():
            got = [c.blocks for c in ideals.all_congruences(core.power_algebra(n, m))]
            if len(got) != 2**m or set(got) != expect:
                return wrong(f"{len(got)} congruences, expected the {2**m} projection kernels")
            return Outcome()
        return run

    def multideals(n, m):
        expect = ref.power_proper_multideals(n, m)

        def run():
            got = ideals.all_proper_multideals(core.power_algebra(n, m))
            comps = [md.components for md in got if not md.degenerate]
            if len(got) != 2**m - 1 or set(comps) != expect:
                return wrong(f"{len(got)} proper multideals, expected {2**m - 1}")
            return Outcome()
        return run

    def subpower(n, m, gens, carrier, what):
        els = elements(n, m)
        j = ref.power_exponent(len(carrier), n)
        expect_carrier = tuple(els[c] for c in carrier)

        def run():
            full = core.power_algebra(n, m)
            sub = core.subalgebra_closure(full, [els[g] for g in gens])
            if sub.carrier != expect_carrier or j is None:
                return wrong("subalgebra closure differs from the reference closure")
            if what == "congruences":
                count, expect = len(ideals.all_congruences(sub)), 2**j
            else:
                count, expect = len(ideals.all_proper_multideals(sub)), 2**j - 1
            if count != expect:
                return wrong(f"{count} {what} of a {len(carrier)}-element subpower")
            return Outcome()
        return run

    def generated(n, m, a, b):
        dig = ref.digits(n, m)
        expect = ref.projection_kernel(dig, np.nonzero(dig[a] == dig[b])[0].tolist())

        def run():
            th = ideals.congruence_generated(core.power_algebra(n, m), [(a, b)])
            if th.blocks != expect:
                return wrong(f"congruence generated by ({a},{b}) is not the projection kernel")
            return Outcome()
        return run

    def ultras(n, m):
        expect = ref.power_ultras(n, m)

        def run():
            got = ideals.all_ultramultideals(core.power_algebra(n, m))
            if len(got) != m or {u.components for u in got} != expect:
                return wrong(f"{len(got)} ultramultideals, expected {m}")
            return Outcome()
        return run

    def stone(n, m):
        def run():
            emb = ideals.stone_embed(core.power_algebra(n, m))
            if not emb.preserves_q():
                return wrong("preserves_q is False on a full power")
            if not ref.is_stone_isomorphism(emb.images, n, m):
                return wrong("the Stone map is not a q-preserving bijection onto n^k")
            return Outcome(OK, EXACT)
        return run

    def homs(n, m):
        expect = ref.power_homs(n, m)

        def run():
            got = ideals.all_homs_onto_generator(core.power_algebra(n, m))
            if set(got) != expect or len(got) != m:
                return wrong(f"{len(got)} homs onto the generator, expected the {m} projections")
            return Outcome()
        return run

    def round_trip(n, m):
        kernels = sorted(b for b in ref.power_congruences(n, m) if max(b) > 0)

        def run():
            alg = core.power_algebra(n, m)
            for blocks in kernels:
                md = ideals.multideal_of(ideals.Congruence(alg, blocks))
                if ideals.theta_of(md).blocks != blocks:
                    return wrong("theta_of(multideal_of(th)) differs from th")
            return Outcome()
        return run

    # The stream: small questions on the same engines.  Principal congruences
    # of 2^5 are its upper tier, where task_p90_s sits.  Stone maps of 2^4 are
    # the middle tier, a quarter of the stream with as many tasks below it as
    # above, so that task_p50_s sits inside it and not on the step to the
    # slightly slower Stone maps of 3^2 and subpowers of 2^6.  Ultramultideals,
    # homs and subpowers of 2^5 are the small tier.
    sub_keys = ((2, 5, 4), (2, 5, 8), (2, 6, 8))
    small = {
        "ultras 3^2": lambda: ultras(3, 2), "homs 3^2": lambda: homs(3, 2),
        "ultras 2^4": lambda: ultras(2, 4), "homs 2^4": lambda: homs(2, 4),
        "stone 3^2": lambda: stone(3, 2), "stone 2^4": lambda: stone(2, 4),
    }
    counts = {"generated": 4, "ultras 3^2": 1, "homs 3^2": 1, "ultras 2^4": 1, "homs 2^4": 1,
              "stone 3^2": 1, "stone 2^4": 5}
    counts.update({key + (what,): 1 for key in sub_keys for what in ("congruences", "multideals")})
    keys = stream_keys(counts, seconds, 8.4)
    # fixed pairs agree on half the points; the stream cycles through 0..4
    stream_agree = [t % 5 for t in range(keys.count("generated"))]
    prs = {(n, m): iter(pairs(seed, n, m, [m // 2] + (stream_agree if (n, m) == (2, 5) else [])))
           for n, m in ((2, 5), (2, 6), (3, 3), (4, 2))}
    subs = {key: iter(subpower_gens(seed, *key, sum(k[:3] == key for k in keys if len(k) == 4)))
            for key in sub_keys}

    fixed = []
    for n, m in ((2, 3), (3, 2), (2, 4)):
        fixed.append(Task(f"congruences {label(n, m)}", congruences(n, m)))
        fixed.append(Task(f"multideals {label(n, m)}", multideals(n, m)))
    for n, m, size in ((3, 3, 9), (2, 5, 8), (2, 6, 16)):
        (gens, carrier), = subpower_gens(seed, n, m, size, 1)
        for what in ("congruences", "multideals"):
            fixed.append(Task(f"subpower-{what} {label(n, m)}",
                              subpower(n, m, gens, carrier, what)))
    for nm in ((2, 5), (2, 6), (3, 3), (4, 2)):
        fixed.append(Task(f"generated {label(*nm)}", generated(*nm, *next(prs[nm]))))
    for n, m in ((3, 2), (2, 4), (2, 5), (3, 3), (2, 6)):
        fixed.append(Task(f"ultras {label(n, m)}", ultras(n, m)))
        fixed.append(Task(f"stone {label(n, m)}", stone(n, m)))
    for n, m in ((3, 2), (2, 4), (4, 2)):
        fixed.append(Task(f"homs {label(n, m)}", homs(n, m)))
    fixed.append(Task("round-trip 3^2", round_trip(3, 2)))

    stream = []
    for key in keys:
        if key == "generated":
            stream.append(Task("generated 2^5", generated(2, 5, *next(prs[(2, 5)]))))
        elif key in small:
            stream.append(Task(key, small[key]()))
        else:
            n, m, size, what = key
            gens, carrier = next(subs[(n, m, size)])
            stream.append(Task(f"subpower-{what} {label(n, m)}",
                               subpower(n, m, gens, carrier, what)))
    return Plan(fixed, stream, sum(counts.values()))


# -- terms ----------------------------------------------------------------------


def axioms(n: int) -> dict:
    """NBA axioms B0-B4 as reference terms."""
    v = lambda name: ("v", name)
    e = lambda k: ("e", k)
    q = lambda s, *bs: ("q", s, tuple(bs))
    rng = range(1, n + 1)
    out = {}
    xs = [v(f"x{t}") for t in rng]
    for i in rng:
        out[f"B0[{i}]"] = (q(e(i), *xs), xs[i - 1])
    out["B1"] = (q(v("y"), *[v("x")] * n), v("x"))
    y = v("y")
    rows = [q(y, *[v(f"x{r}{c}") for c in rng]) for r in rng]
    out["B2"] = (q(y, *rows), q(y, *[v(f"x{k}{k}") for k in rng]))
    lhs = q(y, *[q(v(f"x{r}0"), *[v(f"x{r}{c}") for c in rng]) for r in rng])
    scr = q(y, *[v(f"x{r}0") for r in rng])
    rhs = q(scr, *[q(y, *[v(f"x{r}{c}") for r in rng]) for c in rng])
    out["B3"] = (lhs, rhs)
    out["B4"] = (q(y, *[e(k) for k in rng]), y)
    return out


def q_nodes(t: tuple, path=()) -> list:
    """Paths to every q node of a reference term."""
    out = []
    if t[0] == "q":
        out.append(path)
        out += q_nodes(t[1], path + (0,))
        for s, b in enumerate(t[2]):
            out += q_nodes(b, path + (s + 1,))
    return out


def swap_branches(t: tuple, path: tuple, a: int, b: int) -> tuple:
    if not path:
        branches = list(t[2])
        branches[a], branches[b] = branches[b], branches[a]
        return ("q", t[1], tuple(branches))
    head, rest = path[0], path[1:]
    if head == 0:
        return ("q", swap_branches(t[1], rest, a, b), t[2])
    branches = list(t[2])
    branches[head - 1] = swap_branches(branches[head - 1], rest, a, b)
    return ("q", t[1], tuple(branches))


def broken(seed_rng: np.random.Generator, lhs: tuple, rhs: tuple, n: int, tries: int = 64):
    """Swap two branches of one q node of lhs so that lhs = rhs fails, or None."""
    paths = q_nodes(lhs)
    for _ in range(tries):
        path = paths[int(seed_rng.integers(len(paths)))]
        a, b = sorted(int(v) for v in seed_rng.choice(n, size=2, replace=False))
        cand = swap_branches(lhs, path, a, b)
        if not ref.identity_holds(cand, rhs, n):
            return cand
    return None


def truth_tables(seed: int, n: int, k: int, count: int) -> list:
    rng = rng_for(seed, "table", n, k)
    return [tuple(int(v) for v in rng.integers(1, n + 1, size=n**k)) for _ in range(count)]


def terms_plan(seed: int, seconds: float, nbalab) -> Plan:
    terms, transforms, synthesis = nbalab.terms, nbalab.transforms, nbalab.synthesis

    def decide(lhs_text, rhs_text, n):
        lhs, rhs = terms.parse_term(lhs_text, n), terms.parse_term(rhs_text, n)
        try:
            return terms.check_identity(lhs, rhs, n)
        except terms.BudgetExceeded:
            return terms.check_identity(lhs, rhs, n, mode="sampled")

    def axiom_task(lhs, rhs, n):
        lt, rt = ref.to_text(lhs), ref.to_text(rhs)

        def run():
            v = decide(lt, rt, n)
            if not v.valid:
                return wrong(f"an NBA axiom was refuted in the {n}-element generator")
            return Outcome(OK, EXACT if v.mode == "exhaustive" else SAMPLED)
        return run

    def broken_task(lhs, rhs, n):
        lt, rt = ref.to_text(lhs), ref.to_text(rhs)

        def run():
            v = decide(lt, rt, n)
            if v.valid:
                if v.mode == "exhaustive":
                    return wrong("a broken identity was proved")
                return Outcome(OK, SAMPLED)
            if not ref.witness_breaks(lhs, rhs, v.counterexample, n):
                return wrong("counterexample does not re-check")
            return Outcome(OK, EXACT)
        return run

    def table_task(n, k, entries):
        expect = np.array(entries, dtype=np.int64)

        def agrees(term) -> bool:
            return bool(np.array_equal(ref.truth_table_of(ref.from_program(term), n, k), expect))

        def run():
            table = synthesis.TruthTable(n, k, entries)
            t = synthesis.synth(table)
            if not synthesis.verify_term(t, table) or not agrees(t):
                return wrong("synthesised term misses the table")
            simp, _trace = synthesis.simplify(t, n)
            if not synthesis.verify_term(simp, table) or not agrees(simp):
                return wrong("simplified term misses the table")
            star = transforms.translate_term(simp, "star", n)
            back = transforms.translate_term(star, "q", n)
            if not agrees(star) or not agrees(back):
                return wrong("signature translation changed the table")
            v = terms.check_identity(star, simp, n)
            if not v.valid:
                return wrong("star form and simplified term judged different")
            return Outcome(OK, EXACT if v.mode == "exhaustive" else SAMPLED)
        return run

    def broken_table(n, k, rng):
        """A compiled table with two branches of one q node swapped, against itself."""
        while True:
            base = synth_reference(n, k, tuple(int(v) for v in rng.integers(1, n + 1, n**k)))
            bad = broken(rng, base, base, n)
            if bad is not None:
                return broken_task(bad, base, n)

    fixed = []
    brng = rng_for(seed, "broken-axiom")
    for n in (2, 3, 4):
        for name, (lhs, rhs) in axioms(n).items():
            fixed.append(Task(f"axiom {name} n={n}", axiom_task(lhs, rhs, n)))
    for n in (2, 3, 4):
        for name, (lhs, rhs) in axioms(n).items():
            small = len(ref.variables(lhs, ref.variables(rhs))) <= 10
            if name == "B1" or not small:
                continue
            fixed.append(Task(f"broken {name} n={n}", broken_task(broken(brng, lhs, rhs, n),
                                                                  rhs, n)))
    counts = {(2, 5): 24, (3, 3): 8, (4, 2): 16, (3, 2): 8, "broken": 8, (4, 3): 1}
    keys = stream_keys(counts, seconds, 10.4)
    pools = {nk: iter(truth_tables(seed, *nk, 1 + keys.count(nk))) for nk in TABLE_SHAPES}
    for nk in TABLE_SHAPES:
        fixed.append(Task(f"table {nk[0]},{nk[1]}", table_task(*nk, next(pools[nk]))))

    # Small tables, broken table identities, and one n = 4, k = 3 table per
    # cycle of 65 (about 1.3 s each, half the run's time at one per 33).  Tables of 2^5 are the tier task_p50_s sits in the middle of, with
    # the cheaper tasks below it and the slightly slower 3^3 tables above;
    # tables of 4^2 are the tier task_p90_s sits in.
    trng = rng_for(seed, "broken-table")
    shapes = itertools.cycle(((2, 3), (3, 2), (3, 3), (4, 2)))
    stream = []
    for nk in keys:
        if nk == "broken":
            n, k = next(shapes)
            stream.append(Task(f"broken table {n},{k}", broken_table(n, k, trng)))
        else:
            stream.append(Task(f"table {nk[0]},{nk[1]}", table_task(*nk, next(pools[nk]))))
    return Plan(fixed, stream, sum(counts.values()))


def synth_reference(n: int, k: int, entries, depth: int = 1) -> tuple:
    """Multiplexer expansion of a table, written from its definition."""
    if k == 0:
        return ("e", entries[0])
    stride = n ** (k - 1)
    return ("q", ("v", f"x{depth}"),
            tuple(synth_reference(n, k - 1, entries[v * stride:(v + 1) * stride], depth + 1)
                  for v in range(n)))


# -- cli ------------------------------------------------------------------------


NBA = ["-c", "import sys; from nbalab.cli import main; sys.exit(main())"]


def child_env(root: str) -> dict:
    """Environment that lets a child interpreter import nbalab from the checkout."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class CliCall:
    argv: list
    expect_code: int
    check: Callable[[str], Optional[str]]  # stdout -> error message, or None when right
    verdict: Callable[[str], Optional[str]] = lambda out: None
    probe: bool = False  # an invalid input: a bad exit is a rejection defect


@dataclass
class CliContext:
    root: str
    workdir: str
    recorder: object = None  # set while a traced run executes a task


def run_cli(call: CliCall, ctx: CliContext) -> Outcome:
    """One `nba` child process, graded by exit code, stderr and the output check."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *NBA, *call.argv], cwd=ctx.workdir,
                          env=child_env(ctx.root), capture_output=True, text=True,
                          timeout=120)
    if ctx.recorder is not None:
        ctx.recorder.cli_call(time.perf_counter() - t0, len(proc.stdout.encode()),
                              call.argv, ctx.workdir)
    bad = None
    if proc.returncode != call.expect_code:
        bad = f"exit {proc.returncode}, expected {call.expect_code}"
    elif "Traceback" in proc.stderr:
        bad = "traceback on stderr"
    else:
        try:
            bad = call.check(proc.stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            bad = f"unreadable output: {exc!r}"
    if bad:
        return Outcome(DEFECT if call.probe else WRONG, None, f"nba {call.argv[0]}: {bad}")
    return Outcome(OK, call.verdict(proc.stdout))


def audit_modes(out: str) -> str:
    payload = json.loads(out)
    sampled = any(a["mode"] == "sampled" for a in payload["axioms"])
    return SAMPLED if sampled and payload["ok"] else EXACT


def audit_ok(out: str) -> Optional[str]:
    return None if json.loads(out)["ok"] else "suite reported failing on a power"


def cli_plan(seed: int, seconds: float, ctx: CliContext) -> Plan:
    """Writes the seeded input files into ctx.workdir and returns the calls."""
    crng = rng_for(seed, "cli")

    def write(name, obj):
        with open(os.path.join(ctx.workdir, name), "w", encoding="utf-8") as fh:
            fh.write(obj if isinstance(obj, str) else json.dumps(obj))
        return name

    for n, m in ((3, 2), (2, 3), (2, 4)):
        write(f"p{n}{m}.json", {"n": n, "kind": "power", "points": m})
    consts23 = tuple(ref.constant_index(2, 3, k) for k in (1, 2))
    bad = mutations(seed, 2, 3, tuple(ref.power_q_table(2, 3).ravel().tolist()), 1)[0]
    write("bad.json", {"n": 2, "kind": "table", "size": 8, "constants": list(consts23),
                       "q": list(bad.flat())})
    # the constants of 3^2 and one more element whose closure is larger
    els32 = [[int(v) + 1 for v in row] for row in ref.digits(3, 2).tolist()]
    consts32 = [ref.constant_index(3, 2, k) for k in (1, 2, 3)]
    orng = rng_for(seed, "open-subpower")
    while True:
        extra = int(orng.integers(9))
        if extra not in consts32 and len(ref.closure(3, 2, [extra])) > 4:
            break
    write("open.json", {"n": 3, "kind": "subpower", "points": 2,
                        "carrier": [els32[c] for c in sorted(consts32 + [extra])]})
    write("broken.json", json.dumps({"n": 3, "kind": "power", "points": 2})[:-7])
    # a proper multideal of 2^3 from a projection kernel, as a candidate file
    els23 = [[int(v) + 1 for v in row] for row in ref.digits(2, 3).tolist()]
    mids = sorted(ref.power_proper_multideals(2, 3), key=lambda c: sorted(map(sorted, c)))
    cand = mids[int(crng.integers(len(mids)))]
    write("cand.json", {"components": [[els23[x] for x in sorted(c)] for c in cand]})

    def bad_refuted(out):
        cex = dict(json.loads(out)["counterexample"])
        name = cex.pop("axiom")
        good = ref.nba_witness_holds(name, cex, bad.array(), consts23, 2)
        return None if good else "counterexample does not re-check"

    def congruences(n, m):
        expect = ref.power_congruences(n, m)

        def check(out):
            payload = json.loads(out)
            got = {ref.canonical(c["blocks"]) for c in payload["congruences"]}
            good = payload["count"] == 2**m and got == expect
            return None if good else "wrong congruences"
        return CliCall(["congruences", "--algebra", f"p{n}{m}.json"], 0, check)

    def ultras(n, m):
        return CliCall(["ultras", "--algebra", f"p{n}{m}.json"], 0,
                       lambda out: None if json.loads(out)["count"] == m
                       else "wrong ultramultideal count")

    def embed(n, m):
        def check(out):
            payload = json.loads(out)
            good = payload["isomorphism"] and ref.is_stone_isomorphism(payload["images"], n, m)
            return None if good else "not an isomorphism onto n^k"
        return CliCall(["embed", "--algebra", f"p{n}{m}.json"], 0, check)

    def reduct(n, m, i):
        table = ref.power_q_table(n, m)
        a, b = np.indices((n**m, n**m))
        z = np.full_like(a, ref.constant_index(n, m, i))

        def t(x, y, w):  # t_i(x, y, w) = q(x, y, ..., w at slot i, ..., y)
            return table[tuple([x] + [w if k == i else y for k in range(1, n + 1)])]

        expect = {"meet": t(a, b, z).tolist(), "join": t(a, a, b).tolist(),
                  "minus": t(b, z, a).tolist()}

        def check(out):
            payload = json.loads(out)
            good = all(payload[key] == val for key, val in expect.items())
            return None if good else "reduct tables differ from the definitions"
        return CliCall(["reduct", "--algebra", f"p{n}{m}.json", "--kind", "skew", "--i",
                        str(i)], 0, check)

    def translate(n):
        lhs = axioms(n)["B3" if n == 2 else "B4"][0]
        text = ref.to_text(lhs)

        def check(out):
            got = ref.parse(json.loads(out)["term"])
            return None if ref.identity_holds(got, lhs, n) else "translation changed the term"
        return CliCall(["translate", "--n", str(n), "--term", text, "--to", "star"], 0, check)

    def equiv(n, holds):
        lhs, rhs = axioms(n)["B2" if n == 2 else "B0[1]"]
        if not holds:
            lhs = broken(crng, lhs, rhs, n)

        def check(out):
            payload = json.loads(out)
            if payload["valid"] != holds:
                return "wrong verdict"
            if not holds and not ref.witness_breaks(lhs, rhs, payload["counterexample"], n):
                return "counterexample does not re-check"
            return None

        def verdict(out):
            payload = json.loads(out)
            return EXACT if payload["mode"] == "exhaustive" or not payload["valid"] else SAMPLED
        return CliCall(["equiv", "--n", str(n), ref.to_text(lhs), ref.to_text(rhs)],
                       0 if holds else 1, check, verdict)

    def synth(n, k, t):
        entries = truth_tables(seed + 104729 * (t + 1), n, k, 1)[0]
        name = write(f"table_{n}{k}_{t}.json", {"n": n, "k": k, "entries": list(entries)})

        def check(out):
            payload = json.loads(out)
            got = ref.truth_table_of(ref.parse(payload["simplified"]), n, k)
            good = (payload["verified"] and payload["simplified_verified"]
                    and np.array_equal(got, np.array(entries)))
            return None if good else "simplified term misses the table"
        return CliCall(["synth", "--table", name, "--simplify"], 0, check)

    def evaluate(n, points):
        names = ["x", "y", "z", "w", "u"][: n + 1]
        env = {v: [int(x) for x in crng.integers(1, n + 1, size=points)] for v in names}
        vals = np.array([env[v] for v in names])
        expect = vals[1:][vals[0] - 1, np.arange(points)].tolist()
        argv = ["eval", "--n", str(n), "--term", f"q({','.join(names)})", "--env"]
        argv += [f"{v}=[{','.join(map(str, env[v]))}]" for v in names]
        return CliCall(argv, 0, lambda out: None if json.loads(out)["result"] == expect
                       else "wrong value")

    def probe(argv, code, check=lambda out: None, verdict=lambda out: None):
        return CliCall(argv, code, check, verdict, probe=True)

    fixed = [
        ("check nba 3^2", CliCall(["check", "--algebra", "p32.json", "--suite", "nba"], 0,
                                  audit_ok, audit_modes)),
        ("check srca 2^4", CliCall(["check", "--algebra", "p24.json", "--suite", "srca"], 0,
                                   audit_ok, audit_modes)),
        ("equiv valid", equiv(2, True)),
        ("equiv broken", equiv(3, False)),
        ("translate", translate(3)),
        ("synth 3,2", synth(3, 2, 0)),
        ("congruences 3^2", congruences(3, 2)),
        ("multideals 2^3", CliCall(
            ["multideals", "--algebra", "p23.json", "--validate", "cand.json"], 0,
            lambda out: None if json.loads(out)["status"] == "proper"
            else "a proper multideal was not accepted")),
        ("ultras 2^4", ultras(2, 4)),
        ("embed 3^2", embed(3, 2)),
        ("reduct 3^2", reduct(3, 2, 1)),
        ("represent", CliCall(["represent", "--points", "2", "--n", "3", "--i", "3"], 0,
                              lambda out: None if json.loads(out)["ok"] else "embedding failed")),
        ("eval", evaluate(3, 2)),
        ("invalid: check non-nBA table",
         probe(["check", "--algebra", "bad.json", "--suite", "nba"], 1, bad_refuted,
               lambda out: EXACT)),
        ("invalid: ultras non-nBA table", probe(["ultras", "--algebra", "bad.json"], 1)),
        ("invalid: embed non-nBA table", probe(["embed", "--algebra", "bad.json"], 1)),
        ("invalid: congruences open subpower",
         probe(["congruences", "--algebra", "open.json"], 2)),
        ("invalid: malformed JSON",
         probe(["check", "--algebra", "broken.json", "--suite", "nba"], 2)),
    ]
    # Most calls cost one interpreter start and the nbalab import; the NBA audit
    # of 3^2 adds about as much again.  Two in ten stream calls are that audit,
    # so with the fixed calls above it task_p90_s sits in the middle of its
    # tier, not in the start-up jitter of the cheap calls.
    makers = [
        lambda t: ("check nba 3^2", CliCall(
            ["check", "--algebra", "p32.json", "--suite", "nba"], 0, audit_ok, audit_modes)),
        lambda t: ("eval", evaluate(int(crng.integers(2, 4)), int(crng.integers(1, 4)))),
        lambda t: ("translate", translate(int(crng.integers(2, 4)))),
        lambda t: ("equiv", equiv(2, bool(t % 2))),
        lambda t: ("reduct 2^3", reduct(2, 3, 1 + t % 2)),
        lambda t: ("synth 2,3", synth(2, 3, t + 1)),
        lambda t: ("check skewba 2^3", CliCall(
            ["check", "--algebra", "p23.json", "--suite", "skewba"], 0, audit_ok,
            audit_modes)),
        lambda t: ("ultras 2^3", ultras(2, 3)),
        lambda t: ("embed 2^3", embed(2, 3)),
    ]
    keys = stream_keys({i: 2 if i == 0 else 1 for i in range(len(makers))}, seconds, 3.32)
    stream = [makers[i](t) for t, i in enumerate(keys)]

    def task(name, call):
        return Task(f"cli {name}", lambda: run_cli(call, ctx))

    return Plan([task(*c) for c in fixed], [task(*c) for c in stream], len(makers) + 1)
