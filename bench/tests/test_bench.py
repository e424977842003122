"""Tests of the benchmark itself: seeded inputs, reference checks, smoke runs.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import nbalab
from bench import reference as ref
from bench import tasks, worker
from bench.run import END_TO_END
from bench.trace import PER_LAYER

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def plan_of(workload, seed, seconds, tmp_path):
    ctx = tasks.CliContext(ROOT, str(tmp_path))
    return worker.build_plan(workload, seed, seconds, nbalab, ctx)


# -- a fixed seed gives an identical task list ------------------------------------


def test_seeded_inputs_repeat_and_differ():
    base = tuple(ref.power_q_table(2, 3).ravel().tolist())
    inputs = [
        lambda s: [(m.pos, m.value) for m in tasks.mutations(s, 2, 3, base, 20)],
        lambda s: tasks.pairs(s, 2, 5, [t % 5 for t in range(20)]),
        lambda s: tasks.subpower_gens(s, 2, 6, 8, 5),
        lambda s: tasks.truth_tables(s, 3, 2, 5),
    ]
    for make in inputs:
        assert make(7) == make(7)
        assert make(7) != make(8)


@pytest.mark.parametrize("workload", ["audit", "structure", "terms", "cli"])
def test_fixed_seed_gives_identical_task_list(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = plan_of(workload, 3, 25, tmp_path / "a")
    second = plan_of(workload, 3, 25, tmp_path / "b")
    names = [t.name for t in first.fixed + first.stream]
    assert names == [t.name for t in second.fixed + second.stream]
    assert len(names) >= 100, "task_p90_s needs ten samples beyond it"
    if workload == "cli":
        files = sorted(os.listdir(tmp_path / "a"))
        assert files == sorted(os.listdir(tmp_path / "b"))
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_broken_identities_repeat():
    lhs, rhs = tasks.axioms(3)["B2"]
    one = tasks.broken(tasks.rng_for(5, "x"), lhs, rhs, 3)
    two = tasks.broken(tasks.rng_for(5, "x"), lhs, rhs, 3)
    assert one == two and not ref.identity_holds(one, rhs, 3)


# -- each reference check rejects a wrong answer -----------------------------------


def test_power_table_matches_the_definition():
    n, m = 3, 2
    table = ref.power_q_table(n, m)
    dig = ref.digits(n, m)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, *ys = (int(v) for v in rng.integers(n**m, size=n + 1))
        want = [dig[ys[dig[x, p]], p] for p in range(m)]
        assert list(dig[table[(x, *ys)]]) == want


def test_nba_witness_check():
    n, m = 2, 3
    base = tuple(ref.power_q_table(n, m).ravel().tolist())
    consts = (ref.constant_index(n, m, 1), ref.constant_index(n, m, 2))
    mt = tasks.MutatedTable(n, m, base, 0, 5)  # q(0, 0, 0) = 5 breaks B1 at y = x = #0
    assert ref.nba_witness_holds("B1", {"y": "#0", "x": "#0"}, mt.array(), consts, n)
    assert not ref.nba_witness_holds("B1", {"y": "#1", "x": "#2"}, mt.array(), consts, n)
    intact = ref.power_q_table(n, m)
    assert not ref.nba_witness_holds("B1", {"y": "#0", "x": "#0"}, intact, consts, n)


def test_congruence_references():
    expect = ref.power_congruences(2, 3)
    assert len(expect) == 8
    wrong = set(expect)
    wrong.discard(max(wrong))
    wrong.add((0, 1, 0, 1, 0, 1, 0, 0))
    assert wrong != expect
    dig = ref.digits(2, 3)
    a, b = 0, 3  # (1,1,1) and (1,2,2) agree on the first point only
    kernel = ref.projection_kernel(dig, np.nonzero(dig[a] == dig[b])[0].tolist())
    assert max(kernel) + 1 == 2 and kernel != ref.projection_kernel(dig, [1])
    assert len(ref.power_proper_multideals(3, 2)) == 3
    assert len(ref.power_ultras(2, 4)) == 4 and len(ref.power_homs(4, 2)) == 2


def test_stone_reference_rejects_bad_maps():
    n, m = 3, 2
    images = (np.asarray(ref.digits(n, m)) + 1).tolist()
    assert ref.is_stone_isomorphism(images, n, m)
    swapped = [row[::-1] for row in images]  # a coordinate swap is an automorphism
    assert ref.is_stone_isomorphism(swapped, n, m)
    moved = [list(r) for r in images]
    moved[1], moved[2] = moved[2], moved[1]  # a bijection that breaks q
    assert not ref.is_stone_isomorphism(moved, n, m)
    collapsed = [list(r) for r in images]
    collapsed[1] = collapsed[0]
    assert not ref.is_stone_isomorphism(collapsed, n, m)


def test_subpower_references():
    carrier = ref.closure(2, 5, [3])
    assert ref.power_exponent(len(carrier), 2) is not None
    assert ref.power_exponent(6, 2) is None


def test_term_references():
    entries = (1, 3, 2, 2, 1, 3, 3, 3, 1)
    term = tasks.synth_reference(3, 2, entries)
    assert ref.truth_table_of(term, 3, 2).tolist() == list(entries)
    bad = tasks.swap_branches(term, (), 0, 1)
    assert ref.truth_table_of(bad, 3, 2).tolist() != list(entries)
    assert ref.parse(ref.to_text(term)) == term
    lhs, rhs = tasks.axioms(2)["B3"]
    assert ref.identity_holds(lhs, rhs, 2)
    broken = tasks.broken(tasks.rng_for(1, "t"), lhs, rhs, 2)
    env = ref.all_assignments(ref.variables(broken, ref.variables(rhs)), 2)
    differ = np.nonzero(ref.evaluate(broken, env, 2) != ref.evaluate(rhs, env, 2))[0]
    good = {k: f"e{int(v[differ[0]])}" for k, v in env.items()}
    assert ref.witness_breaks(broken, rhs, good, 2)
    same = np.nonzero(ref.evaluate(broken, env, 2) == ref.evaluate(rhs, env, 2))[0]
    fake = {k: f"e{int(v[same[0]])}" for k, v in env.items()}
    assert not ref.witness_breaks(broken, rhs, fake, 2)


def test_star_forms_read_back_from_the_program():
    t = nbalab.parse_term("q(x,y,z,w)", 3)
    star = nbalab.translate_term(t, "star", 3)
    assert ref.identity_holds(ref.from_program(star), ref.from_program(t), 3)
    assert ref.parse(nbalab.print_term(star)) == ref.from_program(star)


def test_audit_grading():
    from nbalab.skew import AxiomOutcome, AxiomReport

    proved = AxiomReport("NBA", [AxiomOutcome("B1", True, "exhaustive")], 8)
    sampled = AxiomReport("NBA", [AxiomOutcome("B2", True, "sampled")], 8)
    refuted = AxiomReport("NBA", [AxiomOutcome("B1", False, "exhaustive", {"y": "#0"})], 8)
    assert [tasks.audit_verdict(r) for r in (proved, sampled, refuted)] == [
        "proved", "sampled", "refuted"]
    assert tasks.expect_holds(refuted).status == tasks.WRONG
    assert tasks.expect_holds(sampled).verdict == tasks.SAMPLED


def test_cli_grading(tmp_path):
    ctx = tasks.CliContext(ROOT, str(tmp_path))
    argv = ["eval", "--n", "2", "--term", "q(x,y,z)", "--env", "x=[1]", "y=[2]", "z=[1]"]
    right = tasks.CliCall(argv, 0, lambda out: None if json.loads(out)["result"] == [2]
                          else "wrong value")
    assert tasks.run_cli(right, ctx).status == tasks.OK
    wrong_value = tasks.CliCall(argv, 0, lambda out: None if json.loads(out)["result"] == [1]
                                else "wrong value")
    assert tasks.run_cli(wrong_value, ctx).status == tasks.WRONG
    wrong_code = tasks.CliCall(argv, 1, lambda out: None, probe=True)
    assert tasks.run_cli(wrong_code, ctx).status == tasks.DEFECT


# -- smoke runs -------------------------------------------------------------------

HEAVY = {"skew_star 3^2", "skew_star 2^3", "nba-table 4^2", "nba-power 2^4", "srca 3^2",
         "generated 4^2", "stone 3^3", "stone 2^6", "congruences 2^4", "multideals 2^4",
         "axiom B3 n=3", "table 4,3", "cli congruences 3^2"}


@pytest.mark.parametrize("workload", ["audit", "structure", "terms", "cli"])
def test_smoke_every_task_kind(workload, tmp_path):
    plan = plan_of(workload, 11, 0, tmp_path)
    seen, todo = set(), []
    for task in plan.fixed + plan.stream:
        if task.name not in seen and task.name not in HEAVY:
            seen.add(task.name)
            todo.append(task)
    tally = worker.Tally()
    for task in todo:
        tally.add(task.name, *worker.execute(task))
    assert tally.wrong == 0, tally.problems


def run_bench(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_end_to_end_and_traced_output():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END.items())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    for trace, names in (("0", END_TO_END), ("1", PER_LAYER)):
        proc = run_bench(["--workload", "terms", "--seed", "2", "--seconds", "0",
                          "--trace", trace], ROOT)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert set(out["metrics"]) == set(names)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(["--workload", "audit", "--seed", "1", "--seconds", "25", "--trace", "0"],
                     tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
