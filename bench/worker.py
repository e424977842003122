"""One workload run in a fresh interpreter: set up, run the closed loop, report.

Started by bench/run.py; prints one JSON object on its last stdout line.

    python3 bench/worker.py --workload audit --seed 1 --seconds 25 --trace 0
    python3 bench/worker.py --workload audit --seed 1 --setup-only
    python3 bench/worker.py --workload audit --seed 1 --task "srca 3^2"
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("audit", "structure", "terms", "cli")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def load_program():
    """Import nbalab, every module and the CLI included, from the checkout's src/."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    import nbalab.cli

    return nbalab


def build_plan(workload: str, seed: int, seconds: float, nbalab, ctx):
    from bench import tasks

    if workload == "audit":
        return tasks.audit_plan(seed, seconds, nbalab)
    if workload == "structure":
        return tasks.structure_plan(seed, seconds, nbalab)
    if workload == "terms":
        return tasks.terms_plan(seed, seconds, nbalab)
    return tasks.cli_plan(seed, seconds, ctx)


class Tally:
    """Latencies and graded outcomes of the tasks of one run."""

    def __init__(self):
        self.latencies: list = []
        self.attempted = self.wrong = self.defects = 0
        self.exact = self.verdicts = 0
        self.problems: list = []

    def add(self, name: str, seconds: float, outcome) -> None:
        from bench.tasks import DEFECT, EXACT, WRONG

        self.latencies.append(seconds)
        self.attempted += 1
        if outcome.status == WRONG:
            self.wrong += 1
        elif outcome.status == DEFECT:
            self.defects += 1
        if outcome.status != "ok":
            self.problems.append(f"{name}: {outcome.status}: {outcome.detail}")
        if outcome.verdict is not None:
            self.verdicts += 1
            self.exact += outcome.verdict == EXACT


def execute(task):
    """Run one task; an exception on valid input is a wrong answer."""
    from bench.tasks import Outcome, WRONG

    t0 = time.perf_counter()
    try:
        outcome = task.run()
    except Exception as exc:  # noqa: BLE001 - the loop must go on and report it
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome(WRONG, None, f"raised {exc!r}")
    return time.perf_counter() - t0, outcome


# Median calibration sample on the reference machine (2 cores, Python 3.11.7,
# numpy 2.4.6).  Times are reported at this machine speed; see run_untraced.
# The sample's small-object part made it 1.5 times longer; the constant was
# scaled by the same measured ratio, so reported times keep their scale.
CALIBRATION_S = 0.0039


class Calibration:
    """A fixed piece of pure-Python and numpy work that calls no nbalab code.

    Its arrays are allocated once.  The small-object part, a tree of tuples
    built and walked and a dict filled, is there because the tasks allocate
    many small objects, and when the shared host is busy that work slows by
    about twice the share that plain arithmetic does.
    """

    def __init__(self):
        import numpy as np

        self.a = np.arange(200_000)
        self.b = np.empty_like(self.a)
        self.samples: list = []

    def sample(self) -> None:
        import numpy as np

        def build(depth):
            return ("q", depth, tuple(build(depth - 1) for _ in range(3))) if depth else ("v",)

        def walk(t):
            return 1 + sum(walk(c) for c in t[2]) if t[0] == "q" else 1

        t0 = time.perf_counter()
        x = 0
        for i in range(20000):
            x += i * i % 7
        np.multiply(self.a, 3, out=self.b)
        np.remainder(self.b, 7, out=self.b)
        self.b.sum()
        walk(build(6))
        d = {}
        for i in range(2000):
            d[(i, i % 7)] = [i]
        self.samples.append(time.perf_counter() - t0)


def run_untraced(plan, workload: str) -> dict:
    """The timed loop.  A calibration sample before every task measures the
    machine's speed through the run; latencies and throughput are scaled by
    CALIBRATION_S / median sample, so that the machine's CPU-speed drift
    between runs does not read as a change in the program."""
    tally = Tally()
    cal = Calibration()
    t0 = time.perf_counter()
    for task in plan.order():
        cal.sample()
        dt, outcome = execute(task)
        tally.add(task.name, dt, outcome)
    elapsed = time.perf_counter() - t0 - sum(cal.samples)
    slowdown = statistics.median(cal.samples) / CALIBRATION_S
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    fail_frac = (tally.wrong + tally.defects) / tally.attempted
    cuts = statistics.quantiles(tally.latencies, n=10, method="inclusive")
    raw = {
        "tasks_per_s": tally.attempted / elapsed,
        "task_p50_s": cuts[4],
        "task_p90_s": cuts[8],
    }
    metrics = {
        "tasks_per_s": raw["tasks_per_s"] * slowdown,
        "task_p50_s": raw["task_p50_s"] / slowdown,
        "task_p90_s": raw["task_p90_s"] / slowdown,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ok_frac": 1 - fail_frac,
        "exact_frac": tally.exact / tally.verdicts if tally.verdicts else 1.0,
    }
    return {"tally": tally, "metrics": metrics, "raw": raw, "slowdown": slowdown}


def run_traced(plan, nbalab, ctx, workload: str, seed: int) -> dict:
    """The fixed part and one stream cycle, each task untraced and traced in
    alternating order; the difference between the two sums is the tracing
    overhead."""
    from bench import trace
    from bench.tasks import spread

    rec = trace.Recorder(nbalab, ROOT)
    tally = Tally()
    untraced = traced = 0.0
    walls = {}

    def traced_run(task):
        rec.install()
        ctx.recorder = rec
        rec.open("task:" + task.name)
        try:
            _, outcome = execute(task)
        finally:
            seconds = rec.close("task:" + task.name)
            ctx.recorder = None
            rec.uninstall()
        return seconds, outcome

    for i, task in enumerate(spread(plan.fixed, plan.stream[:plan.cycle])):
        if i % 2:
            traced_dt, traced_outcome = traced_run(task)
        dt, outcome = execute(task)
        if not i % 2:
            traced_dt, traced_outcome = traced_run(task)
        tally.add(task.name, dt, outcome)
        walls.setdefault(task.name, (dt, outcome))
        if traced_outcome.status != outcome.status:
            tally.problems.append(f"{task.name}: traced run graded {traced_outcome.status}")
        rec.install()
        try:
            rec.run_pending_cli()
        finally:
            rec.uninstall()
        untraced += dt
        traced += traced_dt
    rec.install()
    rec.open("probe")
    try:
        trace.layer_probe(nbalab, rec, ctx)
    finally:
        rec.close("probe")
        rec.uninstall()
    metrics = rec.metrics(untraced, traced, tally.attempted)
    rec.write(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.npz"))
    return {"tally": tally, "metrics": metrics, "walls": walls}


def one_task_rss(plan, name: str) -> dict:
    for task in plan.fixed:
        if task.name == name:
            dt, outcome = execute(task)
            return {"task": name, "seconds": dt, "status": outcome.status,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    raise SystemExit(f"no fixed task named {name!r}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--task")
    args = p.parse_args(argv)

    nbalab = load_program()
    from bench.tasks import CliContext

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        ctx = CliContext(ROOT, workdir)
        plan = build_plan(args.workload, args.seed, args.seconds, nbalab, ctx)
        ready = time.monotonic()
        if args.setup_only:
            result = {"ready": ready}
        elif args.task:
            result = one_task_rss(plan, args.task)
        elif args.trace:
            res = run_traced(plan, nbalab, ctx, args.workload, args.seed)
            result = report(res, ready)
            result["walls"] = {k: [v[0], v[1].status, v[1].verdict]
                               for k, v in res["walls"].items()}
        else:
            res = run_untraced(plan, args.workload)
            result = report(res, ready)
            result.update(raw=res["raw"], slowdown=res["slowdown"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def report(res: dict, ready: float) -> dict:
    tally = res["tally"]
    return {
        "ready": ready,
        "attempted": tally.attempted,
        "wrong": tally.wrong,
        "defects": tally.defects,
        "verdicts": tally.verdicts,
        "exact": tally.exact,
        "problems": tally.problems,
        "metrics": res["metrics"],
    }


if __name__ == "__main__":
    sys.exit(main())
