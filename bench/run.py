"""Run one workload of the nbalab benchmark and print its metrics.

    python3 bench/run.py --workload audit --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout; the program is imported from
src/.  Set-up time is measured in several fresh interpreters and the
median reported; the workload itself runs in one more fresh interpreter
(bench/worker.py), one task at a time.  The last stdout line is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 2  # before the workload, and as many again after it
TIMEOUT_S = 170

END_TO_END = {
    "tasks_per_s": "1/s",
    "task_p50_s": "s",
    "task_p90_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "exact_frac": "ratio",
    "setup_s": "s",
}

# ROADMAP baseline rows the workloads cover: (workload, task, what it measures, ROADMAP value)
BASELINE = (
    ("audit", "skew_star 3^2", "SKEW_STAR audit of 3^2", "6.8-7.3 s, 507 MB"),
    ("audit", "srca 3^2", "SRCA audit of the 3^2 i=1 reduct", "-"),
    ("audit", "nba-power 3^2", "NBA audit of 3^2", "0.29 s, B2/B3 sampled"),
    ("structure", "congruences 3^2", "all_congruences(3^2)", "0.53 s"),
    ("structure", "congruences 2^4", "all_congruences(2^4)", "1.6 s"),
    ("structure", "stone 3^3", "stone_embed + preserves_q on 3^3", "5.4 s (preserves_q)"),
    ("structure", "generated 2^5", "one principal congruence of 2^5", "all 32: 39.6 s"),
    ("structure", "generated 4^2", "one principal congruence of 4^2", "all 4: 358 s"),
    ("cli", "cli congruences 3^2", "nba congruences on 3^2", "2.3 s"),
)
RSS_TASKS = ("skew_star 3^2", "srca 3^2")


class WorkerFailed(RuntimeError):
    pass


def worker(args: list, label: str) -> tuple:
    """Run the worker; returns (spawn time, parsed last stdout line)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{label}: no result within {TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise WorkerFailed(f"{label}: exit {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=("audit", "structure", "terms", "cli"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nbalab", "__init__.py")):
        print("error: no nbalab source under src/ in this checkout", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    def setup_probes():
        for i in range(SETUP_PROBES):
            t0, probe = worker(common + ["--setup-only"], "set-up probe")
            setups.append(probe["ready"] - t0)

    setups = []
    try:
        setup_probes()
        t0, res = worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                         "workload")
        setups.append(res["ready"] - t0)
        setup_probes()
        rss = {}
        if args.trace:
            for name in RSS_TASKS:
                if any(w == args.workload and t == name for w, t, _, _ in BASELINE):
                    rss[name] = worker(common + ["--task", name], name)[1]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup_s = statistics.median(setups)
    attempted, wrong, defects = res["attempted"], res["wrong"], res["defects"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} tasks, {wrong} wrong answers, {defects} rejection defects")
    for line in res["problems"]:
        print(f"  problem: {line}")
    print(f"  fail_frac {(wrong + defects) / attempted:.4f} "
          f"(exact verdicts {res['exact']} of {res['verdicts']})")
    print(f"  set-up samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    if args.trace:
        sys.path.insert(0, ROOT)
        from bench.trace import PER_LAYER

        metrics = res["metrics"]
        for name, value in metrics.items():
            print(f"  {name:40s} {value:>14.6g} {PER_LAYER[name][0]}")
        for line in baseline_lines(args.workload, res["walls"], rss, metrics):
            print(line)
        out = {name: {"value": value, "unit": PER_LAYER[name][0]}
               for name, value in metrics.items()}
    else:
        metrics = dict(res["metrics"], setup_s=setup_s / res["slowdown"])
        raw = dict(res["raw"], setup_s=setup_s)
        print(f"  machine slowdown {res['slowdown']:.4f} against the reference speed; "
              "raw: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        for name, unit in END_TO_END.items():
            print(f"  {name:12s} {metrics[name]:>12.6g} {unit}")
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": wrong,
                      "metrics": out}))
    return 0


def baseline_lines(workload: str, walls: dict, rss: dict, metrics: dict) -> list:
    """The ROADMAP baseline rows this workload covers, from the traced run."""
    lines = ["  ROADMAP baseline rows (untraced task wall time in this run):"]
    for wl, task, what, roadmap in BASELINE:
        if wl != workload or task not in walls:
            continue
        seconds, status, verdict = walls[task]
        extra = f", peak {rss[task]['peak_rss_mb']:.0f} MB alone" if task in rss else ""
        kind = f", verdict {verdict}" if verdict else ""
        lines.append(f"    {what:40s} {seconds:8.3f} s{extra}{kind} [{status}]"
                     f"  (ROADMAP: {roadmap})")
    imp = metrics["cli.interp_s"] + metrics["cli.import_s"]
    lines.append(f"    {'interpreter + import nbalab.cli':40s} {imp:8.3f} s"
                 "  (ROADMAP: import nbalab 0.26-0.29 s)")
    lines.append("    out of scope: all_congruences on 4^2 (358 s) and 2^5 (39.6 s), "
                 "stood in for by one principal congruence each;")
    lines.append("    not covered: power_algebra(3,3).q_table() (1.3 s), which no workload "
                 "question builds")
    return lines


if __name__ == "__main__":
    sys.exit(main())
