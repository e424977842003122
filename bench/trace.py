"""Span and count wrappers around nbalab's public entry points.

A traced run installs these wrappers from the benchmark's side, leaving
the package's source untouched.  Each wrapped call records a span (name,
parent span, start, end) in compact in-memory arrays; self time is the
span minus its direct children.  Counts are taken at the same call
boundaries.  Spans are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import statistics
import subprocess
import sys
import time
from array import array

import numpy as np

from bench import reference as ref

# (metric, module, attribute path); one metric may cover several classes.
# skew.run_suite is counted (assignments by verdict mode) but records no span,
# so that the audit engine's time stays inside skew.check_axioms.
TARGETS = (
    ("core.q_vec", "core", "PowerAlgebra.q_vec"),
    ("core.q_vec", "core", "TableAlgebra.q_vec"),
    ("core.q_table", "core", "PowerAlgebra.q_table"),
    ("core.q_table", "core", "TableAlgebra.q_table"),
    ("core.q", "core", "PowerAlgebra.q"),
    ("core.subalgebra_closure", "core", "subalgebra_closure"),
    ("terms.check_identity", "terms", "check_identity"),
    ("terms.eval_vec", "terms", "eval_vec"),
    ("terms.eval_term", "terms", "eval_term"),
    ("terms.elaborate", "terms", "elaborate"),
    ("terms.parse_term", "terms", "parse_term"),
    ("transforms.translate_term", "transforms", "translate_term"),
    ("skew.check_axioms", "skew", "check_axioms"),
    ("skew.run_suite", "skew", "run_suite"),
    ("skew.reduct", "skew", "reduct"),
    ("skew.star_of", "skew", "star_of"),
    ("skew.boolean_center", "skew", "boolean_center"),
    ("ideals.congruence_generated", "ideals", "congruence_generated"),
    ("ideals.join_congruences", "ideals", "join_congruences"),
    ("ideals.all_congruences", "ideals", "all_congruences"),
    ("ideals.all_ultramultideals", "ideals", "all_ultramultideals"),
    ("ideals.stone_embed", "ideals", "stone_embed"),
    ("ideals.preserves_q", "ideals", "StoneEmbedding.preserves_q"),
    ("ideals.all_homs_onto_generator", "ideals", "all_homs_onto_generator"),
    ("synthesis.synth", "synthesis", "synth"),
    ("synthesis.simplify", "synthesis", "simplify"),
    ("synthesis.verify_term", "synthesis", "verify_term"),
    ("representation.verify_embedding", "representation", "verify_embedding"),
)

COUNT_ONLY = {"skew.run_suite"}

MODULES = ("core", "terms", "transforms", "skew", "ideals", "synthesis", "representation",
           "cli")

# Per-layer metrics a traced run reports: name -> (unit, better).
PER_LAYER = {
    "core.q_vec.calls": ("count", "lower"),
    "core.q_vec.s": ("s", "lower"),
    "core.q_vec.elems": ("count", "lower"),
    "core.q_table.calls": ("count", "lower"),
    "core.q_table.s": ("s", "lower"),
    "core.q_table.bytes": ("bytes", "lower"),
    "core.q.calls": ("count", "lower"),
    "core.q.s": ("s", "lower"),
    "core.subalgebra_closure.s": ("s", "lower"),
    "terms.check_identity.calls": ("count", "lower"),
    "terms.check_identity.s": ("s", "lower"),
    "terms.assignments": ("count", "lower"),
    "terms.eval_vec.calls": ("count", "lower"),
    "terms.eval_vec.s": ("s", "lower"),
    "terms.eval_term.calls": ("count", "lower"),
    "terms.eval_term.s": ("s", "lower"),
    "terms.elaborate.s": ("s", "lower"),
    "terms.parse_term.s": ("s", "lower"),
    "transforms.translate_term.s": ("s", "lower"),
    "transforms.nodes_out": ("count", "lower"),
    "skew.check_axioms.calls": ("count", "lower"),
    "skew.check_axioms.s": ("s", "lower"),
    "skew.assignments": ("count", "lower"),
    "skew.exhaustive_frac": ("ratio", "higher"),
    "skew.refuted_frac": ("ratio", "higher"),
    "skew.reduct.s": ("s", "lower"),
    "skew.star_of.s": ("s", "lower"),
    "skew.boolean_center.s": ("s", "lower"),
    "ideals.congruence_generated.calls": ("count", "lower"),
    "ideals.congruence_generated.s": ("s", "lower"),
    "ideals.join_congruences.calls": ("count", "lower"),
    "ideals.all_congruences.s": ("s", "lower"),
    "ideals.all_ultramultideals.s": ("s", "lower"),
    "ideals.stone_embed.s": ("s", "lower"),
    "ideals.preserves_q.s": ("s", "lower"),
    "ideals.all_homs_onto_generator.s": ("s", "lower"),
    "synthesis.synth.s": ("s", "lower"),
    "synthesis.simplify.s": ("s", "lower"),
    "synthesis.rewrites": ("count", "lower"),
    "synthesis.verify_term.s": ("s", "lower"),
    "representation.verify_embedding.s": ("s", "lower"),
    "cli.interp_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.proc_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "trace.tasks": ("count", "higher"),
    "trace.untraced_s": ("s", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _tree_size(node, memo) -> int:
    """Nodes of a term as a tree (shared subterms counted once per use)."""
    key = id(node)
    if key not in memo:
        kids = [getattr(node, f) for f in ("scrutinee", "x", "y", "z", "lhs", "rhs")
                if hasattr(node, f)]
        kids += list(getattr(node, "branches", ()))
        memo[key] = 1 + sum(_tree_size(k, memo) for k in kids)
    return memo[key]


class Recorder:
    """Holds the spans and counts of one traced run."""

    def __init__(self, nbalab, root: str):
        self.nbalab = nbalab
        self.root = root
        self.names: list = []
        self.name_id: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list = []  # [span index, child time]
        self.self_s: dict = {}
        self.calls: dict = {}
        self.counts: dict = {}
        self.cli_proc: list = []
        self.cli_main: list = []
        self.cli_bytes: list = []
        self.pending_cli: list = []
        self.patched: list = []
        self.active: set = set()

    clock = staticmethod(time.perf_counter)

    # -- spans ----------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def open(self, name: str) -> None:
        idx = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append([idx, 0.0])
        self.span_start[idx] = time.perf_counter()

    def close(self, name: str) -> float:
        end = time.perf_counter()
        idx, child = self.stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        if self.stack:
            self.stack[-1][1] += dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1
        return dur

    def count(self, name: str, k) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, metric: str, fn):
        rec = self
        after = getattr(self, "_after_" + metric.replace(".", "_"), None)
        sig = inspect.signature(fn) if after is not None else None

        def wrapper(*args, **kwargs):
            if metric in COUNT_ONLY:
                result = fn(*args, **kwargs)
                after(sig, args, kwargs, result)
                return result
            if metric in rec.active:  # recursion inside one entry point
                return fn(*args, **kwargs)
            rec.active.add(metric)
            rec.open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(metric)
                rec.active.discard(metric)
            if after is not None:
                after(sig, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", metric)
        return wrapper

    def install(self) -> None:
        mods = {name: getattr(self.nbalab, name) for name in MODULES}
        for metric, modname, path in TARGETS:
            owner = mods[modname]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            orig = owner.__dict__[parts[-1]]
            wrapped = self._wrap(metric, orig)
            self.patched.append((owner, parts[-1], orig))
            setattr(owner, parts[-1], wrapped)
            if len(parts) == 1:  # rebind every module-level reference to the function
                for mod in (*mods.values(), self.nbalab):
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self.patched.append((mod, key, orig))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self.patched):
            setattr(owner, key, orig)
        self.patched.clear()

    # counts taken at the call boundary, from arguments and results

    @staticmethod
    def _arguments(sig, args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _after_core_q_vec(self, sig, args, kwargs, result):
        self.count("core.q_vec.elems", int(np.size(result)))

    def _after_core_q_table(self, sig, args, kwargs, result):
        self.count("core.q_table.bytes", int(result.size * result.itemsize))

    def _after_terms_check_identity(self, sig, args, kwargs, v):
        a = self._arguments(sig, args, kwargs)
        if v.mode == "sampled":
            self.count("terms.assignments", v.samples)
        else:
            names = ref.variables(ref.from_program(a["lhs"]),
                                  ref.variables(ref.from_program(a["rhs"])))
            self.count("terms.assignments", a["n"] ** len(names))

    def _after_skew_run_suite(self, sig, args, kwargs, report):
        a = self._arguments(sig, args, kwargs)
        for ax, out in zip(a["axioms"], report.axioms):
            exhaustive = out.mode == "exhaustive"
            self.count("skew.assignments",
                       a["size"] ** len(ax.varnames) if exhaustive else a["samples"])
            self.count("skew.axioms", 1)
            self.count("skew.axioms_exhaustive", int(exhaustive))

    def _after_skew_check_axioms(self, sig, args, kwargs, report):
        self.count("skew.refuted", int(not report.ok))

    def _after_transforms_translate_term(self, sig, args, kwargs, result):
        self.count("transforms.nodes_out", _tree_size(result, {}))

    def _after_synthesis_simplify(self, sig, args, kwargs, result):
        self.count("synthesis.rewrites", len(result[1]))

    # -- the CLI layer ----------------------------------------------------------

    def cli_call(self, proc_s: float, stdout_bytes: int, argv, workdir) -> None:
        """Record one child call; its in-process twin runs after the task."""
        self.cli_proc.append(proc_s)
        self.cli_bytes.append(stdout_bytes)
        self.pending_cli.append((list(argv), workdir))

    def run_pending_cli(self) -> None:
        """Run each recorded CLI call again through main() in this process."""
        main = self.nbalab.cli.main
        for argv, workdir in self.pending_cli:
            here = os.getcwd()
            sink = io.StringIO()
            os.chdir(workdir)
            self.open("cli.main")
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    main(argv)
            except Exception:  # noqa: BLE001 - the invalid-input calls may raise
                pass
            finally:
                self.cli_main.append(self.close("cli.main"))
                os.chdir(here)
        self.pending_cli.clear()

    def interpreter_times(self, repeats: int = 3) -> tuple:
        """Median wall time of a bare interpreter and of `import nbalab.cli`."""
        from bench.tasks import child_env

        env = child_env(self.root)

        def median_of(code):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, timeout=60)
                times.append(time.perf_counter() - t0)
            return statistics.median(times)

        bare = median_of("pass")
        return bare, median_of("import nbalab.cli") - bare

    # -- results ----------------------------------------------------------------

    def metrics(self, untraced_s: float, traced_s: float, tasks: int) -> dict:
        interp, imp = self.interpreter_times()
        out = {}
        for name in PER_LAYER:
            if name.endswith(".calls"):
                out[name] = self.calls.get(name[:-6], 0)
            elif name.endswith(".s") and not name.startswith(("cli.", "trace.")):
                out[name] = self.self_s.get(name[:-2], 0.0)
        out.update({k: v for k, v in self.counts.items() if k in PER_LAYER})
        for name in ("core.q_vec.elems", "core.q_table.bytes", "terms.assignments",
                     "skew.assignments", "transforms.nodes_out", "synthesis.rewrites"):
            out.setdefault(name, 0)
        axioms = self.counts.get("skew.axioms", 0)
        audits = self.calls.get("skew.check_axioms", 0)
        out["skew.exhaustive_frac"] = (self.counts.get("skew.axioms_exhaustive", 0) / axioms
                                       if axioms else 0.0)
        out["skew.refuted_frac"] = self.counts.get("skew.refuted", 0) / audits if audits else 0.0
        out["cli.interp_s"] = interp
        out["cli.import_s"] = imp
        out["cli.main_s"] = statistics.median(self.cli_main) if self.cli_main else 0.0
        out["cli.proc_s"] = statistics.median(self.cli_proc) if self.cli_proc else 0.0
        out["cli.stdout_bytes"] = (statistics.mean(self.cli_bytes) if self.cli_bytes else 0)
        out["trace.tasks"] = tasks
        out["trace.untraced_s"] = untraced_s
        out["trace.traced_s"] = traced_s
        out["trace.overhead_s"] = traced_s - untraced_s
        out["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
        return {name: out[name] for name in PER_LAYER}

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
            parent=np.frombuffer(self.span_parent, np.int32),
            start=np.frombuffer(self.span_start, np.float64),
            end=np.frombuffer(self.span_end, np.float64))


def layer_probe(nbalab, rec: Recorder, ctx) -> None:
    """One small call into each layer, so that every layer is measured in every run."""
    from bench.tasks import CliCall, run_cli

    core, terms, transforms, skew = nbalab.core, nbalab.terms, nbalab.transforms, nbalab.skew
    ideals, synthesis, representation = nbalab.ideals, nbalab.synthesis, nbalab.representation
    alg = core.power_algebra(2, 2)
    alg.q_table()
    core.subalgebra_closure(alg, [(1, 2)])
    t = terms.parse_term("t[1](x,y,z)", 2)
    terms.eval_term(t, {"x": (1,), "y": (2,), "z": (1,)}, core.generator(2))
    terms.check_identity(t, transforms.translate_term(t, "star", 2), 2)
    skew.check_axioms(alg, "NBA")
    skew.check_axioms(skew.star_of(alg), "SKEW_STAR")
    skew.boolean_center(alg, transforms.CenterParams(1, 2))
    ideals.all_congruences(alg)
    ideals.stone_embed(alg).preserves_q()
    ideals.all_homs_onto_generator(alg)
    table = synthesis.TruthTable(2, 2, (1, 2, 2, 1))
    simp, _ = synthesis.simplify(synthesis.synth(table), 2)
    synthesis.verify_term(simp, table)
    representation.verify_embedding(1, 3, 3)
    ctx.recorder = rec
    try:
        run_cli(CliCall(["eval", "--n", "2", "--term", "q(x,y,z)", "--env", "x=[1]", "y=[2]",
                         "z=[1]"], 0, lambda out: None), ctx)
    finally:
        ctx.recorder = None
    rec.run_pending_cli()
