"""Regenerate cli_golden.json: the exit code and stdout digest of each pinned nba command.

Run from the repository root, with the package on the path:

    PYTHONPATH=src python tests/data/make_cli_golden.py

The data file holds the input files (algebras and multideal candidates) and, per
command, its argv, exit code and the SHA-256 of its stdout.  "{dir}" in an argv
stands for the directory the inputs are written to.  Every command runs in-process
through nbalab.cli.main.  No pinned output may depend on sampling, because numpy does
not promise the same random stream across versions: the script refuses an output
with a sampled counterexample, and runs congruences and multideals on a mutated table
only when its NBA audit is exhaustive up to the first failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from nbalab import cli, core, ideals, skew

DATA = Path(__file__).with_name("cli_golden.json")
SUITES = ("nba", "skewba", "skewlattice", "srca", "skewstar")


def write_inputs(files: dict, directory) -> None:
    for name, obj in files.items():
        (Path(directory) / f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")


def run(argv: list, directory) -> tuple:
    """(exit code, SHA-256 of stdout, stdout) of one nba command; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([a.replace("{dir}", str(directory)) for a in argv])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), out.getvalue()


def _inputs() -> dict:
    powers = {"a22": core.power_algebra(2, 2), "a23": core.power_algebra(2, 3),
              "a32": core.power_algebra(3, 2),
              "sub24": core.subalgebra_closure(core.power_algebra(2, 4),
                                               [(1, 1, 2, 2), (1, 2, 2, 2)]),
              "a26": core.power_algebra(2, 6), "a33": core.power_algebra(3, 3),
              "a42": core.power_algebra(4, 2), "a52": core.power_algebra(5, 2)}
    files = {name: alg.to_json() for name, alg in powers.items()}
    for name in ("a22", "a23", "a32"):
        files["t" + name[1:]] = core.table_of_power(powers[name]).to_json()
    t32 = core.table_of_power(powers["a32"])
    rnd = random.Random(7)
    for m in range(8):
        key = tuple(rnd.randrange(t32.size) for _ in range(t32.n + 1))
        value = (t32.q_table()[key] + 1 + rnd.randrange(t32.size - 1)) % t32.size
        files[f"m32_{m}"] = t32.mutate(key, int(value)).to_json()
    # multideal candidates, as element lists: every proper multideal, one-element
    # perturbations of some, a degenerate tuple, a wrong shape and a foreign element
    for name in ("a23", "a32", "sub24"):
        alg = powers[name]
        els = alg.elements()
        mids = [[sorted(list(els[x]) for x in c) for c in md.components]
                for md in ideals.all_proper_multideals(alg)]
        for k, comps in enumerate(mids[:5]):
            files[f"{name}_md{k}"] = {"components": comps}
        for k, comps in enumerate(mids[:3]):
            extra = [list(e) for e in els if not any(list(e) in c for c in comps)]
            if extra:
                grown = [comps[0] + [rnd.choice(extra)], *comps[1:]]
                files[f"{name}_grow{k}"] = {"components": grown}
            if len(comps[1]) > 1:
                files[f"{name}_shrink{k}"] = {"components": [comps[0], comps[1][1:], *comps[2:]]}
        consts = [list(alg.constant(k)) for k in range(1, alg.n + 1)]
        files[f"{name}_degenerate"] = {"components": [consts[:2], *([c] for c in consts[1:])]}
        files[f"{name}_shape"] = {"components": [[c] for c in consts + consts[:1]]}
    files["sub24_foreign"] = {"components": [[[1, 1, 1, 1], [1, 2, 1, 2]], [[2, 2, 2, 2]]]}
    return files


def _audit_is_exhaustive(obj: dict) -> bool:
    """Whether a table's NBA audit, which congruences and multideals run first, is
    exhaustive up to its first failure."""
    rep = skew.check_axioms(core.algebra_from_json(obj), "NBA")
    fail = rep.first_failure()
    upto = rep.axioms if fail is None else rep.axioms[:rep.axioms.index(fail) + 1]
    return all(a.mode == "exhaustive" for a in upto)


def _commands(files: dict) -> list:
    def alg(name):
        return ["--algebra", "{dir}/" + name + ".json"]

    cmds = []
    # every suite, i = 1 and 2, JSON and --text, on the 4-element algebras
    for name in ("a22", "t22"):
        for suite in SUITES:
            for i in ("1", "2"):
                for text in ([], ["--text"]):
                    cmds.append(["check", *alg(name), "--suite", suite, "--i", i, *text])
    # the 8- and 9-element algebras: skewstar only on the subpower, one format for the
    # slow audits (the skewstar audit of 3^2 takes seconds)
    for suite in SUITES:
        cmds.append(["check", *alg("sub24"), "--suite", suite, "--i", "2"])
    for name in ("a23", "t23", "a32", "t32"):
        cmds.append(["check", *alg(name), "--suite", "skewba", "--i", "1"])
        cmds.append(["check", *alg(name), "--suite", "skewba", "--i", "2", "--text"])
        cmds.append(["check", *alg(name), "--suite", "skewlattice", "--i", "2"])
    for name in ("t23", "a32", "t32"):
        cmds.append(["check", *alg(name), "--suite", "nba"])
    cmds.append(["check", *alg("t32"), "--suite", "nba", "--text"])
    # the powers whose q tables are past GATHER_TABLE_MAX: all rows hold, B2 and B3 sampled
    for name in ("a26", "a33", "a42", "a52"):
        cmds.append(["check", *alg(name), "--suite", "nba"])
    cmds.append(["check", *alg("t23"), "--suite", "srca", "--i", "2"])
    cmds.append(["check", *alg("t32"), "--suite", "srca", "--i", "1", "--text"])
    cmds.append(["check", *alg("a22"), "--suite", "nba", "--budget", "10", "--samples", "50"])
    mutants = sorted(f for f in files if f.startswith("m32_"))
    for name in mutants:
        cmds.append(["check", *alg(name), "--suite", "skewba", "--i", "1", "--text"])
        cmds.append(["check", *alg(name), "--suite", "skewlattice", "--i", "2"])
    # every reduct kind
    for name in ("a22", "sub24", "t23", "a32", mutants[0]):
        for i in ("1", "2"):
            cmds.append(["reduct", *alg(name), "--kind", "skew", "--i", i])
            cmds.append(["reduct", *alg(name), "--kind", "rchurch", "--i", i])
        cmds.append(["reduct", *alg(name), "--kind", "church", "--i", "1", "--d", "1", "--j", "2"])
    cmds.append(["reduct", *alg("a22"), "--kind", "rchurch", "--i", "3"])
    cmds.append(["reduct", *alg("a22"), "--kind", "skew", "--i", "1", "--text"])
    cmds.append(["reduct", *alg("a22"), "--kind", "church", "--i", "2", "--d", "1", "--j", "2"])
    # the ideals engine
    for name in ("a22", "t22", "sub24", "a23", "t23", "a32", "t32", *mutants[:3]):
        for cmd in ("congruences", "multideals", "ultras", "embed"):
            # a mutant refuted only by sampling would pin one random stream
            if (cmd in ("ultras", "embed") or name not in mutants
                    or _audit_is_exhaustive(files[name])):
                cmds.append([cmd, *alg(name)])
    for cmd in ("congruences", "multideals", "ultras", "embed"):
        cmds.append([cmd, *alg("a32"), "--text"])
    for cand in sorted(f for f in files if f.split("_")[0] in ("a23", "a32", "sub24")
                       and "_" in f):
        cmds.append(["multideals", *alg(cand.split("_")[0]),
                     "--validate", "{dir}/" + cand + ".json"])
    cmds.append(["multideals", *alg("a23"), "--validate", "{dir}/a23_md0.json", "--text"])
    for points, n, i in ("133", "233", "243", "121", "131"):
        cmds.append(["represent", "--points", points, "--n", n, "--i", i])
    # a few cheap term commands
    cmds += [
        ["eval", "--n", "3", "--term", "q(x,y,z,w)", "--env", "x=[1,2]", "y=[1,1]", "z=[2,2]",
         "w=[3,3]"],
        ["eval", "--n", "2", "--term", "q(x,e2,e1)", "--env", "x=e1", "--text"],
        ["eval", "--n", "2", "--term", "q(x,e1"],
        ["equiv", "--n", "2", "q(x,x,x)", "x"],
        ["equiv", "--n", "2", "q(x,y,z)", "q(x,z,y)", "--text"],
        ["equiv", "--n", "3", "q(e1,x,y,z)", "x"],
        ["translate", "--n", "2", "--term", "t1(x,y,z)", "--to", "q"],
        ["translate", "--n", "3", "--term", "q(x,y,z,w)", "--to", "star"],
        ["translate", "--n", "2", "--term", "t1(x,y,z)", "--to", "skew", "--i", "1", "--text"],
        ["translate", "--n", "2", "--term", "t2(x,y,z)", "--to", "skew", "--i", "1"],
    ]
    return cmds


def main(directory) -> None:
    files = _inputs()
    write_inputs(files, directory)
    commands = []
    for argv in _commands(files):
        code, digest, out = run(argv, directory)
        if "counterexample" in out and "sampled" in out:
            raise SystemExit(f"sampled counterexample in the output of {argv}")
        commands.append({"argv": argv, "exit": code, "stdout_sha256": digest})
    DATA.write_text(json.dumps({"files": files, "commands": commands}, separators=(",", ":"))
                    + "\n", encoding="utf-8")
    print(f"{len(commands)} commands written to {DATA}", file=sys.stderr)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        main(tmp)
