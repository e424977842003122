"""The nbalab package loads its submodules on first access.

`import nbalab` loads none of them, every name it exports resolves to the submodule's own
object, and each `nba` subcommand loads only the modules of its import set: with no
bytecode cache a process compiles every module it imports, so an `nba eval` that loaded
the audits and the congruence engine would pay for compiling them.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import nbalab
from nbalab import core

# the names nbalab exported when its __init__ imported every submodule, by submodule
EXPORTED = {
    "core": ["DimensionError", "Element", "PowerAlgebra", "ShapeError", "TableAlgebra",
             "algebra_from_json", "generator", "nsubset_q", "power_algebra",
             "subalgebra_closure", "table_of_power"],
    "terms": ["Bin", "Const", "Q", "T", "Term", "TermError", "Var", "Verdict", "check_identity",
              "eval_term", "free_vars", "parse_term", "print_term"],
    "transforms": ["CenterParams", "Permutation", "all_permutations", "central_retract",
                   "coordinates", "derived_bin", "perm_apply", "plus_i", "reconstruct",
                   "t_eval", "translate_term", "transposition"],
    "skew": ["AxiomReport", "BooleanCenter", "RelationBundle", "SkewTable", "StarTable",
             "boolean_center", "check_axioms", "factor_congruences_of", "is_element_kind",
             "nba_of_star", "reduct", "relations", "star_of"],
    "ideals": ["Congruence", "Multideal", "all_congruences", "all_ultramultideals",
               "boolean_ideal_filter_view", "congruence_generated", "extend_to_ultra",
               "ideal_closure", "is_prime", "multideal_of", "stone_embed", "theta_of",
               "validate_multideal"],
    "representation": ["PartialFn", "partial_fn_algebra", "star_embed", "verify_embedding"],
    "synthesis": ["RewriteStep", "TruthTable", "simplify", "synth", "table_of_term",
                  "verify_term"],
}
SUBMODULES = sorted(EXPORTED) + ["cli"]


def run_child(code: str, *args: str) -> str:
    """stdout of code in a fresh interpreter that imports nbalab from this checkout."""
    src = os.path.dirname(os.path.dirname(nbalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_every_exported_name_is_the_submodules_own_object(module):
    home = importlib.import_module(f"nbalab.{module}")
    for name in EXPORTED[module]:
        scope = {}
        exec(f"from nbalab import {name} as got", scope)
        assert scope["got"] is getattr(nbalab, name) is getattr(home, name), name


def test_dir_lists_the_exported_names_and_the_submodules():
    listed = set(dir(nbalab))
    assert {name for names in EXPORTED.values() for name in names} <= listed
    assert set(SUBMODULES) <= listed


def test_an_unknown_name_raises_the_standard_errors():
    with pytest.raises(AttributeError, match=r"^module 'nbalab' has no attribute 'nope'$"):
        nbalab.nope
    assert not hasattr(nbalab, "nope")
    with pytest.raises(ImportError, match="cannot import name 'nope' from 'nbalab'"):
        exec("from nbalab import nope", {})


def test_import_nbalab_loads_no_submodule():
    out = run_child("""
        import sys
        import nbalab
        print(sorted(m for m in sys.modules if m.startswith("nbalab")))
    """)
    assert out.split() == ["['nbalab']"]


def test_submodules_resolve_after_only_the_cli_import():
    """The benchmark worker imports nbalab.cli, then reads nbalab.skew, nbalab.ideals, ..."""
    out = run_child("""
        import sys
        import nbalab.cli
        names = sys.argv[1:]
        print(all(getattr(nbalab, name) is sys.modules["nbalab." + name] for name in names))
        print(nbalab.reduct is nbalab.skew.reduct, nbalab.synth is nbalab.synthesis.synth)
    """, *SUBMODULES)
    assert out.split() == ["True", "True", "True"]


# -- each subcommand's import set -------------------------------------------------------

BASE = {"cli", "core", "terms"}
SKEW = BASE | {"skew", "transforms"}
IDEALS = SKEW | {"ideals"}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return {
        "p32": write("p32.json", core.power_algebra(3, 2).to_json()),
        "m23": write("m23.json", core.table_of_power(core.power_algebra(2, 3))
                     .mutate((0, 0, 1), 1).to_json()),
        "table": write("table.json", {"n": 3, "k": 1, "entries": [2, 3, 1]}),
        "cand": write("cand.json", {"components": [[[1, 1]], [[2, 2]], [[3, 3]]]}),
    }


SUBCOMMANDS = [
    (["eval", "--n", "3", "--term", "q(x,y,z,w)", "--env", "x=[1,2]", "y=[3,3]", "z=[1,1]",
      "w=[2,2]"], 0, BASE),
    (["equiv", "--n", "2", "q(x,q(x,a,b),q(x,c,d))", "q(x,a,d)"], 0, BASE),
    (["equiv", "--n", "4", "q(x,y,y,y,y)", "y", "--budget", "10"], 0, BASE),
    (["translate", "--n", "3", "--term", "q(x,y,z,w)", "--to", "star"], 0,
     BASE | {"transforms"}),
    (["synth", "--table", "{table}", "--simplify"], 0, BASE | {"synthesis"}),
    (["check", "--algebra", "{p32}", "--suite", "nba"], 0, SKEW),
    (["check", "--algebra", "{m23}", "--suite", "nba"], 1, SKEW),
    (["check", "--algebra", "{p32}", "--suite", "skewstar"], 0, SKEW),
    (["reduct", "--algebra", "{p32}", "--kind", "skew", "--i", "1"], 0, SKEW),
    (["congruences", "--algebra", "{p32}"], 0, IDEALS),
    (["congruences", "--algebra", "{m23}"], 1, IDEALS),
    (["multideals", "--algebra", "{p32}", "--validate", "{cand}"], 0, IDEALS),
    (["ultras", "--algebra", "{p32}"], 0, IDEALS),
    (["embed", "--algebra", "{p32}"], 0, IDEALS),
    (["represent", "--points", "2", "--n", "3", "--i", "3"], 0, SKEW | {"representation"}),
]


@pytest.mark.parametrize("argv, code, loaded", SUBCOMMANDS,
                         ids=[f"{i}-{argv[0]}" for i, (argv, _, _) in enumerate(SUBCOMMANDS)])
def test_a_subcommand_loads_only_its_import_set(files, argv, code, loaded):
    argv = [a.format(**files) for a in argv]
    out = run_child("""
        import contextlib, io, json, sys
        from nbalab.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(sys.argv[1:])
        print(json.dumps([code, sorted(m[7:] for m in sys.modules if m.startswith("nbalab."))]))
    """, *argv)
    assert json.loads(out) == [code, sorted(loaded)]

