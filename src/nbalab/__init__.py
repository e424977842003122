"""A workbench for finite n-dimensional Boolean-like algebras.

Power algebras of the n-element generator, term parsing/evaluation with
an equational oracle, skew and Church reducts with full axiom audits,
multideal/congruence machinery, Stone-style embeddings, and a truth
table compiler.

Every name below, and every submodule, is imported on first access
(PEP 562): `import nbalab` loads no submodule, so a process compiles only
the modules it uses.
"""

import importlib

_EXPORTS = {
    "core": ("DimensionError", "Element", "PowerAlgebra", "ShapeError", "TableAlgebra",
             "algebra_from_json", "generator", "nsubset_q", "power_algebra",
             "subalgebra_closure", "table_of_power"),
    "terms": ("Bin", "Const", "Q", "T", "Term", "TermError", "Var", "Verdict", "check_identity",
              "eval_term", "free_vars", "parse_term", "print_term"),
    "transforms": ("CenterParams", "Permutation", "all_permutations", "central_retract",
                   "coordinates", "derived_bin", "perm_apply", "plus_i", "reconstruct", "t_eval",
                   "translate_term", "transposition"),
    "skew": ("AxiomReport", "BooleanCenter", "RelationBundle", "SkewTable", "StarTable",
             "boolean_center", "check_axioms", "factor_congruences_of", "is_element_kind",
             "nba_of_star", "reduct", "relations", "star_of"),
    "ideals": ("Congruence", "Multideal", "all_congruences", "all_ultramultideals",
               "boolean_ideal_filter_view", "congruence_generated", "extend_to_ultra",
               "ideal_closure", "is_prime", "multideal_of", "stone_embed", "theta_of",
               "validate_multideal"),
    "representation": ("PartialFn", "partial_fn_algebra", "star_embed", "verify_embedding"),
    "synthesis": ("RewriteStep", "TruthTable", "simplify", "synth", "table_of_term",
                  "verify_term"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
