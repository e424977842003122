"""A workbench for finite n-dimensional Boolean-like algebras.

Power algebras of the n-element generator, term parsing/evaluation with
an equational oracle, skew and Church reducts with full axiom audits,
multideal/congruence machinery, Stone-style embeddings, and a truth
table compiler.
"""

from .core import (
    DimensionError,
    Element,
    PowerAlgebra,
    ShapeError,
    TableAlgebra,
    algebra_from_json,
    generator,
    nsubset_q,
    power_algebra,
    subalgebra_closure,
    table_of_power,
)
from .terms import (
    Bin,
    Const,
    Q,
    T,
    Term,
    TermError,
    Var,
    Verdict,
    check_identity,
    eval_term,
    free_vars,
    parse_term,
    print_term,
)
from .transforms import (
    CenterParams,
    Permutation,
    all_permutations,
    central_retract,
    coordinates,
    derived_bin,
    perm_apply,
    plus_i,
    reconstruct,
    t_eval,
    translate_term,
    transposition,
)
from .skew import (
    AxiomReport,
    BooleanCenter,
    RelationBundle,
    SkewTable,
    StarTable,
    boolean_center,
    check_axioms,
    factor_congruences_of,
    is_element_kind,
    nba_of_star,
    reduct,
    relations,
    star_of,
)
from .ideals import (
    Congruence,
    Multideal,
    all_congruences,
    all_ultramultideals,
    boolean_ideal_filter_view,
    congruence_generated,
    extend_to_ultra,
    ideal_closure,
    is_prime,
    multideal_of,
    stone_embed,
    theta_of,
    validate_multideal,
)
from .representation import (
    PartialFn,
    partial_fn_algebra,
    star_embed,
    verify_embedding,
)
from .synthesis import (
    RewriteStep,
    TruthTable,
    simplify,
    synth,
    table_of_term,
    verify_term,
)

__version__ = "0.1.0"
