"""boolean_ideal_filter_view against a scalar oracle that re-derives the n = 2 Boolean
operations through q one pair at a time.

The scan covers every proper multideal and seeded perturbations of principal
ideal/filter pairs, so that each of the first four laws is the first to fail somewhere.
The last two cannot fail first in a Boolean algebra: the negations of an ideal form
a filter.
"""

import random

import pytest

from nbalab import core, ideals
from nbalab.core import DimensionError
from nbalab.ideals import Multideal, all_proper_multideals, boolean_ideal_filter_view


def scalar_view(alg, ideal: Multideal):
    """For a 2-dimensional algebra: (I_2 as Boolean ideal, I_1 as filter).

    The Boolean structure puts 1 = e_1 and 0 = e_2, with x /\\ y = q(x,y,0),
    x \\/ y = q(x,1,y), -x = q(x,0,1).
    """
    if alg.n != 2:
        raise DimensionError(f"Boolean view needs dimension 2, got {alg.n}")
    if ideal.degenerate:
        raise ValueError("degenerate multideal")
    one = alg.constant_index(1)
    zero = alg.constant_index(2)
    qi = lambda s, a, b: (alg.q_idx(s, [a, b]))
    i2, i1 = ideal.components[1], ideal.components[0]
    everything = range(alg.size)
    laws = (
        ("the ideal holds 0", zero in i2),
        ("the ideal is closed under join", all(qi(x, one, y) in i2 for x in i2 for y in i2)),
        ("the ideal is downward closed",
         all(qi(z, x, zero) in i2 for x in i2 for z in everything)),
        ("the filter is the ideal's negations", i1 == frozenset(qi(x, zero, one) for x in i2)),
        ("the filter is closed under meet", all(qi(x, y, zero) in i1 for x in i1 for y in i1)),
        ("the filter is upward closed", all(qi(z, one, x) in i1 for x in i1 for z in everything)),
    )
    for law, holds in laws:
        if not holds:
            raise ValueError(f"Boolean view fails: {law}")
    return (frozenset(i2), frozenset(i1))


def outcome(view, alg, ideal):
    try:
        return view(alg, ideal)
    except ValueError as exc:
        return str(exc)


def candidates(alg, rng, count):
    """Principal ideals with their negations, each perturbed by at most one element."""
    zero, one = alg.constant_index(2), alg.constant_index(1)
    els = range(alg.size)
    for _ in range(count):
        a = rng.randrange(alg.size)
        i2 = {x for x in els if alg.q_idx(x, [a, zero]) == x}
        i1 = {alg.q_idx(x, [zero, one]) for x in i2}
        part = rng.choice([i2, i1, None])
        if part is not None:
            part ^= {rng.randrange(alg.size)}
        yield Multideal(alg, (frozenset(i1), frozenset(i2)))


ALGEBRAS = {
    "2^1": core.power_algebra(2, 1),
    "2^2": core.power_algebra(2, 2),
    "2^3": core.power_algebra(2, 3),
    "2^4": core.power_algebra(2, 4),
    "2^3 table": core.table_of_power(core.power_algebra(2, 3)),
    "sub 2^4": core.subalgebra_closure(core.power_algebra(2, 4), [(1, 1, 2, 2), (1, 2, 2, 2)]),
}


def test_view_agrees_with_the_scalar_oracle():
    failures = set()
    accepted = 0
    for seed, alg in enumerate(ALGEBRAS.values()):
        pairs = all_proper_multideals(alg) + list(candidates(alg, random.Random(seed), 300))
        for md in pairs:
            want = outcome(scalar_view, alg, md)
            assert outcome(boolean_ideal_filter_view, alg, md) == want, md
            if isinstance(want, str):
                failures.add(want)
            else:
                accepted += 1
    assert accepted > 0
    assert len(failures) == 4, failures


def test_view_rejects_an_algebra_whose_center_is_not_everything():
    # B_21 of this 3-element table is {e_1, e_2}, closed under its operations
    alg = core.TableAlgebra(2, 3, (0, 1), (0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 1, 2, 0, 1, 2,
                                           0, 1, 2, 2, 1, 1, 2, 0, 2, 0, 1, 0))
    md = Multideal(alg, (frozenset({0}), frozenset({1})))
    with pytest.raises(ValueError, match="not a 2BA"):
        ideals.boolean_ideal_filter_view(alg, md)
