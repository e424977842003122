"""The star map is a homomorphism past the enumerated point counts.

verify_embedding and partial_fn_algebra stop at POINT_BOUND = 5 points.  Here
hypothesis draws up to 12 points, n in 3..6 and a slot i in 3..n, and checks on
single elements of the full power n^p that star_embed carries each partial-function
operation to its derived operation of the skew i-reduct: meet, barvee and minus
through transforms.derived_bin, and q through the right Church t_i.  Nothing of
n^p is enumerated; PowerAlgebra.elements refuses while the property runs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbalab import core
from nbalab.representation import PartialFn, pf_join, pf_meet, pf_minus, pf_q, star_embed
from nbalab.transforms import derived_bin, t_eval


@st.composite
def cases(draw):
    points = draw(st.integers(1, 12))
    n = draw(st.integers(3, 6))
    i = draw(st.integers(3, n))
    fn = st.tuples(*[st.sampled_from((0, 1, 2))] * points).map(lambda v: PartialFn(points, v))
    return points, n, i, draw(fn), draw(fn), draw(fn)


def refuse(self):
    raise AssertionError(f"{self.n}^{self.points} enumerated")


@settings(max_examples=300, deadline=None)
@given(cases())
def test_star_embed_carries_the_operations_to_the_skew_reduct(case):
    points, n, i, f, g, h = case
    alg = core.power_algebra(n, points)
    star = {k: star_embed(k, n, i) for k in (f, g, h)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core.PowerAlgebra, "elements", refuse)
        for kind, op in (("meet", pf_meet), ("barvee", pf_join), ("minus", pf_minus)):
            assert star_embed(op(f, g), n, i) == derived_bin(kind, {i}, star[f], star[g], alg)
        assert star_embed(pf_q(f, g, h), n, i) == t_eval({i}, star[f], star[g], star[h], alg)
