"""The partial-function algebra as a power of one-point tables, against the scalar engine.

The oracle below is the earlier scalar code, kept verbatim: the if/else bodies of
pf_meet, pf_join, pf_minus and pf_q, the loop that built partial_fn_algebra one entry
at a time, and the loop that checked the star embedding pair by pair through
transforms.derived_bin.  nbalab.representation now applies one table per operation at
each point, builds the algebra as the power of those tables and checks the embedding
through q_vec on base-n codes; tables, verdicts and the first failure must not change,
also when the star map is wrong.
"""

import itertools
import json

import numpy as np
import pytest

from nbalab import core, representation
from nbalab.cli import main
from nbalab.representation import (EmbeddingReport, PartialFn, all_partial_fns,
                                   partial_fn_algebra, pf_join, pf_meet, pf_minus, pf_q,
                                   verify_embedding)
from nbalab.transforms import derived_bin


# -- the oracle: the scalar operations and loops, verbatim ----------------------


def old_pf_meet(f: PartialFn, g: PartialFn) -> PartialFn:
    """f /\\ g = g restricted to dom(g) & dom(f)."""
    return PartialFn(f.points, tuple(
        gv if fv and gv else 0 for fv, gv in zip(f.values, g.values)))


def old_pf_join(f: PartialFn, g: PartialFn) -> PartialFn:
    """f \\/ g = f together with g outside dom(f)."""
    return PartialFn(f.points, tuple(
        fv if fv else gv for fv, gv in zip(f.values, g.values)))


def old_pf_minus(g: PartialFn, f: PartialFn) -> PartialFn:
    """g \\ f = g restricted outside dom(f)."""
    return PartialFn(g.points, tuple(
        gv if gv and not fv else 0 for gv, fv in zip(g.values, f.values)))


def old_pf_q(f: PartialFn, g: PartialFn, h: PartialFn) -> PartialFn:
    """q(f,g,h) = g on dom(g) & dom(f), h on dom(h) - dom(f)."""
    out = []
    for fv, gv, hv in zip(f.values, g.values, h.values):
        if fv and gv:
            out.append(gv)
        elif not fv and hv:
            out.append(hv)
        else:
            out.append(0)
    return PartialFn(f.points, tuple(out))


def old_partial_fn_algebra(points: int, with_q: bool = True) -> dict:
    """The scalar build; with_q=False skips the s^3 loop of q3 (2.5 s at 4 points)."""
    fns = all_partial_fns(points)
    idx = {f.values: t for t, f in enumerate(fns)}
    s = len(fns)
    meet = np.zeros((s, s), dtype=np.int64)
    join = np.zeros((s, s), dtype=np.int64)
    minus = np.zeros((s, s), dtype=np.int64)
    q3 = np.zeros((s, s, s), dtype=np.int64)
    for a, f in enumerate(fns):
        for b, g in enumerate(fns):
            meet[a, b] = idx[old_pf_meet(f, g).values]
            join[a, b] = idx[old_pf_join(f, g).values]
            minus[a, b] = idx[old_pf_minus(f, g).values]  # minus[a,b] = f \ g
            for c, h in enumerate(fns) if with_q else ():
                q3[a, b, c] = idx[old_pf_q(f, g, h).values]
    zero = idx[(0,) * points]
    labels = tuple(f.label() for f in fns)
    return dict(size=s, meet=meet, join=join, minus=minus, q3=q3, zero=zero, labels=labels)


def old_verify_embedding(points: int, n: int, i: int) -> EmbeddingReport:
    """Check that * carries the three skew operations to the skew i-reduct."""
    star_embed = representation.star_embed  # looked up now, so a patched map is used
    fns = all_partial_fns(points)
    alg = core.power_algebra(n, points)
    stars = {f.values: star_embed(f, n, i) for f in fns}
    injective = len(set(stars.values())) == len(fns)
    pf_ops = {"meet": old_pf_meet, "barvee": old_pf_join, "minus": old_pf_minus}
    for f in fns:
        for g in fns:
            for kind, op in pf_ops.items():
                lhs = stars[op(f, g).values]
                rhs = derived_bin(kind, {i}, stars[f.values], stars[g.values], alg)
                if lhs != rhs:
                    return EmbeddingReport(False, injective, {
                        "op": kind, "f": f.label(), "g": g.label(),
                        "expected": lhs, "got": rhs,
                    })
    return EmbeddingReport(injective, injective)


# -- faulty star maps ------------------------------------------------------------

star_embed = representation.star_embed  # the real map, which the faulty ones patch over


def codomain_at_point0_to_1(f, n, i):
    """Undefined at point 0 goes to value 1: not injective."""
    return tuple(v if v else (1 if p == 0 else i) for p, v in enumerate(f.values))


def codomain_to_last_slot(f, n, i):
    """Undefined goes to slot n, not i: e_n is not 0_i, so empty \\ empty fails at minus."""
    return tuple(v if v else n for v in f.values)


def all_twos_to_all_ones(f, n, i):
    """One function sent to another's image: fails late in the order."""
    return (1,) * f.points if f.values and set(f.values) == {2} else star_embed(f, n, i)


def lone_one_to_slot_n(f, n, i):
    """The function defined only at the last point, as 1, has n there: fails at barvee."""
    lone = f.points and f.values == (0,) * (f.points - 1) + (1,)
    return star_embed(f, n, i)[:-1] + (n,) if lone else star_embed(f, n, i)


def lone_one_to_n_then_i(f, n, i):
    """That function goes to (n, ..., n, i): its first failing pair fails all three ops."""
    lone = f.points and f.values == (0,) * (f.points - 1) + (1,)
    return (n,) * (f.points - 1) + (i,) if lone else star_embed(f, n, i)


def swap_values_at_last_point(f, n, i):
    """1 <-> 2 at the last point, an automorphism on both sides: still an embedding."""
    last = f.points - 1
    return tuple(3 - v if v and p == last else v or i for p, v in enumerate(f.values))


FAULTS = [codomain_at_point0_to_1, codomain_to_last_slot, all_twos_to_all_ones,
          lone_one_to_slot_n, lone_one_to_n_then_i, swap_values_at_last_point]
VALID = [(points, n, i) for points in range(4) for n in range(3, 6) for i in range(3, n + 1)]


# -- the algebra -----------------------------------------------------------------


@pytest.mark.parametrize("points", range(5))
def test_tables_equal_the_scalar_build(points):
    new, old = partial_fn_algebra(points), old_partial_fn_algebra(points, with_q=points <= 3)
    for name in ("meet", "join", "minus"):
        assert np.array_equal(getattr(new, name), old[name]), name
        assert getattr(new, name).dtype == old[name].dtype
    if points <= 3:
        assert np.array_equal(new.q3, old["q3"])
    assert (new.size, new.zero, new.labels) == (old["size"], old["zero"], old["labels"])
    assert new.q3.shape == (3**points,) * 3


@pytest.mark.parametrize("points", range(4))
def test_scalar_operations_apply_the_tables_pointwise(points):
    fns = all_partial_fns(points)
    for f, g in itertools.product(fns, repeat=2):
        assert pf_meet(f, g) == old_pf_meet(f, g)
        assert pf_join(f, g) == old_pf_join(f, g)
        assert pf_minus(f, g) == old_pf_minus(f, g)
        assert all(type(v) is int for v in pf_meet(f, g).values)
    for f, g, h in itertools.product(fns, repeat=3) if points <= 2 else ():
        assert pf_q(f, g, h) == old_pf_q(f, g, h)


def test_scalar_operations_refuse_mismatched_point_counts():
    with pytest.raises(ValueError, match="length mismatch"):
        pf_meet(PartialFn(3, (1, 0, 2)), PartialFn(2, (1, 1)))


def test_index_is_the_base_3_code_with_point_0_leading():
    for t, f in enumerate(all_partial_fns(3)):
        assert t == f.values[0] * 9 + f.values[1] * 3 + f.values[2]


# -- the embedding check ---------------------------------------------------------


@pytest.mark.parametrize("points, n, i", VALID)
def test_verify_embedding_matches_the_pair_loop(points, n, i):
    assert verify_embedding(points, n, i) == old_verify_embedding(points, n, i) == (
        EmbeddingReport(True, True))


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("points, n, i", VALID)
def test_a_faulty_star_map_fails_as_in_the_pair_loop(fault, points, n, i, monkeypatch):
    monkeypatch.setattr(representation, "star_embed", fault)
    new, old = verify_embedding(points, n, i), old_verify_embedding(points, n, i)
    assert new == old
    if new.failure is not None:  # the CLI prints str() of each value
        assert ({k: str(v) for k, v in new.failure.items()}
                == {k: str(v) for k, v in old.failure.items()})


def test_the_faulty_maps_fail_where_pinned(monkeypatch):
    pins = {
        codomain_at_point0_to_1: (False, False, {
            "op": "minus", "f": "{}", "g": "{}", "expected": (1, 3), "got": (3, 3)}),
        codomain_to_last_slot: (False, True, {
            "op": "minus", "f": "{}", "g": "{}", "expected": (4, 4), "got": (3, 3)}),
        all_twos_to_all_ones: (False, False, {
            "op": "meet", "f": "{1:1}", "g": "{0:2,1:2}", "expected": (3, 2), "got": (3, 1)}),
        lone_one_to_slot_n: (False, True, {
            "op": "barvee", "f": "{1:1}", "g": "{0:1}", "expected": (1, 1), "got": (1, 4)}),
        lone_one_to_n_then_i: (False, True, {
            "op": "meet", "f": "{1:1}", "g": "{1:2}", "expected": (3, 2), "got": (3, 3)}),
        swap_values_at_last_point: (True, True, None),
    }
    for fault, want in pins.items():
        monkeypatch.setattr(representation, "star_embed", fault)
        assert verify_embedding(2, 4, 3) == EmbeddingReport(*want), fault.__name__


def test_an_image_outside_the_power_is_refused(monkeypatch):
    """The pair loop raised a ShapeError; the codes refuse it with numpy's ValueError."""
    def outside(f, n, i):
        return (n + 1,) * f.points if f.values and set(f.values) == {2} else star_embed(f, n, i)

    monkeypatch.setattr(representation, "star_embed", outside)
    with pytest.raises(core.ShapeError, match=r"value 5 out of 1\.\.4 in \(5, 5\)"):
        old_verify_embedding(2, 4, 3)
    with pytest.raises(ValueError, match="invalid entry in coordinates array"):
        verify_embedding(2, 4, 3)


def test_represent_prints_the_failure_of_a_faulty_map(monkeypatch, capsys):
    monkeypatch.setattr(representation, "star_embed", codomain_to_last_slot)
    argv = ["represent", "--points", "2", "--n", "4", "--i", "3"]
    assert main(argv) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"ok": False, "injective": True, "failure": {
        "op": "minus", "f": "{}", "g": "{}", "expected": "(4, 4)", "got": "(3, 3)"}}
    assert main(argv + ["--text"]) == 1
    assert capsys.readouterr().out == (
        "embedding FAILED: {'op': 'minus', 'f': '{}', 'g': '{}', "
        "'expected': (4, 4), 'got': (3, 3)}\n")


def test_large_dimension_answers_without_enumerating_the_power(monkeypatch, capsys):
    def refuse(self):
        raise RuntimeError(f"{self.n}^{self.points} enumerated")

    monkeypatch.setattr(core.PowerAlgebra, "elements", refuse)
    assert main(["represent", "--points", "5", "--n", "30", "--i", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "injective": True}


def test_codes_past_64_bits_are_refused():
    with pytest.raises(ValueError, match="overflow 64 bits"):
        verify_embedding(5, 6300, 3)
