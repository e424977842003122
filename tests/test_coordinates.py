"""Coordinates in the algebra protocol.

`coordinates()` is the full power n^k whose base-n codes an algebra's carrier indices
are: a full power is its own, a subpower's is the n^j of its coordinate classes, and a
table has none (None), since that a table is n^k is a theorem, which
`ideals.stone_certificate` proves.  `PowerAlgebra.digits` decodes n^k codes; `indices`
encodes them.  The engines read these instead of switching on the algebra's class.

The oracles are the forms they replace: the certificate formula of `ideals._digits` and
`core.subalgebra_closure` built from n^j's element list.
"""

import json
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nbalab import core, ideals, skew
from nbalab.cli import main
from nbalab.core import PowerAlgebra, ShapeError, check_table_bound
from test_array_closures import SUB24, SUB33
from test_certified_structure import shuffled_table

LADDER = [(3, 2), (2, 4), (2, 5), (4, 2), (3, 3), (2, 6)]
ALGEBRAS = {
    **{f"{n}^0": (lambda n=n: core.power_algebra(n, 0)) for n in (2, 3)},
    **{f"generator({n})": (lambda n=n: core.generator(n)) for n in (2, 3, 4, 5)},
    **{f"{n}^{m}": (lambda n=n, m=m: core.power_algebra(n, m)) for n, m in LADDER},
    "sub 2^4": lambda: core.PowerAlgebra(2, 4, SUB24.carrier),
    "sub 3^3": lambda: core.PowerAlgebra(3, 3, SUB33.carrier),
}
TABLES = {
    "3^2 shuffle 1": lambda: shuffled_table(core.power_algebra(3, 2), 1),
    "2^4 shuffle 2": lambda: shuffled_table(core.power_algebra(2, 4), 2),
}


def oracle_digits(alg):
    """ideals._digits as it read before coordinates(), verbatim."""
    if isinstance(alg, PowerAlgebra):
        j = alg._power().points
        check_table_bound("the Stone certificate", alg.size, alg.size * j)
        return np.arange(alg.size)[:, None] // alg.n ** np.arange(j - 1, -1, -1) % alg.n


def element_list_closure(alg, gens):
    """core.subalgebra_closure as it read before digits: the diagonal from n^j's elements."""
    gens = list(map(tuple, gens))
    for g in gens:
        alg._check_element(g) if alg._power() is alg else alg.index(g)
    first, cls = core._first_ranks(np.array([alg.constant(1), *gens], dtype=np.int64).T)
    diag = np.array(core.power_algebra(alg.n, len(first)).elements(), dtype=np.int64)
    return core.PowerAlgebra(alg.n, alg.points, tuple(map(tuple, diag[:, cls].tolist())))


# -- a full power's coordinates are itself, built in no time ------------------


def test_the_coordinates_of_2_to_the_40_build_nothing():
    took = []
    for _ in range(5):
        alg = core.power_algebra(2, 40)
        start = time.perf_counter()
        power = alg.coordinates()
        took.append(time.perf_counter() - start)
        assert power is alg
        assert not {"full", "index", "power"} & alg._cache.keys()
    assert min(took) < 1e-3


# -- digits decodes the codes that indices encodes ----------------------------


@pytest.mark.parametrize("make", ALGEBRAS.values(), ids=ALGEBRAS.keys())
def test_digits_lists_the_coordinates_and_indices_inverts_them(make):
    alg = make()
    power = alg.coordinates()
    assert power.carrier is None and power.n == alg.n and power.size == alg.size
    codes = np.arange(power.size)
    digits = power.digits(codes)
    assert digits.shape == (power.size, power.points) and digits.dtype == np.int64
    assert (digits + 1).tolist() == [list(e) for e in power.elements()]
    assert np.array_equal(power.indices(list(map(tuple, (digits + 1).tolist()))), codes)
    # index i of the algebra is code i: element i read at each coordinate class's first point
    if alg.carrier is not None:
        first, _ = core._first_ranks(alg._values().T)
        assert (alg._values()[:, first] - 1).tolist() == digits.tolist()


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (5, 1)])
def test_digits_keeps_the_shape_of_its_codes(n, m):
    power = core.power_algebra(n, m)
    codes = np.arange(power.size).reshape(1, -1, 1)
    assert power.digits(codes).shape == (1, power.size, 1, m)
    flat = power.digits(np.arange(power.size))
    assert power.digits(codes).reshape(-1, m).tolist() == flat.tolist()
    assert power.digits(power.size - 1).tolist() == [n - 1] * m


# -- the certificate is the formula it was ------------------------------------


def certificates(make, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(ideals, "_digits", oracle_digits)
        want = ideals.stone_certificate(make())
    return want, ideals.stone_certificate(make())


@pytest.mark.parametrize("make", [*ALGEBRAS.values(), *TABLES.values()],
                         ids=[*ALGEBRAS.keys(), *TABLES.keys()])
def test_the_certificate_is_byte_equal_to_the_old_formula(make, monkeypatch):
    want, got = certificates(make, monkeypatch)
    if want is None:
        assert got is None and make().size == 1  # n^0: no coordinates, k = 0
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_the_certificate_keeps_its_bound():
    alg = core.power_algebra(2, 24)
    with pytest.raises(ValueError, match="the Stone certificate over carrier size 16777216 "
                                         "needs 402653184 entries, exceeding bound 16777216"):
        ideals.stone_certificate(alg)


# -- a table has no coordinates -----------------------------------------------


@st.composite
def tables(draw):
    n = draw(st.integers(2, 3))
    size = draw(st.integers(1, 3))
    consts = tuple(draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n)))
    q = draw(st.lists(st.integers(0, size - 1), min_size=size ** (n + 1),
                      max_size=size ** (n + 1)))
    return core.TableAlgebra(n, size, consts, q)


@settings(max_examples=60, deadline=None)
@given(tables())
def test_a_random_table_has_no_coordinates(tab):
    assert tab.coordinates() is None


@pytest.mark.parametrize("make", [*TABLES.values(),
                                  lambda: core.table_of_power(core.power_algebra(2, 3)),
                                  lambda: core.table_of_power(core.generator(3)),
                                  lambda: core.TableAlgebra(2, 1, (0, 0), (0,))],
                         ids=[*TABLES.keys(), "2^3", "generator(3)", "one element"])
def test_a_certified_or_trivial_table_has_no_coordinates(make):
    tab = make()
    assert tab.coordinates() is None
    ideals.stone_certificate(tab)
    assert tab.coordinates() is None  # proving the certificate leaves the table as it was


# -- the nba gate reads coordinates() -----------------------------------------


def refuse(what):
    def raise_(*args, **kwargs):
        raise AssertionError(f"{what} was reached")
    return raise_


GATED = {**TABLES, "sub 3^3": ALGEBRAS["sub 3^3"], "2^5": ALGEBRAS["2^5"]}


@pytest.mark.parametrize("make", GATED.values(), ids=GATED.keys())
def test_nba_congruences_of_a_certified_algebra_skips_the_audit(make, tmp_path, capsys,
                                                                 monkeypatch):
    alg = make()
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(alg.to_json()))
    monkeypatch.setattr(skew, "check_axioms", refuse("the audit"))
    assert main(["congruences", "--algebra", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    k = ideals.stone_certificate(alg).shape[1]
    assert json.loads(out)["count"] == 2**k


def test_nba_congruences_of_2_to_the_40_stops_at_its_own_bound(tmp_path, capsys, monkeypatch):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"n": 2, "kind": "power", "points": 40}))
    monkeypatch.setattr(skew, "check_axioms", refuse("the audit"))
    monkeypatch.setattr(ideals, "stone_certificate", refuse("the certificate"))
    assert main(["congruences", "--algebra", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err and "exceeds bound 64" in out


# -- subalgebra_closure reads its diagonal off digits -------------------------


BASES = [core.power_algebra(n, m) for n, m in LADDER] + [SUB24, SUB33]


@st.composite
def closures(draw):
    alg = draw(st.sampled_from(BASES))
    if alg.carrier is None:
        element = st.tuples(*[st.integers(1, alg.n)] * alg.points)
    else:
        element = st.sampled_from(alg.carrier)
    return alg, draw(st.lists(element, max_size=4))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(closures())
def test_the_closure_is_the_element_list_form(case):
    alg, gens = case
    got, want = core.subalgebra_closure(alg, gens), element_list_closure(alg, gens)
    assert got.carrier == want.carrier
    assert got._power() == want._power()


BAD = [(core.power_algebra(2, 4), (1, 2, 1)), (core.power_algebra(3, 2), (1, 4)),
       (core.power_algebra(3, 2), (1, 2.0)), (core.power_algebra(2, 5), (0, 1, 1, 1, 1)),
       (SUB24, (1, 1, 1, 2)), (SUB33, (1, 2, 4)), (SUB33, (1, 2))]


@pytest.mark.parametrize("alg, bad", BAD, ids=[f"{a.n}^{a.points} {b}" for a, b in BAD])
def test_an_element_outside_the_carrier_gives_the_same_shape_error(alg, bad):
    gens = [alg.constant(2), bad]
    with pytest.raises(ShapeError) as want:
        element_list_closure(alg, gens)
    with pytest.raises(ShapeError) as got:
        core.subalgebra_closure(alg, gens)
    assert str(got.value) == str(want.value)


def test_a_closure_past_the_element_list_bound_gives_the_same_error():
    alg = core.power_algebra(2, 24)
    # five generators whose values at point p are p's bits: 24 coordinate classes
    gens = [tuple(1 + (p >> b & 1) for p in range(24)) for b in range(5)]
    with pytest.raises(ValueError) as want:
        element_list_closure(alg, gens)
    with pytest.raises(ValueError) as got:
        core.subalgebra_closure(alg, gens)
    assert str(got.value) == str(want.value)
    assert "the element list over carrier size 16777216" in str(got.value)
