"""The array closures against the loops they replaced.

The oracles below are the earlier engines, kept as they were: the
subalgebra closure is a Python loop over scalar q calls, and multideal
validation, multideal closure and hom extension evaluate q over
flattened meshgrids.  The Boolean-center consumers (atoms, theta_of,
extension to an ultramultideal, primality) are kept as their per-element
loops.  The code under test gathers q over open grids and grows index
sets; both must give the same carriers, verdicts, witnesses and maps.
The homs onto the generator are read off the ultramultideals, and the
backtracker over a generating set is their oracle.  A subpower is the
diagonal of its coordinate partition: its oracles are the q-closure over
open grids (`oracle_closure`) and the subpower q table that the digit
kernel and a search over all argument tuples built (`oracle_dense_q_table`).
"""

import itertools
import random

import numpy as np
import pytest

from nbalab import core, ideals
from nbalab.core import ShapeError, check_table_bound, element_index
from nbalab.ideals import Multideal, ValidationResult, degenerate_multideal
from nbalab.skew import _label_tuple, boolean_center, reduct
from nbalab.transforms import CenterParams


# -- the oracles ---------------------------------------------------------------


def oracle_subalgebra_closure(alg, gens):
    base = alg.elements()
    full = len(base)
    current = set(alg.constants)
    for g in gens:
        alg._check_element(tuple(g))
        current.add(tuple(g))
    frontier = set(current)
    while frontier and len(current) < full:
        new = set()
        pool = sorted(current)
        for combo in itertools.product(pool, repeat=alg.n + 1):
            if not any(c in frontier for c in combo):
                continue
            out = alg.q(combo[0], combo[1:])
            if out not in current and out not in new:
                new.add(out)
        current |= new
        frontier = new
    return core.PowerAlgebra(alg.n, alg.points, tuple(sorted(current)))


def oracle_closure(alg, gens) -> np.ndarray:
    """Mask of the least set of carrier indices holding the constants and gens, closed under q.

    Each round gathers q over the open grids of the tuples that hold an element
    added in the last round: position p new, the positions before it from the
    set closed so far, the positions after it from the whole set.
    """
    inside = np.zeros(alg.size, dtype=bool)
    inside[[alg.constant_index(k) for k in range(1, alg.n + 1)]] = True
    inside[np.asarray(gens, dtype=np.int64)] = True
    closed = np.zeros(0, dtype=np.int64)
    while not inside.all():
        every = np.flatnonzero(inside)
        new = np.setdiff1d(every, closed, assume_unique=True)
        if not new.size:
            break
        for p in range(alg.n + 1):
            g = np.ix_(*[closed] * p, new, *[every] * (alg.n - p))
            inside[alg.q_vec(g[0], g[1:])] = True
        closed = every
    return inside


def _grid_q(alg, arrays):
    """q over a meshgrid of index arrays; returns flat result array."""
    grids = np.meshgrid(*arrays, indexing="ij")
    flat = [g.ravel() for g in grids]
    return alg.q_vec(flat[0], flat[1:]), flat


def oracle_validate_multideal(alg, candidate):
    n = alg.n
    size = alg.size
    labels = _label_tuple(alg)
    comps = [frozenset(element_index(alg, x) for x in c) for c in candidate]
    if len(comps) != n:
        return ValidationResult("invalid", "shape", {"expected": n, "got": len(comps)})
    for k in range(1, n + 1):
        if alg.constant_index(k) not in comps[k - 1]:
            return ValidationResult("invalid", "m1", {"missing": f"e{k}"})
    for r in range(1, n + 1):
        for k in range(1, n + 1):
            if r != k and alg.constant_index(k) in comps[r - 1]:
                return ValidationResult("degenerate", witness={"constant": f"e{k}", "component": r})
    for r in range(n):
        for k in range(r + 1, n):
            inter = comps[r] & comps[k]
            if inter:
                return ValidationResult("invalid", "disjoint",
                                        {"element": labels[min(inter)],
                                         "components": [r + 1, k + 1]})
    allv = np.arange(size, dtype=np.int64)
    member = [np.zeros(size, dtype=bool) for _ in range(n)]
    for k in range(n):
        member[k][sorted(comps[k])] = True
    # m2: a in I_r, branch r = b in I_k, other branches arbitrary -> I_k
    for r in range(1, n + 1):
        for k in range(1, n + 1):
            ar = np.array(sorted(comps[r - 1]), dtype=np.int64)
            bk = np.array(sorted(comps[k - 1]), dtype=np.int64)
            if ar.size == 0 or bk.size == 0:
                continue
            arrays = [ar] + [bk if s == r else allv for s in range(1, n + 1)]
            res, flat = _grid_q(alg, arrays)
            bad = np.nonzero(~member[k - 1][res])[0]
            if bad.size:
                t = int(bad[0])
                wit = {"a": labels[int(flat[0][t])],
                       "ys": [labels[int(flat[s][t])] for s in range(1, n + 1)],
                       "result": labels[int(res[t])], "r": r, "k": k}
                return ValidationResult("invalid", "m2", wit)
    # m3: scrutinee arbitrary, all branches in I_k -> I_k
    for k in range(1, n + 1):
        bk = np.array(sorted(comps[k - 1]), dtype=np.int64)
        arrays = [allv] + [bk] * n
        res, flat = _grid_q(alg, arrays)
        bad = np.nonzero(~member[k - 1][res])[0]
        if bad.size:
            t = int(bad[0])
            wit = {"a": labels[int(flat[0][t])],
                   "ys": [labels[int(flat[s][t])] for s in range(1, n + 1)],
                   "result": labels[int(res[t])], "k": k}
            return ValidationResult("invalid", "m3", wit)
    return ValidationResult("proper")


def oracle_ideal_closure(alg, seed):
    n = alg.n
    size = alg.size
    allv = np.arange(size, dtype=np.int64)
    comps = [set() for _ in range(n)]
    for k in range(n):
        comps[k].add(alg.constant_index(k + 1))
    for k, part in enumerate(seed):
        for x in part:
            comps[k].add(element_index(alg, x))
    changed = True
    while changed:
        changed = False
        for r in range(1, n + 1):
            for k in range(1, n + 1):
                if r != k and alg.constant_index(k) in comps[r - 1]:
                    return degenerate_multideal(alg)
        for r in range(n):
            for k in range(r + 1, n):
                if comps[r] & comps[k]:
                    return degenerate_multideal(alg)
        for r in range(1, n + 1):
            for k in range(1, n + 1):
                ar = np.array(sorted(comps[r - 1]), dtype=np.int64)
                bk = np.array(sorted(comps[k - 1]), dtype=np.int64)
                arrays = [ar] + [bk if s == r else allv for s in range(1, n + 1)]
                res, _ = _grid_q(alg, arrays)
                new = set(np.unique(res).tolist()) - comps[k - 1]
                if new:
                    comps[k - 1] |= new
                    changed = True
        for k in range(n):
            bk = np.array(sorted(comps[k]), dtype=np.int64)
            arrays = [allv] + [bk] * n
            res, _ = _grid_q(alg, arrays)
            new = set(np.unique(res).tolist()) - comps[k]
            if new:
                comps[k] |= new
                changed = True
    return Multideal(alg, tuple(frozenset(c) for c in comps))


def oracle_generating_set(alg):
    gens = []
    current = oracle_subalgebra_closure(alg, [])
    els = alg.elements()
    while current.size < alg.size:
        for e in els:
            if e not in current:
                gens.append(alg.index(e))
                current = oracle_subalgebra_closure(alg, [els[g] for g in gens])
                break
    return gens


def oracle_extend_hom(alg, h):
    n = alg.n
    h = h.copy()
    while True:
        known = np.nonzero(h)[0].astype(np.int64)
        res, flat = _grid_q(alg, [known] * (n + 1))
        himg = np.stack([h[flat[s]] for s in range(1, n + 1)])
        vals = np.take_along_axis(himg, (h[flat[0]] - 1)[None], axis=0)[0]
        lo = np.full(h.shape, n + 1, dtype=np.int64)
        hi = np.zeros_like(h)
        np.minimum.at(lo, res, vals)
        np.maximum.at(hi, res, vals)
        touched = hi > 0
        if np.any(lo[touched] != hi[touched]):
            return None
        conflict = touched & (h > 0) & (h != hi)
        if np.any(conflict):
            return None
        new = touched & (h == 0)
        if not np.any(new):
            break
        h[new] = hi[new]
    return h if np.all(h > 0) else None


def oracle_all_homs(alg, gens):
    n = alg.n
    size = alg.size
    out = []
    for images in itertools.product(range(1, n + 1), repeat=len(gens)):
        h = np.full(size, 0, dtype=np.int64)
        for k in range(1, n + 1):
            h[alg.constant_index(k)] = k
        for g, v in zip(gens, images):
            if h[g] and h[g] != v:
                break
            h[g] = v
        else:
            h = oracle_extend_hom(alg, h)
            if h is not None and set(h.tolist()) == set(range(1, n + 1)):
                out.append(tuple(int(v) for v in h))
    return sorted(set(out))


def oracle_atoms(bc):
    m = bc.table.meet
    z = bc.table.zero
    out = []
    for a in range(bc.size):
        if a == z:
            continue
        below = [b for b in range(bc.size) if b not in (z, a) and m[b, a] == b]
        if not below:
            out.append(a)
    return out


def _oracle_negj0(bc, ideal, cp):
    loc = {a: t for t, a in enumerate(bc.members)}
    j0 = bc.table.zero
    for a in bc.members:
        if a in ideal.components[cp.i - 1]:
            j0 = int(bc.table.join[j0, loc[a]])
    return loc, int(bc.table.neg[j0])


def oracle_theta_of(ideal, cp):
    alg = ideal.alg
    bc = boolean_center(alg, cp)
    loc, negj0 = _oracle_negj0(bc, ideal, cp)
    coords = ideals._coordinate_indices(alg, cp)
    sig = [tuple(int(bc.table.meet[loc[int(coords[k][x])], negj0]) for k in range(alg.n))
           for x in range(alg.size)]
    groups = {}
    return tuple(groups.setdefault(s, len(groups)) for s in sig)


def oracle_extensions(alg, ideal, cp):
    """The components of the extension over each admissible atom, in atom order."""
    bc = boolean_center(alg, cp)
    loc, negj0 = _oracle_negj0(bc, ideal, cp)
    coords = ideals._coordinate_indices(alg, cp)
    out = []
    for atom in [a for a in oracle_atoms(bc) if int(bc.table.meet[a, negj0]) == a]:
        comps = [set() for _ in range(alg.n)]
        for x in range(alg.size):
            for k in range(alg.n):
                if int(bc.table.meet[atom, loc[int(coords[k][x])]]) == atom:
                    comps[k].add(x)
                    break
        out.append(tuple(frozenset(c) for c in comps))
    return out


def oracle_is_prime(alg, ideal, cp):
    sk = reduct(alg, "skew", i=cp.i)
    comp = ideal.components[cp.i - 1]
    return not any(int(sk.meet[x, y]) in comp and x not in comp and y not in comp
                   for x in range(sk.size) for y in range(sk.size))


# -- inputs --------------------------------------------------------------------


A23 = core.power_algebra(2, 3)
A32 = core.power_algebra(3, 2)
A24 = core.power_algebra(2, 4)
SUB24 = core.subalgebra_closure(A24, [(1, 2, 1, 2)])
SUB33 = core.subalgebra_closure(core.power_algebra(3, 3), [(1, 2, 3), (2, 2, 1)])


# -- subuniverses --------------------------------------------------------------


@pytest.mark.parametrize("alg", [A23, A32], ids=["2^3", "3^2"])
def test_every_one_and_two_generator_closure_matches(alg):
    for r in (1, 2):
        for gens in itertools.combinations(alg.elements(), r):
            got = core.subalgebra_closure(alg, gens)
            assert got.carrier == oracle_subalgebra_closure(alg, gens).carrier, gens


# 74 cases of four generator sets each; 3^3 has the fewest, as its oracle is the slowest
SEEDED_CLOSURES = [(2, 5, 1), (3, 3, 2), (2, 6, 3)] + [
    (n, m, seed) for n, m, count in ((2, 3, 12), (2, 4, 12), (2, 5, 12), (2, 6, 10), (3, 2, 12),
                                     (3, 3, 3), (4, 2, 10))
    for seed in range(10, 10 + count)]


@pytest.mark.parametrize("n, m, seed", SEEDED_CLOSURES)
def test_seeded_closures_match(n, m, seed):
    alg = core.power_algebra(n, m)
    rng = random.Random(seed)
    els = alg.elements()
    for count in (1, 1, 2, 3):
        gens = rng.sample(els, count)
        got = core.subalgebra_closure(alg, gens)
        assert got.carrier == oracle_subalgebra_closure(alg, gens).carrier, gens


def test_closure_inside_a_subpower_matches():
    for g in SUB33.elements():
        got = core.subalgebra_closure(SUB33, [g])
        assert got.carrier == oracle_subalgebra_closure(SUB33, [g]).carrier


def oracle_dense_q_table(alg):
    """A subpower's q table as the digit kernel and a search over all argument tuples
    built it; q's ShapeError at the first tuple whose value the carrier lacks."""
    check_table_bound("the q table", alg.size, alg.size ** (alg.n + 1))
    # the carrier is sorted, so its codes are too
    vals = np.array(alg.elements(), dtype=np.int64).reshape(alg.size, alg.points)
    codes = (vals - 1) @ (alg.n ** np.arange(alg.points - 1, -1, -1, dtype=np.int64))
    # each digit comes from one branch: q(x, ys) = sum over k of q(x, 0, .., y_k, .., 0)
    axes = [codes.reshape((-1,) + (1,) * (alg.n - a)) for a in range(alg.n + 1)]
    res = sum(alg._q_codes(axes[0], [axes[k + 1] if j == k else 0 for j in range(alg.n)])
              for k in range(alg.n))
    tab = np.searchsorted(codes, res)
    missing = np.argwhere(codes.take(tab, mode="clip") != res)
    if missing.size:  # q raises a ShapeError naming the element the carrier lacks
        alg.q_idx(int(missing[0, 0]), missing[0, 1:].tolist())
    return tab


def constant_holding_subsets(n, m, seed, count):
    """Seeded carriers of n^m holding the constants.  Half take elements of the whole
    power, half of the diagonal of a random coordinate partition, kept whole one time
    in four; the whole diagonals are the closed ones."""
    rng = random.Random(seed)
    els = core.power_algebra(n, m).elements()
    consts = {(k,) * m for k in range(1, n + 1)}
    out = []
    for t in range(count):
        if t % 2:
            label = [rng.randrange(m) for _ in range(m)]
            pool = [e for e in els if all(e[p] == e[label.index(label[p])] for p in range(m))]
            keep = 1.0 if rng.random() < 0.25 else 0.5
        else:
            pool, keep = els, rng.choice((0.1, 0.3, 0.6))
        out.append(tuple(sorted(consts | {e for e in pool if rng.random() < keep})))
    return out


# the scalar closure oracle needs about 70 s for all of these subsets on a 2-core machine,
# so it runs on the small powers only
SCALAR_ORACLE = {(2, 3), (2, 4), (3, 2)}


@pytest.mark.parametrize("n, m", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (4, 2)])
def test_a_carrier_loads_iff_it_is_its_own_closure(n, m):
    """1,820 subsets in all: a carrier loads iff it is its own closure, with the dense
    search's q table; an open one raises the dense search's ShapeError."""
    full = core.power_algebra(n, m)
    verdicts = set()
    for carrier in constant_holding_subsets(n, m, 100 * n + m, 260):
        closed = oracle_closure(full, [full.index(e) for e in carrier]).sum() == len(carrier)
        if (n, m) in SCALAR_ORACLE:
            assert closed == (oracle_subalgebra_closure(full, carrier).carrier == carrier)
        alg = core.PowerAlgebra(n, m, carrier)
        try:
            want = oracle_dense_q_table(alg)
        except ShapeError as exc:
            assert not closed, carrier
            for load in (lambda: core.algebra_from_json(alg.to_json()),
                         core.PowerAlgebra(n, m, carrier).q_table):
                with pytest.raises(ShapeError) as got:
                    load()
                assert str(got.value) == str(exc)
        else:
            assert closed, carrier
            assert np.array_equal(core.algebra_from_json(alg.to_json()).q_table(), want)
        verdicts.add(closed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n, m", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (4, 2)])
def test_an_open_carrier_gets_qs_error_at_its_first_escape(n, m):
    """The subsets above again: the first argument tuple (C order, scrutinee slowest)
    whose value an open carrier lacks, found by the digit kernel over all tuples, gives
    the element-level q's ShapeError; loading the carrier raises the same."""
    full = core.power_algebra(n, m)
    opened = 0
    for carrier in constant_holding_subsets(n, m, 100 * n + m, 260):
        codes = np.array([full.index(e) for e in carrier], dtype=np.int64)
        axes = [codes.reshape((-1,) + (1,) * (n - a)) for a in range(n + 1)]
        res = sum(full._q_codes(axes[0], [axes[k + 1] if j == k else 0 for j in range(n)])
                  for k in range(n))
        missing = np.argwhere(~np.isin(res, codes))
        if not missing.size:
            continue
        opened += 1
        s, *bs = missing[0].tolist()
        alg = core.PowerAlgebra(n, m, carrier)
        with pytest.raises(ShapeError) as want:
            alg.q(carrier[s], [carrier[b] for b in bs])
        for load in (lambda: core.algebra_from_json(alg.to_json()), alg.q_table):
            with pytest.raises(ShapeError) as got:
                load()
            assert str(got.value) == str(want.value), carrier
    assert opened >= 100


def test_closure_of_an_outside_generator_raises():
    diag = core.subalgebra_closure(A32, [])
    assert diag.carrier == ((1, 1), (2, 2), (3, 3))
    with pytest.raises(ShapeError):
        core.subalgebra_closure(diag, [(1, 2)])


def test_closure_inside_an_open_carrier_raises():
    open_carrier = core.PowerAlgebra(3, 2, ((1, 1), (1, 2), (2, 2), (3, 3)))
    with pytest.raises(ShapeError, match="not closed under q"):
        core.subalgebra_closure(open_carrier, [(1, 2)])


# -- multideals ----------------------------------------------------------------


def _perturbations(alg, md, rng, count):
    """Seeded one-element changes of md's components: drop, add or move one element."""
    comps = [sorted(c) for c in md.components]
    out = []
    for _ in range(count):
        cand = [list(c) for c in comps]
        k = rng.randrange(alg.n)
        how = rng.choice(("drop", "add", "move"))
        if how != "add":  # a component of a proper multideal holds its constant
            x = cand[k].pop(rng.randrange(len(cand[k])))
            if how == "move":
                cand[(k + 1 + rng.randrange(alg.n - 1)) % alg.n].append(x)
        else:
            cand[k].append(rng.randrange(alg.size))
        out.append([sorted(set(c)) for c in cand])
    return out


def _validation_cases():
    """Every proper multideal of 2^3, 3^2, 2^4 and a subpower with seeded perturbations
    of each, and the multideals of 2^3 on seeded one-entry mutations of its table, where
    m2 can hold while m3 fails."""
    for alg in (A23, A32, A24, SUB24):
        rng = random.Random(alg.size)
        for md in ideals.all_proper_multideals(alg):
            yield alg, [sorted(c) for c in md.components]
            for cand in _perturbations(alg, md, rng, 12):
                yield alg, cand
    base, rng = core.table_of_power(A23), random.Random(1)
    mds = ideals.all_proper_multideals(A23)
    for _ in range(40):
        key = tuple(rng.randrange(base.size) for _ in range(base.n + 1))
        mutant = base.mutate(key, rng.randrange(base.size))
        for md in mds:
            yield mutant, [sorted(c) for c in md.components]


def test_validate_multideal_matches():
    clauses = set()
    for alg, cand in _validation_cases():
        got, want = ideals.validate_multideal(alg, cand), oracle_validate_multideal(alg, cand)
        assert (got.status, got.clause, got.witness) == \
            (want.status, want.clause, want.witness), cand
        assert list(got.witness or {}) == list(want.witness or {})  # key order, for JSON
        clauses.add(got.clause or got.status)
    assert clauses == {"proper", "degenerate", "m1", "disjoint", "m2", "m3"}


def _seeds(alg, rng, count):
    for _ in range(count):
        parts = rng.randrange(alg.n + 1)
        yield [rng.sample(range(alg.size), rng.randrange(3)) for _ in range(parts)]


@pytest.mark.parametrize("alg", [A23, A32, A24, SUB24, SUB33, core.power_algebra(4, 2)],
                         ids=["2^3", "3^2", "2^4", "sub-2^4", "sub-3^3", "4^2"])
def test_ideal_closure_matches(alg):
    rng = random.Random(alg.size + 7)
    kinds = set()
    x = next(x for x in range(alg.size) if x not in {alg.constant_index(1), alg.constant_index(2)})
    fixed = [[], [[alg.constant_index(2)]], [[x], [x]]]  # the last two are degenerate
    for seed in fixed + list(_seeds(alg, rng, 20 if alg.size < 16 else 4)):
        got, want = ideals.ideal_closure(alg, seed), oracle_ideal_closure(alg, seed)
        assert (got.degenerate, got.components) == (want.degenerate, want.components), seed
        kinds.add(got.degenerate)
    assert kinds == {True, False}


def test_ideal_closure_rejects_a_seed_with_too_many_parts():
    with pytest.raises(ValueError, match="at most 3 parts, got 4"):
        ideals.ideal_closure(A32, [[], [], [], [(1, 2)]])


# -- homs onto the generator ---------------------------------------------------


def every_subpower(alg):
    """The distinct closures of every set of at most two elements."""
    found = {}
    for gens in itertools.chain.from_iterable(
            itertools.combinations(alg.elements(), r) for r in range(3)):
        sub = core.subalgebra_closure(alg, gens)
        found.setdefault(sub.carrier, sub)
    return list(found.values())


def seeded_subpowers(alg, seed, count):
    rng = random.Random(seed)
    return [core.subalgebra_closure(alg, rng.sample(alg.elements(), 2)) for _ in range(count)]


SUBS32, SUBS23 = every_subpower(A32), every_subpower(A23)
HOM_INPUTS = ([(f"3^2 sub {t}", sub) for t, sub in enumerate(SUBS32)]
              + [(f"2^3 sub {t}", sub) for t, sub in enumerate(SUBS23)]
              + [(f"2^4 seeded {t}", sub) for t, sub in enumerate(seeded_subpowers(A24, 3, 4))]
              + [(f"3^3 seeded {t}", sub)
                 for t, sub in enumerate(seeded_subpowers(core.power_algebra(3, 3), 4, 3))]
              + [("2^5", core.power_algebra(2, 5)), ("4^2", core.power_algebra(4, 2)),
                 ("sub-2^4", SUB24), ("sub-3^3", SUB33)]
              + [(f"generator {n}", core.generator(n)) for n in range(2, 6)]
              + [("2^0", core.power_algebra(2, 0))])


def test_every_subpower_is_one_per_partition_of_the_points():
    assert (len(SUBS32), len(SUBS23)) == (2, 5)  # the Bell numbers B_2 and B_3


@pytest.mark.parametrize("label,alg", HOM_INPUTS, ids=[label for label, _ in HOM_INPUTS])
def test_all_homs_match(label, alg):
    got = ideals.all_homs_onto_generator(alg)
    assert got == oracle_all_homs(alg, oracle_generating_set(alg))
    assert len(got) == ideals.stone_embed(alg).target.points


def test_homs_of_a_table_are_the_powers():
    for alg in (A23, A32):
        assert ideals.all_homs_onto_generator(core.table_of_power(alg)) == \
            oracle_all_homs(alg, oracle_generating_set(alg))


def oracle_table_generating_set(alg):
    """Carrier indices that generate alg with the constants, as the backtracker chose
    them: each the least one outside the subuniverse that those before it generate."""
    gens = []
    inside = oracle_closure(alg, gens)
    while not inside.all():
        gens.append(int(np.argmin(inside)))
        inside = oracle_closure(alg, gens)
    return gens


def shuffled_table(alg, seed):
    """table_of_power(alg) with its carrier relabelled by a seeded permutation."""
    tab = core.table_of_power(alg)
    perm = np.random.default_rng(seed).permutation(tab.size)
    q = np.empty_like(tab.q_table())
    q[np.ix_(*[perm] * (tab.n + 1))] = perm[tab.q_table()]
    return core.TableAlgebra(tab.n, tab.size, tuple(int(perm[c]) for c in tab.constants),
                             tuple(q.ravel().tolist()))


def test_homs_of_shuffled_tables_match():
    """In a shuffled carrier the ultramultideals' order is not the homs' sorted order."""
    for alg in (A23, A32):
        for seed in range(6):
            tab = shuffled_table(alg, seed)
            assert ideals.all_homs_onto_generator(tab) == \
                oracle_all_homs(tab, oracle_table_generating_set(tab))


def test_homs_of_mutated_tables_raise_or_match():
    """A one-entry mutation is refused, or it has exactly the backtracker's homs.

    The new entry is drawn from the whole carrier, so some draws leave the table
    as it was; every draw that changed it was refused when this test was written.
    """
    seen = set()
    for alg in (A23, A32):
        base, rng = core.table_of_power(alg), random.Random(alg.size)
        for _ in range(60):
            key = tuple(rng.randrange(base.size) for _ in range(base.n + 1))
            mutant = base.mutate(key, rng.randrange(base.size))
            want = oracle_all_homs(mutant, oracle_table_generating_set(mutant))
            try:
                got = ideals.all_homs_onto_generator(mutant)
            except ValueError:
                seen.add("refused")
                continue
            assert got == want, key
            seen.add("matched")
    assert seen == {"refused", "matched"}


def test_is_hom_onto_generator_checks_the_map_length():
    with pytest.raises(ValueError, match="needs 9 images, got 3"):
        ideals.is_hom_onto_generator(A32, (1, 2, 3))


# -- the Boolean center's consumers --------------------------------------------


@pytest.mark.parametrize("alg", [A23, A32, A24, SUB24], ids=["2^3", "3^2", "2^4", "sub-2^4"])
def test_center_consumers_match(alg):
    for cp in (CenterParams(1, 2), CenterParams(2, 1)):
        if max(cp.i, cp.j) > alg.n:
            continue
        bc = boolean_center(alg, cp)
        assert bc.atoms() == oracle_atoms(bc)
        assert [bc.local(a) for a in bc.members] == list(range(bc.size))
        for md in ideals.all_proper_multideals(alg):
            assert ideals.theta_of(md, cp).blocks == oracle_theta_of(md, cp)
            assert ideals.is_prime(alg, md, cp) == oracle_is_prime(alg, md, cp)
            got = [ideals.extend_to_ultra(alg, md, cp, atom).components
                   for atom in ideals.admissible_atoms(alg, md, cp)]
            assert got == oracle_extensions(alg, md, cp)


def test_local_rejects_an_element_off_the_center():
    bc = boolean_center(A32, CenterParams(1, 2))
    off = next(x for x in range(A32.size) if x not in bc.members)
    with pytest.raises(ValueError, match="outside the Boolean center"):
        bc.local(off)
