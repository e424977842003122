"""Congruences, multideals, their bijection, ultramultideals, Stone embedding.

All carriers are small and finite; congruences are stored as a block
index per carrier element with canonical first-occurrence labelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import DimensionError, PowerAlgebra, check_table_bound, element_index, gather, generator
from .skew import boolean_center
from .terms import t_branches
from .transforms import CenterParams

CARRIER_BOUND = 64


def _canonical(blocks: Sequence[int]) -> tuple:
    relabel = {}
    out = []
    for b in blocks:
        if b not in relabel:
            relabel[b] = len(relabel)
        out.append(relabel[b])
    return tuple(out)


@dataclass(frozen=True)
class Congruence:
    alg: object = field(compare=False)
    blocks: tuple  # block index per carrier element, first-occurrence labels

    def __post_init__(self):
        object.__setattr__(self, "blocks", _canonical(self.blocks))

    @property
    def size(self) -> int:
        return len(self.blocks)

    @property
    def num_blocks(self) -> int:
        return max(self.blocks) + 1

    def related(self, a: int, b: int) -> bool:
        return self.blocks[a] == self.blocks[b]

    def block_of(self, a: int) -> frozenset:
        ba = self.blocks[a]
        return frozenset(i for i, b in enumerate(self.blocks) if b == ba)

    def classes(self) -> tuple:
        out = [[] for _ in range(self.num_blocks)]
        for i, b in enumerate(self.blocks):
            out[b].append(i)
        return tuple(tuple(c) for c in out)

    @property
    def is_diagonal(self) -> bool:
        return self.num_blocks == self.size

    @property
    def is_total(self) -> bool:
        return self.num_blocks == 1

    def least(self) -> np.ndarray:
        """The least element of each element's block."""
        blk = np.asarray(self.blocks)
        return np.unique(blk, return_index=True)[1][blk]

    def is_compatible(self) -> bool:
        """Exhaustive check that blocks respect q: q(xs) ~ q(representatives of xs)."""
        return _violations(self.alg.q_table(), self.least())[0].size == 0

    def to_json(self) -> dict:
        return {"blocks": list(self.blocks)}


def blocks_to_congruence(alg, rel: np.ndarray) -> Congruence:
    """Congruence from an equivalence relation given as a boolean matrix (ValueError otherwise)."""
    return Congruence(alg, tuple(_least_labels(rel).tolist()))


def _least_labels(rel: np.ndarray) -> np.ndarray:
    """Least-element labels of an equivalence relation given as a boolean matrix.

    Each row's first related element labels it; rel is an equivalence iff it relates
    exactly the pairs with equal labels, and ValueError names the first pair where not.
    """
    lab = rel.argmax(1)
    bad = np.argwhere(rel != (lab[:, None] == lab))
    if bad.size:
        a, b = bad[0].tolist()
        raise ValueError(f"not an equivalence relation at ({a}, {b}): rel[{a}, {b}] is "
                         f"{bool(rel[a, b])}, unlike the relation of their least related elements")
    return lab


def diagonal_congruence(alg) -> Congruence:
    return Congruence(alg, tuple(range(alg.size)))


def total_congruence(alg) -> Congruence:
    return Congruence(alg, (0,) * alg.size)


def _violations(tab: np.ndarray, lab: np.ndarray) -> tuple:
    """The pairs (lab[q(xs)], lab[q(lab[xs])]) that differ; none iff lab's blocks are compatible."""
    img = lab[tab]
    rep = gather(img, np.ix_(*[lab] * tab.ndim))
    bad = img != rep
    return img[bad], rep[bad]


def _merge(lab: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-element labels after merging the blocks of a[i] and b[i] for every i."""
    lab = lab.copy()
    ra, rb = lab[a], lab[b]
    while np.any(ra != rb):  # hook each root to the least root it is paired with
        np.minimum.at(lab, ra, rb)
        np.minimum.at(lab, rb, ra)
        while np.any(lab[lab] != lab):  # pointer jumping: every element to its root
            lab = lab[lab]
        ra, rb = lab[a], lab[b]
    return lab


def congruence_generated(alg, pairs: Iterable[tuple]) -> Congruence:
    """Smallest congruence containing the given pairs of carrier indices or elements.

    With a Stone certificate it is the kernel of the projection onto the coordinates
    where every pair agrees; without one, _generated_by_rounds computes it.
    """
    ab = np.array([(element_index(alg, a), element_index(alg, b)) for a, b in pairs],
                  dtype=np.int64).reshape(-1, 2).T
    if (cert := stone_certificate(alg)) is None:
        return _generated_by_rounds(alg, ab)
    return _kernel(alg, cert, (cert[ab[0]] == cert[ab[1]]).all(0))


def _generated_by_rounds(alg, ab: np.ndarray) -> Congruence:
    """The congruence generated by the pairs (ab[0][i], ab[1][i]), from the q table alone.

    Whole-table rounds merge q(xs) with q(lab[xs]) wherever their blocks differ: each such
    pair is in the generated congruence (xs ~ lab[xs]), and the fixpoint is compatible.
    """
    lab = np.arange(alg.size)
    while ab[0].size:
        lab = _merge(lab, *ab)
        ab = _violations(alg.q_table(), lab)
    return Congruence(alg, tuple(lab.tolist()))


def _kernel(alg, cert: np.ndarray, keep) -> Congruence:
    """The kernel of the projection of the coordinates cert onto the columns keep marks."""
    return Congruence(alg, tuple(((cert * keep) @ alg.n ** np.arange(cert.shape[1])).tolist()))


def join_congruences(alg, th1: Congruence, th2: Congruence) -> Congruence:
    """The join: transitive closure of the union (a congruence again)."""
    return Congruence(alg, tuple(_merge(th1.least(), np.arange(th2.size), th2.least()).tolist()))


def all_congruences(alg) -> list:
    """Every congruence, sorted by falling block count, then blocks.

    With a Stone certificate over k coordinates they are the 2^k kernels of the
    projections onto sets of coordinates; without one, _congruences_by_pairs finds them.
    """
    size = alg.size
    if size > CARRIER_BOUND:
        raise ValueError(f"carrier size {size} exceeds bound {CARRIER_BOUND}")
    cert = stone_certificate(alg)
    found = _congruences_by_pairs(alg) if cert is None else [
        _kernel(alg, cert, keep) for keep in np.ndindex((2,) * cert.shape[1])]
    return sorted(found, key=lambda t: (-t.num_blocks, t.blocks))


def _congruences_by_pairs(alg) -> list:
    """Every congruence, as joins of the principal ones, from the q table alone."""
    found = {diagonal_congruence(alg).blocks: diagonal_congruence(alg)}
    principal = []
    for a in range(alg.size):
        for b in range(a + 1, alg.size):
            th = _generated_by_rounds(alg, np.array([[a], [b]]))
            if th.blocks not in found:
                found[th.blocks] = th
                principal.append(th)
    frontier = list(found.values())
    while frontier:
        new = []
        for th in frontier:
            for p in principal:
                j = join_congruences(alg, th, p)
                if j.blocks not in found:
                    found[j.blocks] = j
                    new.append(j)
        frontier = new
    return list(found.values())


def stone_certificate(alg) -> Optional[np.ndarray]:
    """The (size, k) coordinates in 0..n-1 of an isomorphism of alg onto n^k, k >= 1, or None.

    With coordinates() (a power or subpower) they are _digits, and no q table is built.  A
    table's are stone_embed's images if they are a bijection onto n^k, which is then an
    isomorphism sending e_k to e_k: each hom passed is_hom_onto_generator (onto 1..n, e_k to k,
    q kept on the whole table), and q on n^k is coordinatewise.  Other tables, and those on
    which the attempt raises ValueError, get None, which refutes nothing.  Cached in alg._cache.
    """
    if "stone" in alg._cache:
        return alg._cache["stone"]
    if (cert := _digits(alg)) is None:
        try:
            emb = stone_embed(alg)
            cert = (np.array(emb.images, dtype=np.int64).reshape(alg.size, -1) - 1
                    if emb.is_isomorphism else None)
        except ValueError:
            cert = None
    alg._cache["stone"] = cert if cert is not None and cert.shape[1] else None
    return alg._cache["stone"]


def _digits(alg) -> Optional[np.ndarray]:
    """alg's indices as digits of its coordinates() n^k, within TABLE_BOUND, or None (a table)."""
    if (power := alg.coordinates()) is not None:
        check_table_bound("the Stone certificate", alg.size, alg.size * power.points)
        return power.digits(np.arange(alg.size))


# -- multideals ---------------------------------------------------------


@dataclass(frozen=True)
class Multideal:
    alg: object = field(compare=False)
    components: tuple  # n frozensets of carrier indices
    degenerate: bool = False
    warning: Optional[str] = field(default=None, compare=False)

    @property
    def carrier(self) -> frozenset:
        return frozenset().union(*self.components)

    @property
    def is_ultra(self) -> bool:
        return not self.degenerate and len(self.carrier) == self.alg.size

    def to_json(self) -> dict:
        if self.degenerate:
            return {"degenerate": True}
        return {
            "degenerate": False,
            "components": [sorted(map(self.alg.element_label, comp)) for comp in self.components],
        }


def degenerate_multideal(alg, warning=None) -> Multideal:
    full = frozenset(range(alg.size))
    return Multideal(alg, (full,) * alg.n, degenerate=True, warning=warning)


def multideal_of(theta: Congruence) -> Multideal:
    """The constant classes (e_1/theta, ..., e_n/theta)."""
    alg = theta.alg
    if theta.is_total:
        return degenerate_multideal(alg, warning="total congruence")
    comps = tuple(theta.block_of(alg.constant_index(k)) for k in range(1, alg.n + 1))
    return Multideal(alg, comps)


@dataclass(frozen=True)
class ValidationResult:
    status: str  # "proper" | "degenerate" | "invalid"
    clause: Optional[str] = None
    witness: Optional[dict] = None

    def __bool__(self):
        return self.status == "proper"


def validate_multideal(alg, candidate) -> ValidationResult:
    """Check m1, disjointness, m2, m3; classify degenerate tuples."""
    n = alg.n
    size = alg.size
    label = alg.element_label  # only the witness's elements are labelled
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
                                        {"element": label(min(inter)),
                                         "components": [r + 1, k + 1]})
    member = np.zeros((n, size), dtype=bool)
    for k in range(n):
        member[k, sorted(comps[k])] = True
    for clause, where, g in _rule_grids(alg, member):
        check_table_bound(f"the {clause} grid", size, math.prod(a.size for a in g))
        res = alg.q_vec(g[0], g[1:])
        bad = np.flatnonzero(~member[where["k"] - 1][res])
        if bad.size:  # the first in C order: the first argument varies slowest
            at = np.unravel_index(bad[0], res.shape)
            a, *ys = (int(grid.ravel()[t]) for grid, t in zip(g, at))
            wit = {"a": label(a), "ys": [label(y) for y in ys], "result": label(int(res[at]))}
            return ValidationResult("invalid", clause, {**wit, **where})
    return ValidationResult("proper")


def _rule_grids(alg, member: np.ndarray):
    """The premises of m2 and m3 as open grids of q's arguments, in checking order.

    member[k - 1] is I_k as a mask.  Yields (clause, where, grid): q over the grid must
    land in I_k, k = where["k"].  m2, for each r and k: a in I_r, branch r in I_k, the
    other branches arbitrary.  m3, for each k: a arbitrary, every branch in I_k.
    """
    n = alg.n
    allv = np.arange(alg.size)
    comps = [np.flatnonzero(m) for m in member]
    for r in range(1, n + 1):
        for k in range(1, n + 1):
            branches = [comps[k - 1] if s == r else allv for s in range(1, n + 1)]
            yield "m2", {"r": r, "k": k}, np.ix_(comps[r - 1], *branches)
    for k in range(1, n + 1):
        yield "m3", {"k": k}, np.ix_(allv, *[comps[k - 1]] * n)


def multideal_from_sets(alg, candidate) -> Multideal:
    res = validate_multideal(alg, candidate)
    if res.status == "degenerate":
        return degenerate_multideal(alg)
    if res.status == "invalid":
        raise ValueError(f"not a multideal: {res.clause} fails at {res.witness}")
    comps = tuple(frozenset(element_index(alg, x) for x in c) for c in candidate)
    return Multideal(alg, comps)


def ideal_closure(alg, seed) -> Multideal:
    """For an nBA, the least multideal containing the seed, or the degenerate one.

    On any table, the constant classes (multideal_of) of the congruence generated by the
    pairs (e_k, x), x in part k of the seed; off the nBAs they need not satisfy m2-m3.
    With a Stone certificate that congruence is the kernel of the projection onto the
    coordinates where each seed element agrees with its constant: degenerate iff none.
    """
    if len(seed) > alg.n:
        raise ValueError(f"a seed has at most {alg.n} parts, got {len(seed)}")
    return multideal_of(congruence_generated(alg, _constant_pairs(alg, seed)))


def _constant_pairs(alg, parts) -> list:
    """The pairs (e_k, x), x in parts[k - 1]."""
    return [(alg.constant_index(k), x) for k, part in enumerate(parts, 1) for x in part]


# -- the multideal <-> congruence bijection ------------------------------


def _coordinate_indices(alg, cp: CenterParams) -> list:
    """coords[k-1][x] = carrier index of x_k = t_k(x, e_i, e_j)."""
    allv = np.arange(alg.size, dtype=np.int64)
    ei, ej = alg.constant_index(cp.i), alg.constant_index(cp.j)
    return [alg.q_vec(allv, t_branches(alg.n, {k}, ei, ej)) for k in range(1, alg.n + 1)]


def _center(alg, cp: CenterParams) -> tuple:
    """The Boolean center B_ij and the stacked _coordinate_indices, built once per (alg, cp)
    and kept in alg._cache."""
    if ("center", cp) not in alg._cache:
        alg._cache["center", cp] = boolean_center(alg, cp), np.stack(_coordinate_indices(alg, cp))
    return alg._cache["center", cp]


def theta_of(ideal: Multideal, cp: CenterParams = CenterParams(1, 2)) -> Congruence:
    """The congruence generated by the pairs (e_k, x), x in I_k: on an nBA, the one whose
    constant classes are I, whatever cp; a kernel read off a Stone certificate if any."""
    if ideal.degenerate:
        raise ValueError("the degenerate multideal induces no proper congruence")
    alg = ideal.alg
    alg.constant_index(cp.i), alg.constant_index(cp.j)  # ValueError for a cp outside 1..n
    return congruence_generated(alg, _constant_pairs(alg, ideal.components))


def all_proper_multideals(alg) -> list:
    return [multideal_of(th) for th in all_congruences(alg) if not th.is_total]


# -- ultramultideals ------------------------------------------------------


def admissible_atoms(alg, ideal: Multideal, cp: CenterParams = CenterParams(1, 2)) -> list:
    """Atoms of B_ij whose principal ultrafilter extends I^*.

    An atom works iff it lies below the complement of join(I_*).
    """
    bc, _ = _center(alg, cp)
    j0 = bc.table.zero  # join(I_* within the Boolean center), as a local index
    for t in bc.loc[sorted(ideal.components[cp.i - 1])]:
        if t >= 0:
            j0 = int(bc.table.join[j0, t])
    negj0 = int(bc.table.neg[j0])
    return [a for a in bc.atoms() if int(bc.table.meet[a, negj0]) == a]


def extend_to_ultra(alg, ideal: Multideal, cp: CenterParams = CenterParams(1, 2),
                    atom: Optional[int] = None, admissible: Optional[list] = None) -> Multideal:
    """G_k = {x : x_k in the principal ultrafilter over the chosen admissible atom}."""
    bc, coords = _center(alg, cp)
    if ideal.degenerate:
        raise ValueError("cannot extend the degenerate multideal")
    admissible = admissible_atoms(alg, ideal, cp) if admissible is None else admissible
    if atom is None:
        if not admissible:
            raise ValueError("no admissible atom")
        atom = admissible[0]
    elif atom not in admissible:
        raise ValueError(f"atom {atom} does not extend the multideal")
    above = bc.table.meet[atom, bc.local(coords)] == atom  # atom <= x_k
    first = np.where(above.any(0), above.argmax(0), -1)  # x joins G_k for its least such k
    comps = (frozenset(np.flatnonzero(first == k).tolist()) for k in range(alg.n))
    out = Multideal(alg, tuple(comps))
    if not out.is_ultra:
        raise ValueError("the extension does not cover the carrier")
    if not all(ideal.components[k] <= out.components[k] for k in range(alg.n)):
        raise ValueError("the extension does not contain the multideal")
    return out


def all_ultramultideals(alg) -> list:
    """One ultramultideal per atom of the Boolean center B_12."""
    cp = CenterParams(1, 2)
    bc, _ = _center(alg, cp)  # before the constants, which list a large power's elements
    minimum = Multideal(alg, tuple(frozenset({alg.constant_index(k)}) for k in range(1, alg.n + 1)))
    admissible, seen = admissible_atoms(alg, minimum, cp), {}
    for atom in bc.atoms():
        u = extend_to_ultra(alg, minimum, cp, atom, admissible)
        seen.setdefault(u.components, u)
    return sorted(seen.values(), key=lambda u: tuple(sorted(u.components[0])))


def hom_of_ultra(ideal: Multideal) -> tuple:
    """The induced map onto generator(n): h[x] = the k with x in G_k."""
    if not ideal.is_ultra:
        raise ValueError("not an ultramultideal")
    h = [0] * ideal.alg.size
    for k, comp in enumerate(ideal.components, start=1):
        for x in comp:
            h[x] = k
    if not is_hom_onto_generator(ideal.alg, tuple(h)):
        raise ValueError("the ultramultideal induces no homomorphism onto the generator")
    return tuple(h)


def ultra_of_hom(alg, h: Sequence[int]) -> Multideal:
    """The ultramultideal (h^-1(1), ..., h^-1(n)) of a hom h onto generator(n)."""
    if not is_hom_onto_generator(alg, h):
        raise ValueError("not a homomorphism onto the generator")
    comps = [set() for _ in range(alg.n)]
    for x, k in enumerate(h):
        comps[k - 1].add(x)
    return Multideal(alg, tuple(frozenset(c) for c in comps))


def _preserves_q(alg, img: np.ndarray, target) -> bool:
    """img[q(x, ys)] == q(img[x], img[ys]) in target, over alg's whole cached q table."""
    args = np.ix_(*[img] * (alg.n + 1))  # open grids: the target's q broadcasts them
    return bool(np.array_equal(img[alg.q_table()], target.q_vec(args[0], args[1:])))


def is_hom_onto_generator(alg, h: Sequence[int]) -> bool:
    """h maps carrier indices to 1..n; check surjective q-homomorphism."""
    n = alg.n
    if len(h) != alg.size:
        raise ValueError(f"a map on {alg.size} elements needs {alg.size} images, got {len(h)}")
    hv = np.asarray(h, dtype=np.int64)
    if set(h) != set(range(1, n + 1)):
        return False
    for k in range(1, n + 1):
        if hv[alg.constant_index(k)] != k:
            return False
    return _preserves_q(alg, hv - 1, generator(n))  # e_k is index k-1 of the generator


def all_homs_onto_generator(alg) -> list:
    """The homs onto generator(n), sorted: with a Stone certificate its coordinate
    projections, without one the homs of the ultramultideals (_ultra_homs).

    Homs that separate the points embed alg in a power n^k, so alg is an nBA and
    the bijection with its ultramultideals makes the list complete; homs that do
    not separate them prove nothing, and the list is refused.
    """
    cert = stone_certificate(alg)
    homs = _ultra_homs(alg) if cert is None else list(map(tuple, (cert.T + 1).tolist()))
    if len({tuple(h[x] for h in homs) for x in range(alg.size)}) < alg.size:
        raise ValueError(f"not an nBA: its {len(homs)} homs onto generator({alg.n}) "
                         f"do not separate its {alg.size} elements")
    return sorted(homs)


def _ultra_homs(alg) -> list:
    """The homs of the ultramultideals onto generator(n), in all_ultramultideals' order
    (by the fibre of 1), kept in alg._cache with any ValueError raised.  With coordinates()
    (a power or subpower) they are its _digits columns plus 1, the projections, when these
    send each e_k to k; otherwise hom_of_ultra of each ultramultideal, checked on the q table."""
    if "ultra_homs" not in alg._cache:
        try:
            # the Boolean center's bound, though none is built here: it alone keeps nba embed's
            # refusals of 2^10 and 2^40 at the t table, where nba ultras stops
            check_table_bound("a t table", alg.size, alg.size**3)
            digits = _digits(alg)
            if digits is not None and all((digits[alg.constant_index(k)] == k - 1).all()
                                          for k in range(1, alg.n + 1)):
                cols = sorted(digits.T, key=lambda d: tuple(np.flatnonzero(d == 0).tolist()))
                alg._cache["ultra_homs"] = [tuple((d + 1).tolist()) for d in cols]
            else:
                alg._cache["ultra_homs"] = [hom_of_ultra(u) for u in all_ultramultideals(alg)]
        except ValueError as exc:
            alg._cache["ultra_homs"] = exc
    homs = alg._cache["ultra_homs"]
    if isinstance(homs, ValueError):
        raise homs
    return list(homs)


def is_prime(alg, ideal: Multideal, cp: CenterParams = CenterParams(1, 2)) -> bool:
    """x meet_i y in I_i forces x in I_i or y in I_i, over all pairs: meet_i(x, y) =
    t_i(x, y, 0_i) is one q_vec over the open grid of pairs, held to TABLE_BOUND."""
    if ideal.degenerate:
        raise ValueError("primality is about proper multideals")
    i, size = cp.i, alg.size
    zero = alg.constant_index(i)
    check_table_bound("the meet table", size, size * size)
    x, y = np.ix_(range(size), range(size))
    meet = alg.q_vec(x, t_branches(alg.n, {i}, y, zero))
    inside = np.zeros(size, dtype=bool)
    inside[sorted(ideal.components[i - 1])] = True
    return not np.any(inside[meet] & ~inside[:, None] & ~inside)


# -- Stone embedding ------------------------------------------------------


@dataclass(frozen=True)
class StoneEmbedding:
    alg: object
    target: PowerAlgebra
    images: tuple  # target Element per source carrier index

    @property
    def injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    @property
    def is_isomorphism(self) -> bool:
        return self.injective and len(self.images) == self.target.size

    def preserves_q(self) -> bool:
        """img[q(x, ys)] == q(img[x], img[ys]) over the source's whole q table."""
        return _preserves_q(self.alg, self.target.indices(self.images), self.target)


def stone_embed(alg) -> StoneEmbedding:
    """x maps to the tuple of its images under the ultramultideal homs (_ultra_homs), in
    n^k: alg's coordinates() (so preserves_q reads its one q table), or a new n^k for a table."""
    homs = _ultra_homs(alg)
    images = tuple(tuple(h[x] for h in homs) for x in range(alg.size))
    target = alg.coordinates()
    return StoneEmbedding(alg, PowerAlgebra(alg.n, len(homs)) if target is None else target, images)


# -- the Boolean (n = 2) specialisation ------------------------------------


def boolean_ideal_filter_view(alg, ideal: Multideal):
    """For a 2-dimensional algebra: (I_2 as Boolean ideal, I_1 as filter).

    The Boolean structure is the center B_21, which is the whole carrier of a 2BA:
    1 = e_1 and 0 = e_2, with x /\\ y = q(x,y,0), x \\/ y = q(x,1,y), -x = q(x,0,1).
    """
    if alg.n != 2:
        raise DimensionError(f"Boolean view needs dimension 2, got {alg.n}")
    if ideal.degenerate:
        raise ValueError("degenerate multideal")
    bc, _ = _center(alg, CenterParams(2, 1))
    if bc.size != alg.size:
        raise ValueError(f"not a 2BA: its Boolean center has {bc.size} of {alg.size} elements")
    ba = bc.table  # local indices are carrier indices, since the center is everything
    i2, i1, negs = (np.zeros(alg.size, dtype=bool) for _ in range(3))
    i2[sorted(ideal.components[1])] = True
    i1[sorted(ideal.components[0])] = True
    negs[ba.neg[i2]] = True
    laws = (
        ("the ideal holds 0", i2[ba.zero]),
        ("the ideal is closed under join", i2[gather(ba.join, np.ix_(i2, i2))].all()),
        ("the ideal is downward closed", i2[ba.meet[:, i2]].all()),
        ("the filter is the ideal's negations", np.array_equal(i1, negs)),
        ("the filter is closed under meet", i1[gather(ba.meet, np.ix_(i1, i1))].all()),
        ("the filter is upward closed", i1[ba.join[:, i1]].all()),
    )
    for law, holds in laws:
        if not holds:
            raise ValueError(f"Boolean view fails: {law}")
    return (frozenset(ideal.components[1]), frozenset(ideal.components[0]))
