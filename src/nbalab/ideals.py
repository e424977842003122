"""Congruences, multideals, their bijection, ultramultideals, Stone embedding.

All carriers are small and finite; congruences are stored as a block
index per carrier element with canonical first-occurrence labelling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import DimensionError, PowerAlgebra, TableAlgebra, element_index, generator
from .skew import boolean_center, reduct, _label_tuple
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
    """Congruence from an equivalence relation given as a boolean matrix."""
    size = rel.shape[0]
    blocks = [-1] * size
    nxt = 0
    for a in range(size):
        if blocks[a] == -1:
            for b in range(a, size):
                if rel[a, b]:
                    blocks[b] = nxt
            nxt += 1
    return Congruence(alg, tuple(blocks))


def diagonal_congruence(alg) -> Congruence:
    return Congruence(alg, tuple(range(alg.size)))


def total_congruence(alg) -> Congruence:
    return Congruence(alg, (0,) * alg.size)


def _violations(tab: np.ndarray, lab: np.ndarray) -> tuple:
    """The pairs (lab[q(xs)], lab[q(lab[xs])]) that differ; none iff lab's blocks are compatible."""
    img = lab[tab]
    rep = img[np.ix_(*[lab] * tab.ndim)]
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


def _grid_q(alg, arrays):
    """q over a meshgrid of index arrays; returns flat result array."""
    grids = np.meshgrid(*arrays, indexing="ij")
    flat = [g.ravel() for g in grids]
    return alg.q_vec(flat[0], flat[1:]), flat


def congruence_generated(alg, pairs: Iterable[tuple]) -> Congruence:
    """Smallest congruence containing the given pairs of carrier indices or elements.

    Whole-table rounds merge q(xs) with q(lab[xs]) wherever their blocks differ: each such
    pair is in the generated congruence (xs ~ lab[xs]), and the fixpoint is compatible.
    """
    ab = np.array([(element_index(alg, a), element_index(alg, b)) for a, b in pairs],
                  dtype=np.int64).reshape(-1, 2).T
    lab = np.arange(alg.size)
    while ab[0].size:
        lab = _merge(lab, *ab)
        ab = _violations(alg.q_table(), lab)
    return Congruence(alg, tuple(lab.tolist()))


def join_congruences(alg, th1: Congruence, th2: Congruence) -> Congruence:
    """The join: transitive closure of the union (a congruence again)."""
    return Congruence(alg, tuple(_merge(th1.least(), np.arange(th2.size), th2.least()).tolist()))


def all_congruences(alg, bound: int = CARRIER_BOUND) -> list:
    """Every congruence, as joins of principal ones; deterministic order."""
    size = alg.size
    if size > bound:
        raise ValueError(f"carrier size {size} exceeds bound {bound}")
    found = {diagonal_congruence(alg).blocks: diagonal_congruence(alg)}
    principal = []
    for a in range(size):
        for b in range(a + 1, size):
            th = congruence_generated(alg, [(a, b)])
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
    return sorted(found.values(), key=lambda t: (-t.num_blocks, t.blocks))


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

    def component_of(self, x: int) -> Optional[int]:
        for k, comp in enumerate(self.components, start=1):
            if x in comp:
                return k
        return None

    def to_json(self) -> dict:
        labels = _label_tuple(self.alg)
        if self.degenerate:
            return {"degenerate": True}
        return {
            "degenerate": False,
            "components": [sorted(labels[x] for x in comp) for comp in self.components],
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


def multideal_from_sets(alg, candidate) -> Multideal:
    res = validate_multideal(alg, candidate)
    if res.status == "degenerate":
        return degenerate_multideal(alg)
    if res.status == "invalid":
        raise ValueError(f"not a multideal: {res.clause} fails at {res.witness}")
    comps = tuple(frozenset(element_index(alg, x) for x in c) for c in candidate)
    return Multideal(alg, comps)


def ideal_closure(alg, seed) -> Multideal:
    """Least multideal containing the seed, or the degenerate one."""
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


# -- the multideal <-> congruence bijection ------------------------------


def _coordinate_indices(alg, cp: CenterParams) -> list:
    """coords[k-1][x] = carrier index of x_k = t_k(x, e_i, e_j)."""
    size = alg.size
    allv = np.arange(size, dtype=np.int64)
    ei = np.full(size, alg.constant_index(cp.i), dtype=np.int64)
    ej = np.full(size, alg.constant_index(cp.j), dtype=np.int64)
    out = []
    for k in range(1, alg.n + 1):
        branches = [ej if s == k else ei for s in range(1, alg.n + 1)]
        out.append(alg.q_vec(allv, branches))
    return out


def theta_of(ideal: Multideal, cp: CenterParams = CenterParams(1, 2)) -> Congruence:
    """x ~ y iff all coordinates agree in the Boolean center modulo I_*."""
    if ideal.degenerate:
        raise ValueError("the degenerate multideal induces no proper congruence")
    alg = ideal.alg
    bc = boolean_center(alg, cp)
    loc = {a: t for t, a in enumerate(bc.members)}
    i_star = [loc[a] for a in bc.members if a in ideal.components[cp.i - 1]]
    # the quotient by the principal ideal of join(I_*): x maps to x /\ -j0
    j0 = bc.table.zero
    for a in i_star:
        j0 = int(bc.table.join[j0, a])
    negj0 = int(bc.table.neg[j0])
    coords = _coordinate_indices(alg, cp)
    size = alg.size
    sig = []
    for x in range(size):
        sig.append(tuple(int(bc.table.meet[loc[int(coords[k][x])], negj0])
                         for k in range(alg.n)))
    groups = {}
    blocks = []
    for s in sig:
        blocks.append(groups.setdefault(s, len(groups)))
    return Congruence(alg, tuple(blocks))


def all_proper_multideals(alg, bound: int = CARRIER_BOUND) -> list:
    return [multideal_of(th) for th in all_congruences(alg, bound) if not th.is_total]


# -- ultramultideals ------------------------------------------------------


def admissible_atoms(alg, ideal: Multideal, cp: CenterParams = CenterParams(1, 2)) -> list:
    """Atoms of B_ij whose principal ultrafilter extends I^*.

    An atom works iff it lies below the complement of join(I_*).
    """
    return _admissible_atoms(boolean_center(alg, cp), ideal, cp)


def _admissible_atoms(bc, ideal: Multideal, cp: CenterParams) -> list:
    loc = {a: t for t, a in enumerate(bc.members)}
    j0 = bc.table.zero
    for a in bc.members:
        if a in ideal.components[cp.i - 1]:
            j0 = int(bc.table.join[j0, loc[a]])
    negj0 = int(bc.table.neg[j0])
    return [a for a in bc.atoms() if int(bc.table.meet[a, negj0]) == a]


def extend_to_ultra(alg, ideal: Multideal, cp: CenterParams = CenterParams(1, 2),
                    atom: Optional[int] = None) -> Multideal:
    """G_k = {x : x_k in the principal ultrafilter over the chosen atom}."""
    return _extend_to_ultra(alg, ideal, cp, atom, boolean_center(alg, cp),
                            _coordinate_indices(alg, cp))


def _extend_to_ultra(alg, ideal: Multideal, cp: CenterParams, atom: Optional[int],
                     bc, coords: list) -> Multideal:
    """extend_to_ultra on a built Boolean center and coordinate table."""
    if ideal.degenerate:
        raise ValueError("cannot extend the degenerate multideal")
    admissible = _admissible_atoms(bc, ideal, cp)
    if atom is None:
        if not admissible:
            raise ValueError("no admissible atom")
        atom = admissible[0]
    elif atom not in admissible:
        raise ValueError(f"atom {atom} does not extend the multideal")
    loc = {a: t for t, a in enumerate(bc.members)}
    size = alg.size
    comps = [set() for _ in range(alg.n)]
    for x in range(size):
        for k in range(alg.n):
            ck = loc[int(coords[k][x])]
            if int(bc.table.meet[atom, ck]) == atom:  # atom <= x_k
                comps[k].add(x)
                break
    out = Multideal(alg, tuple(frozenset(c) for c in comps))
    if not out.is_ultra:
        raise ValueError("the extension does not cover the carrier")
    if not all(ideal.components[k] <= out.components[k] for k in range(alg.n)):
        raise ValueError("the extension does not contain the multideal")
    return out


def all_ultramultideals(alg, cp: CenterParams = CenterParams(1, 2)) -> list:
    """One ultramultideal per atom of the Boolean center."""
    bc = boolean_center(alg, cp)
    coords = _coordinate_indices(alg, cp)
    minimum = Multideal(
        alg, tuple(frozenset({alg.constant_index(k)}) for k in range(1, alg.n + 1))
    )
    seen = {}
    for atom in bc.atoms():
        u = _extend_to_ultra(alg, minimum, cp, atom, bc, coords)
        seen.setdefault(u.components, u)
    return sorted(seen.values(), key=lambda u: tuple(sorted(u.components[0])))


def hom_of_ultra(ideal: Multideal) -> tuple:
    """The induced map onto generator(n): h[x] = the k with x in G_k."""
    if not ideal.is_ultra:
        raise ValueError("not an ultramultideal")
    alg = ideal.alg
    size = alg.size
    h = [0] * size
    for k, comp in enumerate(ideal.components, start=1):
        for x in comp:
            h[x] = k
    if not is_hom_onto_generator(alg, tuple(h)):
        raise ValueError("the ultramultideal induces no homomorphism onto the generator")
    return tuple(h)


def ultra_of_hom(alg, h: Sequence[int]) -> Multideal:
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
    hv = np.asarray(h, dtype=np.int64)
    if set(h) != set(range(1, n + 1)):
        return False
    for k in range(1, n + 1):
        if hv[alg.constant_index(k)] != k:
            return False
    return _preserves_q(alg, hv - 1, generator(n))  # e_k is index k-1 of the generator


def all_homs_onto_generator(alg) -> list:
    """Backtracking over images of a generating set, closure-extended."""
    n = alg.n
    size = alg.size
    gens = _generating_set(alg)
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
            h = _extend_hom(alg, h)
            if h is not None and set(h.tolist()) == set(range(1, n + 1)):
                out.append(tuple(int(v) for v in h))
    return sorted(set(out))


def _generating_set(alg) -> list:
    from .core import subalgebra_closure

    if isinstance(alg, TableAlgebra):
        raise TypeError("hom enumeration needs a power algebra")
    gens = []
    current = subalgebra_closure(alg, [])
    els = alg.elements()
    while current.size < alg.size:
        for e in els:
            if e not in current:
                gens.append(alg.index(e))
                current = subalgebra_closure(alg, [els[g] for g in gens])
                break
    return gens


def _extend_hom(alg, h: np.ndarray):
    """Propagate h over q until total; None on conflict or incompleteness."""
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


def is_prime(alg, ideal: Multideal, cp: CenterParams = CenterParams(1, 2)) -> bool:
    """x meet_i y in I_i forces x in I_i or y in I_i, over all pairs."""
    if ideal.degenerate:
        raise ValueError("primality is about proper multideals")
    i = cp.i
    sk = reduct(alg, "skew", i=i)
    comp = ideal.components[i - 1]
    size = sk.size
    for x in range(size):
        for y in range(size):
            if int(sk.meet[x, y]) in comp and x not in comp and y not in comp:
                return False
    return True


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
        img = np.asarray([self.target.index(e) for e in self.images], dtype=np.int64)
        return _preserves_q(self.alg, img, self.target)


def stone_embed(alg, cp: CenterParams = CenterParams(1, 2)) -> StoneEmbedding:
    """x maps to the tuple of its images under all ultramultideal homs."""
    ultras = all_ultramultideals(alg, cp)
    homs = [hom_of_ultra(u) for u in ultras]
    size = alg.size
    target = PowerAlgebra(alg.n, len(homs))
    images = tuple(tuple(h[x] for h in homs) for x in range(size))
    return StoneEmbedding(alg, target, images)


# -- the Boolean (n = 2) specialisation ------------------------------------


def boolean_ideal_filter_view(alg, ideal: Multideal):
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
