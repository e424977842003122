"""Skew algebras of partial functions and their embedding into powers.

A partial function on a finite point set X takes values in {1, 2}.  Read
undefined, 1 and 2 as e_1, e_2 and e_3: the algebra of all 3^|X| of them is
the skew 1-reduct of the full power 3^|X|, and on one point it is the skew
1-reduct of the generator 3.  The star map sends f to the n-partition
(f^-1(1), f^-1(2), ..., X - dom(f) at slot i, ...) inside the skew
i-reduct of the full power n^|X|; it relabels each point e_1 -> e_i,
e_2 -> e_1, e_3 -> e_2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .core import Element, generator, power_algebra
from .skew import SkewTable, reduct
from .terms import BINARY, SKEW_KINDS, t_branches


@dataclass(frozen=True)
class PartialFn:
    points: int
    values: tuple  # per point: 0 = undefined, otherwise 1 or 2

    def __post_init__(self):
        if len(self.values) != self.points:
            raise ValueError("value vector length mismatch")
        for v in self.values:
            if v not in (0, 1, 2):
                raise ValueError(f"value {v} not in {{0,1,2}}")

    @property
    def domain(self) -> frozenset:
        return frozenset(p for p, v in enumerate(self.values) if v)

    def __call__(self, p: int) -> int:
        if not self.values[p]:
            raise KeyError(f"point {p} outside the domain")
        return self.values[p]

    def label(self) -> str:
        return "{" + ",".join(f"{p}:{v}" for p, v in enumerate(self.values) if v) + "}"


POINT_BOUND = 5  # 3^5 partial functions


def all_partial_fns(points: int) -> list:
    if not 0 <= points <= POINT_BOUND:
        raise ValueError(f"point count {points} out of 0..{POINT_BOUND}")
    return [PartialFn(points, vals)
            for vals in itertools.product((0, 1, 2), repeat=points)]


def _t1(*args) -> PartialFn:
    """t_1 at every point: one q_vec in generator(3), whose codes 0, 1, 2 (e_1, e_2, e_3) are
    the values undefined, 1, 2.  An argument is a PartialFn or the code 0 of 0_1."""
    points = {a.points for a in args if isinstance(a, PartialFn)}
    if len(points) > 1:
        raise ValueError("value vector length mismatch")
    x, y, z = (np.array(getattr(a, "values", a), dtype=np.int64) for a in args)
    return PartialFn(points.pop(), tuple(generator(3).q_vec(x, t_branches(3, {1}, y, z)).tolist()))


def pf_meet(f: PartialFn, g: PartialFn) -> PartialFn:
    """f /\\ g = g restricted to dom(g) & dom(f)."""
    return _t1(*BINARY["and"](f, g, 0, None))


def pf_join(f: PartialFn, g: PartialFn) -> PartialFn:
    """f \\/ g = f together with g outside dom(f)."""
    return _t1(*BINARY["bv"](f, g, 0, None))


def pf_minus(g: PartialFn, f: PartialFn) -> PartialFn:
    """g \\ f = g restricted outside dom(f)."""
    return _t1(*BINARY["sub"](g, f, 0, None))


def pf_q(f: PartialFn, g: PartialFn, h: PartialFn) -> PartialFn:
    """q(f,g,h) = g on dom(g) & dom(f), h on dom(h) - dom(f)."""
    return _t1(f, g, h)


def partial_fn_algebra(points: int) -> SkewTable:
    """The skew BA of all partial functions on a point set, with its q; index = code."""
    labels = tuple(f.label() for f in all_partial_fns(points))
    return replace(reduct(power_algebra(3, points), "skew", 1), labels=labels)


def star_embed(f: PartialFn, n: int, i: int) -> Element:
    """The n-partition with blocks f^-1(1), f^-1(2) and the co-domain at i."""
    if n < 3:
        raise ValueError("the star map needs dimension >= 3")
    if not 1 <= i <= n:
        raise ValueError(f"slot index {i} out of 3..{n}")
    if i in (1, 2):
        raise ValueError(f"slot index {i} must avoid the value indices 1, 2")
    return tuple(v if v else i for v in f.values)


@dataclass(frozen=True)
class EmbeddingReport:
    ok: bool
    injective: bool
    failure: dict = None


def _skew_ops(alg, i: int, codes: np.ndarray) -> np.ndarray:
    """and, bv and sub of the full power alg's skew i-reduct on all pairs of codes, stacked last."""
    zero = np.ravel_multi_index((i - 1,) * alg.points, (alg.n,) * alg.points)  # e_i
    return np.stack([alg.q_vec(x, t_branches(alg.n, {i}, y, z)) for x, y, z in
                     (BINARY[k](codes[:, None], codes, zero, None) for k in SKEW_KINDS)], -1)


def verify_embedding(points: int, n: int, i: int) -> EmbeddingReport:
    """Check that * carries the three skew operations to the skew i-reduct."""
    fns = all_partial_fns(points)
    alg = power_algebra(n, points)
    stars = [star_embed(f, n, i) for f in fns]
    if alg.size >= 1 << 63:
        raise ValueError(f"the codes of {n}^{points} overflow 64 bits")
    img = np.ravel_multi_index(np.array(stars).T - 1, (n,) * points).reshape(-1)  # base-n codes
    pf = _skew_ops(power_algebra(3, points), 1, np.arange(len(fns)))
    got = _skew_ops(alg, i, img)
    bad = np.argwhere(img[pf] != got)  # the first is f slowest, then g, then the op
    injective = len(set(stars)) == len(fns)
    if not bad.size:
        return EmbeddingReport(injective, injective)
    a, b, k = bad[0]
    return EmbeddingReport(False, injective, {
        "op": ("meet", "barvee", "minus")[k], "f": fns[a].label(), "g": fns[b].label(),
        "expected": stars[pf[a, b, k]],
        "got": tuple(int(v) + 1 for v in np.unravel_index(got[a, b, k], (n,) * points))})
