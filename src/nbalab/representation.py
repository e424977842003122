"""Skew algebras of partial functions and their embedding into powers.

A partial function on a finite point set X takes values in {1, 2}.  Each
operation is a table on the one-point functions 0 (undefined), 1 and 2;
the algebra of all 3^|X| of them is the |X|-th power of those tables.  The
star map sends f to the n-partition (f^-1(1), f^-1(2), ..., X - dom(f) at
slot i, ...) inside the skew i-reduct of the full power.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import Element, power_algebra
from .skew import SkewTable
from .terms import BINARY, t_branches


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

    def to_json(self) -> dict:
        return {str(p): v for p, v in enumerate(self.values) if v}


POINT_BOUND = 5  # 3^5 partial functions


def all_partial_fns(points: int) -> list:
    if not 0 <= points <= POINT_BOUND:
        raise ValueError(f"point count {points} out of 0..{POINT_BOUND}")
    return [PartialFn(points, vals)
            for vals in itertools.product((0, 1, 2), repeat=points)]


MEET = np.array([[0, 0, 0], [0, 1, 2], [0, 1, 2]])
JOIN = np.array([[0, 1, 2], [1, 1, 1], [2, 2, 2]])
MINUS = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]])  # MINUS[g, f] = g \ f
Q = np.array([[[0, 1, 2]] * 3] + [[[0] * 3, [1] * 3, [2] * 3]] * 2)


def _pointwise(table: np.ndarray, *fns: PartialFn) -> PartialFn:
    return PartialFn(fns[0].points, tuple(int(table[vs]) for vs in zip(*(f.values for f in fns))))


def pf_meet(f: PartialFn, g: PartialFn) -> PartialFn:
    """f /\\ g = g restricted to dom(g) & dom(f)."""
    return _pointwise(MEET, f, g)


def pf_join(f: PartialFn, g: PartialFn) -> PartialFn:
    """f \\/ g = f together with g outside dom(f)."""
    return _pointwise(JOIN, f, g)


def pf_minus(g: PartialFn, f: PartialFn) -> PartialFn:
    """g \\ f = g restricted outside dom(f)."""
    return _pointwise(MINUS, g, f)


def pf_q(f: PartialFn, g: PartialFn, h: PartialFn) -> PartialFn:
    """q(f,g,h) = g on dom(g) & dom(f), h on dom(h) - dom(f)."""
    return _pointwise(Q, f, g, h)


def _power(table: np.ndarray, points: int) -> np.ndarray:
    """The points-th power of a one-point table on base-3 codes (point 0 leads)."""
    codes = np.ix_(*[np.arange(3**points)] * table.ndim)
    out = np.zeros((3**points,) * table.ndim, dtype=np.int64)
    for p in range(points):  # one gather per point: the digit of weight 3^p
        out += (table * 3**p)[tuple(c // 3**p % 3 for c in codes)]
    return out


def partial_fn_algebra(points: int) -> SkewTable:
    """The skew BA of all partial functions on a point set, with its q; index = code."""
    labels = tuple(f.label() for f in all_partial_fns(points))
    meet, join, minus, q3 = (_power(t, points) for t in (MEET, JOIN, MINUS, Q))
    return SkewTable(len(labels), meet, join, minus, 0, labels, q3=q3)


def star_embed(f: PartialFn, n: int, i: int) -> Element:
    """The n-partition with blocks f^-1(1), f^-1(2) and the co-domain at i."""
    if n < 3:
        raise ValueError("the star map needs dimension >= 3")
    if i in (1, 2) or not 1 <= i <= n:
        raise ValueError(f"slot index {i} must avoid the value indices 1, 2")
    return tuple(v if v else i for v in f.values)


@dataclass(frozen=True)
class EmbeddingReport:
    ok: bool
    injective: bool
    failure: dict = None


def verify_embedding(points: int, n: int, i: int) -> EmbeddingReport:
    """Check that * carries the three skew operations to the skew i-reduct."""
    fns = all_partial_fns(points)
    alg = power_algebra(n, points)
    stars = [star_embed(f, n, i) for f in fns]
    if alg.size >= 1 << 63:
        raise ValueError(f"the codes of {n}^{points} overflow 64 bits")
    img = np.ravel_multi_index(np.array(stars).T - 1, (n,) * points).reshape(-1)  # base-n codes
    zero = np.ravel_multi_index((i - 1,) * points, (n,) * points)  # e_i
    ops = {"meet": (MEET, "and"), "barvee": (JOIN, "bv"), "minus": (MINUS, "sub")}
    pf = np.stack([_power(tab, points) for tab, _ in ops.values()], -1)
    got = np.stack([alg.q_vec(x, t_branches(n, {i}, y, z)) for x, y, z in
                    (BINARY[kind](img[:, None], img, zero, None) for _, kind in ops.values())], -1)
    bad = np.argwhere(img[pf] != got)  # the first is f slowest, then g, then the op
    injective = len(set(stars)) == len(fns)
    if not bad.size:
        return EmbeddingReport(injective, injective)
    a, b, k = bad[0]
    return EmbeddingReport(False, injective, {
        "op": list(ops)[k], "f": fns[a].label(), "g": fns[b].label(),
        "expected": stars[pf[a, b, k]],
        "got": tuple(int(v) + 1 for v in np.unravel_index(got[a, b, k], (n,) * points))})
