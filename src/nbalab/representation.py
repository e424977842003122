"""Skew algebras of partial functions and their embedding into powers.

A partial function on a finite point set X takes values in {1, 2}.  The
carrier of the partial-function algebra is all 3^|X| of them; the star
map sends f to the n-partition (f^-1(1), f^-1(2), ..., X - dom(f) at
slot i, ...) inside the skew i-reduct of the full power.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import Element, PowerAlgebra, power_algebra
from .skew import SkewTable
from .transforms import derived_bin


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


POINT_BOUND = 5  # 3^5 partial functions; verify_embedding checks 3 * 3^10 pairs


def all_partial_fns(points: int) -> list:
    if not 0 <= points <= POINT_BOUND:
        raise ValueError(f"point count {points} out of 0..{POINT_BOUND}")
    return [PartialFn(points, vals)
            for vals in itertools.product((0, 1, 2), repeat=points)]


def pf_meet(f: PartialFn, g: PartialFn) -> PartialFn:
    """f /\\ g = g restricted to dom(g) & dom(f)."""
    return PartialFn(f.points, tuple(
        gv if fv and gv else 0 for fv, gv in zip(f.values, g.values)))


def pf_join(f: PartialFn, g: PartialFn) -> PartialFn:
    """f \\/ g = f together with g outside dom(f)."""
    return PartialFn(f.points, tuple(
        fv if fv else gv for fv, gv in zip(f.values, g.values)))


def pf_minus(g: PartialFn, f: PartialFn) -> PartialFn:
    """g \\ f = g restricted outside dom(f)."""
    return PartialFn(g.points, tuple(
        gv if gv and not fv else 0 for gv, fv in zip(g.values, f.values)))


def pf_q(f: PartialFn, g: PartialFn, h: PartialFn) -> PartialFn:
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


def partial_fn_algebra(points: int) -> SkewTable:
    """The skew BA of all partial functions on a point set, with its q."""
    fns = all_partial_fns(points)
    idx = {f.values: t for t, f in enumerate(fns)}
    s = len(fns)
    meet = np.zeros((s, s), dtype=np.int64)
    join = np.zeros((s, s), dtype=np.int64)
    minus = np.zeros((s, s), dtype=np.int64)
    q3 = np.zeros((s, s, s), dtype=np.int64)
    for a, f in enumerate(fns):
        for b, g in enumerate(fns):
            meet[a, b] = idx[pf_meet(f, g).values]
            join[a, b] = idx[pf_join(f, g).values]
            minus[a, b] = idx[pf_minus(f, g).values]  # minus[a,b] = f \ g
            for c, h in enumerate(fns):
                q3[a, b, c] = idx[pf_q(f, g, h).values]
    zero = idx[(0,) * points]
    labels = tuple(f.label() for f in fns)
    return SkewTable(s, meet, join, minus, zero, labels, q3=q3)


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
    stars = {f.values: star_embed(f, n, i) for f in fns}
    injective = len(set(stars.values())) == len(fns)
    pf_ops = {"meet": pf_meet, "barvee": pf_join, "minus": pf_minus}
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
