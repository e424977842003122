"""Derived operations on top of the fundamental selector.

t_d, the five binary operations, signature translations, the symmetric
group action, coordinates relative to a Boolean center, the symmetric
difference +_i, and coordinate reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Element, PowerAlgebra, ShapeError
from . import terms
from .terms import Bin, Const, T, Term, TermError


@dataclass(frozen=True)
class CenterParams:
    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("center parameters must be distinct")


@dataclass(frozen=True)
class Permutation:
    images: tuple  # images[k-1] = sigma(k), a bijection on 1..n

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(k) = self(other(k))."""
        return Permutation(tuple(self(other(k)) for k in range(1, len(self.images) + 1)))


def transposition(n: int, r: int, k: int) -> Permutation:
    images = list(range(1, n + 1))
    images[r - 1], images[k - 1] = k, r
    return Permutation(tuple(images))


def all_permutations(n: int):
    import itertools

    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


# -- t_d and the binary operations ---------------------------------------


def _index_set(d, n: int) -> frozenset:
    """d as a frozenset; ValueError unless it is a nonempty subset of 1..n."""
    d = frozenset(d)
    if not d:
        raise ValueError("index set must be nonempty")
    if not d <= set(range(1, n + 1)):
        raise ValueError(f"index set {sorted(d)} not within 1..{n}")
    return d


def t_eval(d, x: Element, y: Element, z: Element, alg: PowerAlgebra) -> Element:
    """t_d(x,y,z) = q(x, y outside d, z inside d)."""
    return alg.q(tuple(x), terms.t_branches(alg.n, _index_set(d, alg.n), y, z))


# derived_bin's name for each kind of terms.BINARY
BIN_NAMES = {"meet": "and", "join": "or", "minus": "sub", "barwedge": "bw", "barvee": "bv"}


def derived_bin(kind: str, d, x: Element, y: Element, alg: PowerAlgebra,
                i: int = None, j: int = None) -> Element:
    """The five binary operations of BIN_NAMES; i defaults to min(d), j to min outside d."""
    if kind not in BIN_NAMES:
        raise ValueError(f"unknown binary kind {kind!r}")
    d = _index_set(d, alg.n)
    outside = set(range(1, alg.n + 1)) - d
    if kind == "join" and not outside:
        raise ValueError("join needs an index outside d")
    if (i is not None and i not in d) or (j is not None and j in d):
        raise ValueError("need i in d and j outside d")
    zero = alg.constant(min(d) if i is None else i)
    one = alg.constant(min(outside) if j is None else j) if outside else None
    return t_eval(d, *terms.BINARY[BIN_NAMES[kind]](x, y, zero, one), alg)


# -- the symmetric group action ------------------------------------------


def perm_apply(x: Element, sigma: Permutation, alg: PowerAlgebra) -> Element:
    """x^sigma = q(x, e_{sigma 1}, ..., e_{sigma n}); sigma must permute 1..n."""
    if len(sigma.images) != alg.n:
        raise ValueError(f"a permutation of 1..{len(sigma.images)}, not of 1..{alg.n}")
    out = alg.q(tuple(x), [alg.constant(sigma(k)) for k in range(1, alg.n + 1)])
    if out != tuple(sigma(v) for v in x):
        raise ValueError("the action must agree with sigma pointwise")
    return out


# -- coordinates, +_i, reconstruction --------------------------------------


def coordinates(x: Element, cp: CenterParams, alg: PowerAlgebra) -> list:
    """x_k = t_k(x, e_i, e_j), one per k in 1..n."""
    ei, ej = alg.constant(cp.i), alg.constant(cp.j)
    return [t_eval({k}, tuple(x), ei, ej, alg) for k in range(1, alg.n + 1)]


def plus_i(x: Element, y: Element, i: int, alg: PowerAlgebra) -> Element:
    """x +_i y: commutative, unit e_i, x +_i x = e_i."""
    ei = alg.constant(i)
    branches = []
    for k in range(1, alg.n + 1):
        if k == i:
            branches.append(tuple(y))
        else:
            branches.append(t_eval({i}, tuple(y), ei, alg.constant(k), alg))
    return alg.q(tuple(x), branches)


def reconstruct(coords: Sequence[Element], i: int, alg: PowerAlgebra) -> Element:
    """Fold (x_1 meet_i e_1) +_i ... +_i (x_n meet_i e_n) back into x, from the right."""
    return reconstruct_parenthesized(coords, i, alg, range(alg.n - 2, -1, -1))


def reconstruct_parenthesized(coords: Sequence[Element], i: int, alg: PowerAlgebra,
                              order: Sequence[int]) -> Element:
    """Fold the +_i chain in an arbitrary association order.

    order is a sequence of gap positions (0-based into the remaining list)
    selecting which adjacent pair to combine next.
    """
    if len(coords) != alg.n:
        raise ShapeError(f"expected {alg.n} coordinates, got {len(coords)}")
    items = [
        t_eval({i}, tuple(c), alg.constant(k), alg.constant(i), alg)
        for k, c in enumerate(coords, start=1)
    ]
    for gap in order:
        a = items.pop(gap)
        b = items.pop(gap)
        items.insert(gap, plus_i(a, b, i, alg))
    if len(items) != 1:
        raise ValueError("association order did not reduce to a single value")
    return items[0]


# -- signature translations ------------------------------------------------


def to_star(t: Term, n: int) -> Term:
    """Rewrite onto the skew-star signature (t_i with singleton i, 0_i).

    Each Q, T or Bin node becomes the nested selector chain, t_1 outermost, over its q form
    (terms.q_form, terms.star_chain): one terms.fold over t, so shared nodes stay shared.
    """
    def star(s, args):
        if isinstance(s, terms.Var):
            return s
        if isinstance(s, Const):
            return Const(s.k, "0")
        x, ys = terms.q_form(s, n, args, lambda k, style: Const(k, "0"))
        return terms.star_chain(lambda k, x, a, b: T(frozenset({k}), x, a, b), x, ys)

    return terms.fold(t, lambda s: terms.checked_children(s, n), star)


def to_skew(t: Term, n: int, i: int) -> Term:
    """Rewrite a {t_i, 0_i}-term onto the skew signature (and, bv, sub, 0_i).

    t_i(x,y,z) maps to (x and_i y) bv_i (z sub_i x) per the ternary-to-skew
    dictionary; only the index family i is admitted.
    """
    fam = frozenset({i})

    def kids(s):
        if isinstance(s, Const) and s.k != i:
            raise TermError(f"constant outside the index-{i} family")
        if isinstance(s, T) and s.d != fam:
            raise TermError(f"t subscript {sorted(s.d)} outside the index-{i} family")
        if isinstance(s, Bin) and (s.d != fam or s.kind not in terms.SKEW_KINDS):
            raise TermError("operation outside the skew signature for this family")
        if not isinstance(s, (terms.Var, Const, T, Bin)):
            raise TermError("q nodes are not in the scope of the skew translation")
        return terms.children(s)

    def skew(s, args):
        if isinstance(s, terms.Var):
            return s
        if isinstance(s, Const):
            return Const(i, "0")
        if isinstance(s, T):
            x, y, z = args
            return Bin("bv", fam, Bin("and", fam, x, y), Bin("sub", fam, z, x))
        return Bin(s.kind, fam, *args)

    return terms.fold(t, kids, skew)


def translate_term(t: Term, target: str, n: int, i: int = 1) -> Term:
    """target is one of "q", "star", "skew"."""
    if target == "q":
        return terms.elaborate(t, n)
    if target == "star":
        return to_star(t, n)
    if target == "skew":
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of 1..{n}")
        return to_skew(t, n, i)
    raise ValueError(f"unknown target {target!r}")


def central_retract(alg: PowerAlgebra, d, i: int, j: int, x: Element) -> Element:
    """c(x) = t_d(x, 1_j, 0_i); idempotent retraction onto 2-central elements."""
    d = frozenset(d)
    if i not in d or j in d:
        raise ValueError("need i in d and j outside d")
    return t_eval(d, tuple(x), alg.constant(j), alg.constant(i), alg)
