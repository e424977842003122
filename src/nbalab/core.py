"""Finite n-valued algebras with a generalised if-then-else operator.

Elements of a power algebra are tuples of value indices in 1..n, one per
point of a finite point set.  Such a tuple is at the same time an
n-partition of the point set (block k = points carrying value k).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

Element = tuple  # tuple of ints in 1..n

# the most q-table entries a full power's q_vec builds its table for and gathers
# from (2^5, 3^2 and the generators up to n = 5); larger ones run the digit kernel
GATHER_TABLE_MAX = 1 << 16

# the most entries a dense table over a carrier may have: 2^8's t table, 256^3
TABLE_BOUND = 1 << 24


class DimensionError(ValueError):
    pass


class ShapeError(ValueError):
    pass


def check_table_bound(what: str, size: int, entries: int) -> None:
    """ValueError naming the carrier size and TABLE_BOUND if a dense table is too big."""
    if entries > TABLE_BOUND:
        raise ValueError(f"{what} over carrier size {size} needs {entries} entries, "
                         f"exceeding bound {TABLE_BOUND}")


def _check_dim(n: int) -> int:
    if not isinstance(n, int) or n < 2:
        raise DimensionError(f"dimension must be an integer >= 2, got {n!r}")
    return n


def constant_element(n: int, m: int, k: int) -> Element:
    """The constant element e_k of the m-point power of dimension n."""
    if not 1 <= k <= n:
        raise ValueError(f"constant index {k} out of 1..{n}")
    return (k,) * m


@dataclass(frozen=True)
class PowerAlgebra:
    """A (sub-)power of the n-element generator on an m-point set.

    carrier is None for the full power, otherwise a lexicographically
    sorted tuple of elements containing the constants and closed under q.
    """

    n: int
    points: int
    carrier: Optional[tuple] = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        _check_dim(self.n)
        if self.points < 0:
            raise ValueError("point count must be >= 0")
        if self.carrier is not None:
            object.__setattr__(self, "carrier", tuple(sorted(set(self.carrier))))
            for el in self.carrier:
                self._check_element(el)
            for k in range(1, self.n + 1):
                if constant_element(self.n, self.points, k) not in set(self.carrier):
                    raise ValueError(f"carrier misses constant e_{k}")

    def _check_element(self, el: Element) -> None:
        if len(el) != self.points:
            raise ShapeError(f"element {el} has {len(el)} points, expected {self.points}")
        for v in el:
            if not 1 <= v <= self.n:
                raise ShapeError(f"value {v} out of 1..{self.n} in {el}")

    @property
    def size(self) -> int:
        return self.n**self.points if self.carrier is None else len(self.carrier)

    def elements(self) -> tuple:
        if self.carrier is not None:
            return self.carrier
        full = self._cache.get("full")
        if full is None:
            check_table_bound("the element list", self.size, self.size * self.points)
            full = tuple(itertools.product(range(1, self.n + 1), repeat=self.points))
            self._cache["full"] = full
        return full

    def index(self, el: Element) -> int:
        idx = self._cache.get("index")
        if idx is None:
            idx = {e: i for i, e in enumerate(self.elements())}
            self._cache["index"] = idx
        try:
            return idx[tuple(el)]
        except KeyError:
            raise ShapeError(f"element {el} not in carrier") from None

    def __contains__(self, el) -> bool:
        try:
            self.index(el)
            return True
        except ShapeError:
            return False

    def constant(self, k: int) -> Element:
        return constant_element(self.n, self.points, k)

    @property
    def constants(self) -> tuple:
        return tuple(self.constant(k) for k in range(1, self.n + 1))

    # -- the fundamental operation ------------------------------------

    def q(self, x: Element, ys: Sequence[Element]) -> Element:
        """Pointwise generalised if-then-else: result[p] = ys[x[p]][p]."""
        self._check_element(x)
        if len(ys) != self.n:
            raise ShapeError(f"q expects {self.n} branches, got {len(ys)}")
        for y in ys:
            self._check_element(y)
        out = tuple(ys[x[p] - 1][p] for p in range(self.points))
        if self.carrier is not None and out not in self:
            raise ShapeError(f"carrier not closed under q: produced {out}")
        return out

    def q_idx(self, s: int, branches: Sequence[int]) -> int:
        els = self.elements()
        return self.index(self.q(els[s], [els[b] for b in branches]))

    def constant_index(self, k: int) -> int:
        return self.index(self.constant(k))

    def _q_codes(self, s: np.ndarray, branches: Sequence[np.ndarray]) -> np.ndarray:
        """q on base-n codes of value vectors, one digit (point) at a time.

        The arguments broadcast like a ufunc's.  Each point picks its branch
        digit with a chain of np.where, which holds one branch digit at a time.
        """
        m, n = self.points, self.n
        out = np.zeros(np.broadcast_shapes(np.shape(s), *map(np.shape, branches)), np.int64)
        for p in range(m):
            shift = n ** (m - 1 - p)
            sel = s // shift % n
            pick = branches[-1] // shift % n
            for k in range(n - 2, -1, -1):
                pick = np.where(sel == k, branches[k] // shift % n, pick)
            out += pick * shift
        return out

    def q_table(self) -> np.ndarray:
        """Dense (size,)*(n+1) table of q over carrier indices; ShapeError if not closed."""
        tab = self._cache.get("qtab")
        if tab is None:
            check_table_bound("the q table", self.size, self.size ** (self.n + 1))
            # the carrier is sorted, so its codes are too
            vals = np.array(self.elements(), dtype=np.int64).reshape(self.size, self.points)
            codes = (vals - 1) @ (self.n ** np.arange(self.points - 1, -1, -1, dtype=np.int64))
            # each digit comes from one branch: q(x, ys) = sum over k of q(x, 0, .., y_k, .., 0)
            axes = [codes.reshape((-1,) + (1,) * (self.n - a)) for a in range(self.n + 1)]
            res = sum(self._q_codes(axes[0], [axes[k + 1] if j == k else 0 for j in range(self.n)])
                      for k in range(self.n))
            tab = np.searchsorted(codes, res)
            missing = np.argwhere(codes.take(tab, mode="clip") != res)
            if missing.size:  # q raises a ShapeError naming the element the carrier lacks
                self.q_idx(int(missing[0, 0]), missing[0, 1:].tolist())
            self._cache["qtab"] = tab
        return tab

    def q_vec(self, s: np.ndarray, branches: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorised q over arrays of carrier indices.

        A full power whose table has more than GATHER_TABLE_MAX entries runs
        the digit kernel on its indices, which are its codes; every other
        algebra gathers from its q table.
        """
        if self.carrier is None and (self.n**self.points) ** (self.n + 1) > GATHER_TABLE_MAX:
            return self._q_codes(s, branches)
        return self.q_table()[tuple([s, *branches])]

    def element_label(self, i: int) -> str:
        el = self.elements()[i]
        return "[" + ",".join(map(str, el)) + "]"

    def to_json(self) -> dict:
        if self.carrier is None:
            return {"n": self.n, "kind": "power", "points": self.points}
        return {
            "n": self.n,
            "kind": "subpower",
            "points": self.points,
            "carrier": [list(e) for e in self.carrier],
        }


@dataclass(frozen=True)
class TableAlgebra:
    """A raw operation-table algebra over {0..size-1}, for axiom auditing.

    Unlike PowerAlgebra, a TableAlgebra may fail the defining identities;
    that is the point of having it.
    """

    n: int
    size: int
    constants: tuple  # n carrier indices, constants[k-1] is e_k
    q_flat: tuple  # row-major, length size**(n+1)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        _check_dim(self.n)
        if len(self.constants) != self.n:
            raise ValueError(f"expected {self.n} constants")
        for c in self.constants:
            if not 0 <= c < self.size:
                raise ValueError(f"constant index {c} out of range")
        if len(self.q_flat) != self.size ** (self.n + 1):
            raise ValueError("q table has wrong length")
        for v in self.q_flat:
            if not 0 <= v < self.size:
                raise ValueError(f"table entry {v} out of range")

    def q_table(self) -> np.ndarray:
        tab = self._cache.get("qtab")
        if tab is None:
            tab = np.asarray(self.q_flat, dtype=np.int64).reshape((self.size,) * (self.n + 1))
            self._cache["qtab"] = tab
        return tab

    def q_idx(self, s: int, branches: Sequence[int]) -> int:
        return int(self.q_table()[tuple([s, *branches])])

    def q_vec(self, s: np.ndarray, branches: Sequence[np.ndarray]) -> np.ndarray:
        return self.q_table()[tuple([s, *branches])]

    def element_label(self, i: int) -> str:
        return f"#{i}"

    def index(self, el) -> int:
        """No element tuple names a table's element; ShapeError always."""
        raise ShapeError(f"a table's elements are carrier indices 0..{self.size - 1}, "
                         f"not {list(el)}")

    def constant_index(self, k: int) -> int:
        return self.constants[k - 1]

    def mutate(self, key: tuple, value: int) -> "TableAlgebra":
        """Copy with one q entry replaced (mutation testing helper)."""
        flat = list(self.q_flat)
        pos = 0
        for k in key:
            pos = pos * self.size + k
        flat[pos] = value
        return TableAlgebra(self.n, self.size, self.constants, tuple(flat))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "kind": "table",
            "size": self.size,
            "constants": list(self.constants),
            "q": list(self.q_flat),
        }


def element_index(alg, x) -> int:
    """A carrier index given as an integer or as an element tuple; ValueError for a
    boolean, a float or anything else."""
    if np.ndim(x):
        return alg.index(tuple(x))
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{x!r} is neither a carrier index nor an element")
    i = operator.index(x)
    if not 0 <= i < alg.size:
        raise ValueError(f"element index {i} out of 0..{alg.size - 1}")
    return i


@functools.lru_cache(maxsize=None, typed=True)
def generator(n: int) -> PowerAlgebra:
    """The one-point power whose carrier is exactly {e_1..e_n}.

    One object per n, so that its q table, which q_vec gathers from, is
    built once per process and not once per check.  The cache is typed, so
    2.0 or numpy's 2 is not taken for 2 and still fails _check_dim.
    """
    _check_dim(n)
    return PowerAlgebra(n, 1)


def power_algebra(n: int, m: int) -> PowerAlgebra:
    """The full power with n**m elements."""
    _check_dim(n)
    return PowerAlgebra(n, m)


def table_of_power(alg: PowerAlgebra) -> TableAlgebra:
    """Materialise a PowerAlgebra as an explicit TableAlgebra."""
    consts = tuple(alg.index(c) for c in alg.constants)
    return TableAlgebra(alg.n, alg.size, consts, tuple(int(v) for v in alg.q_table().ravel()))


# -- n-subsets ---------------------------------------------------------

NSubset = tuple  # tuple of n frozensets of points


def nsubset(parts: Iterable[Iterable[int]]) -> NSubset:
    return tuple(frozenset(p) for p in parts)


def nsubset_q(n: int, y0: NSubset, ys: Sequence[NSubset]) -> NSubset:
    """q on n-subsets: component k = union over i of Y0_i & Yi_k."""
    _check_dim(n)
    if len(y0) != n or any(len(y) != n for y in ys) or len(ys) != n:
        raise ShapeError("all n-subsets must have exactly n components")
    return tuple(
        frozenset().union(*(y0[i] & ys[i][k] for i in range(n))) for k in range(n)
    )


def element_to_partition(el: Element, n: int) -> NSubset:
    return tuple(frozenset(p for p, v in enumerate(el) if v == k) for k in range(1, n + 1))


def partition_to_element(parts: NSubset, m: int) -> Element:
    vals = [0] * m
    for k, part in enumerate(parts, start=1):
        for p in part:
            if vals[p]:
                raise ShapeError("parts overlap; not a partition")
            vals[p] = k
    if 0 in vals:
        raise ShapeError("parts do not cover the point set")
    return tuple(vals)


# -- subalgebra closure ------------------------------------------------


def _closure(alg, gens) -> np.ndarray:
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


def subalgebra_closure(alg: PowerAlgebra, gens: Iterable[Element]) -> PowerAlgebra:
    """Smallest carrier containing constants and gens, closed under q; gens must lie in alg."""
    els = alg.elements()
    inside = _closure(alg, [alg.index(tuple(g)) for g in gens])
    return PowerAlgebra(alg.n, alg.points, tuple(els[i] for i in np.flatnonzero(inside)))


# -- serialisation -----------------------------------------------------


def json_int(v, name: str) -> int:
    """v if it is a JSON integer (not a boolean); ValueError naming the field otherwise."""
    if type(v) is not int:
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return v


def json_ints(v, name: str) -> tuple:
    """v as a tuple if it is a list of JSON integers; ValueError naming the field otherwise."""
    if not isinstance(v, list) or not set(map(type, v)) <= {int}:
        raise ValueError(f"{name} must be a list of integers, got {v!r:.60}")
    return tuple(v)


def algebra_from_json(obj: dict):
    """The algebra a JSON object describes; ValueError (or KeyError) if it is malformed.

    Every number must be a JSON integer: numpy would truncate 0.5 and read true as 1.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"an algebra is a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    n = json_int(obj["n"], "n")
    if kind == "power":
        return PowerAlgebra(n, json_int(obj["points"], "points"))
    if kind == "subpower":
        carrier = obj["carrier"]
        if not isinstance(carrier, list):
            raise ValueError(f"carrier must be a list of elements, got {carrier!r:.60}")
        alg = PowerAlgebra(n, json_int(obj["points"], "points"),
                           tuple(json_ints(e, "a carrier element") for e in carrier))
        alg.q_table()  # rejects a carrier that is not closed under q
        return alg
    if kind == "table":
        return TableAlgebra(n, json_int(obj["size"], "size"),
                            json_ints(obj["constants"], "constants"), json_ints(obj["q"], "q"))
    raise ValueError(f"unknown algebra kind {kind!r}")
