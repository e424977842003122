"""Finite n-valued algebras with a generalised if-then-else operator.

Elements of a power algebra are tuples of value indices in 1..n, one per
point of a finite point set.  Such a tuple is at the same time an
n-partition of the point set (block k = points carrying value k).
"""

from __future__ import annotations

import array
import functools
import itertools
import math
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

Element = tuple  # tuple of ints in 1..n

# the most q-table entries a full power's q_vec builds its table for and gathers
# from (2^5, 3^2 and the generators up to n = 5); larger ones run the digit kernel
GATHER_TABLE_MAX = 1 << 16

# the most entries a dense table over a carrier may have: 2^8's t table, 256^3
TABLE_BOUND = 1 << 24

# gather reads fewer results than this by one multi-array index, which beats a
# flat take on reads this small (the generator's 32- to 81-row term steps)
FANCY_READ_MAX = 1 << 11

# the dtype of a boolean array or numpy scalar, and Python's bool: such an index is a mask
_BOOLS = frozenset([np.dtype(bool), bool])


class DimensionError(ValueError):
    pass


class ShapeError(ValueError):
    pass


def check_table_bound(what: str, size: int, entries: int) -> None:
    """ValueError naming the carrier size and TABLE_BOUND if a dense table is too big."""
    if entries > TABLE_BOUND:
        raise ValueError(f"{what} over carrier size {size} needs {entries} entries, "
                         f"exceeding bound {TABLE_BOUND}")


def gather(tab: np.ndarray, args: Sequence) -> np.ndarray:
    """tab indexed by args: one integer index array or scalar per axis of tab, broadcast
    together, each in range on its own axis.

    A read of FANCY_READ_MAX results or more folds the arguments into one flat index
    over tab's shape (Horner) and takes it; a smaller one indexes tab directly.  The fold
    runs in the arguments' dtypes promoted with np.min_scalar_type(tab.size): no axis
    length or partial sum exceeds tab.size, and int64 arguments fold in int64 with no
    copy.  uint64 beside a signed dtype (which numpy promotes to float64) folds in int64.
    A boolean array or scalar reads as 0/1 indices in both branches, never as a mask.
    """
    if len(args) != tab.ndim:
        raise IndexError(f"a table of {tab.ndim} axes read with {len(args)} indices")
    if np.broadcast(*args).size < FANCY_READ_MAX:
        if not _BOOLS.isdisjoint([getattr(a, "dtype", type(a)) for a in args]):
            args = [np.asarray(a, np.intp) for a in args]
        return tab[tuple(args)]
    idx = np.asarray(args[0])
    idx = idx.astype(np.promote_types(idx.dtype, np.min_scalar_type(tab.size)), copy=False)
    for a, dim in zip(args[1:], tab.shape[1:]):
        idx = idx * dim + a
    if idx.dtype.kind not in "iu":
        return gather(tab, [np.asarray(a, np.int64) for a in args])
    return tab.take(idx)


def _check_dim(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise DimensionError(f"dimension must be an integer >= 2, got {n!r}")


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
            # dict.fromkeys keeps the order, so an ordered carrier sorts in one linear pass
            object.__setattr__(self, "carrier", tuple(sorted(dict.fromkeys(self.carrier))))
            self._values()
            for k in range(1, self.n + 1):
                if self.constant(k) not in self:
                    raise ValueError(f"carrier misses constant e_{k}")

    def _values(self) -> np.ndarray:
        """The carrier as a (size, points) int64 array, built once; it is checked in one
        pass, and element by element (ShapeError naming the first bad one) only when it
        is not an integer array of that shape with values in 1..n."""
        if "vals" not in self._cache:
            vals = np.array(self.carrier) if set(map(len, self.carrier)) == {self.points} else None
            if (vals is None or vals.shape != (self.size, self.points)
                    or vals.dtype.kind not in "iu" or not ((1 <= vals) & (vals <= self.n)).all()):
                for el in self.carrier:
                    self._check_element(el)
                vals = np.array(self.carrier, dtype=np.int64).reshape(self.size, self.points)
            self._cache["vals"] = vals.astype(np.int64, copy=False)
        return self._cache["vals"]

    def _check_element(self, el: Element) -> None:
        if len(el) != self.points:
            raise ShapeError(f"element {el} has {len(el)} points, expected {self.points}")
        for v in el:  # an integer or a boolean, never a float that int64 would truncate
            if not (isinstance(v, (int, np.integer, np.bool_)) and 1 <= v <= self.n):
                raise ShapeError(f"value {v} out of 1..{self.n} in {el}")

    @property
    def size(self) -> int:
        return self.n**self.points if self.carrier is None else len(self.carrier)

    def elements(self) -> tuple:
        if self.carrier is not None:
            return self.carrier
        if "full" not in self._cache:
            check_table_bound("the element list", self.size, self.size * self.points)
            self._cache["full"] = tuple(itertools.product(range(1, self.n + 1), repeat=self.points))
        return self._cache["full"]

    def index(self, el: Element) -> int:
        self._check_element(el)  # 2.0 hashes as 2, so the lookup alone would take it
        if "index" not in self._cache:
            self._cache["index"] = {e: i for i, e in enumerate(self.elements())}
        try:
            return self._cache["index"][tuple(el)]
        except KeyError:
            raise ShapeError(f"element {el} not in carrier") from None

    def indices(self, els) -> np.ndarray:
        """The index of each of els; on a full power in one pass, when _int_rows reads them."""
        if self.carrier is None and (v := _int_rows(els, tuple, self.n, self.points)) is not None:
            return (v - 1) @ self.n ** np.arange(self.points - 1, -1, -1)
        return np.asarray([self.index(e) for e in els], dtype=np.int64)

    def __contains__(self, el) -> bool:
        try:
            self.index(el)
            return True
        except ShapeError:
            return False

    def constant(self, k: int) -> Element:
        """The constant element e_k."""
        if not 1 <= k <= self.n:
            raise ValueError(f"constant index {k} out of 1..{self.n}")
        return (k,) * self.points

    @property
    def constants(self) -> tuple:
        return tuple(self.constant(k) for k in range(1, self.n + 1))

    # -- the fundamental operation ------------------------------------

    def pointwise(self, f, els: Sequence[Element]) -> Element:
        """f(*vals) + 1 broadcast to the points, for f an operation of generator(n) and vals
        the values of els less 1 as one int64 array: as q acts point by point, f's value on
        els.  ShapeError names the first bad element, or a result outside the carrier."""
        for el in els:
            self._check_element(el)
        vals = np.array(els, dtype=np.int64).reshape(len(els), self.points) - 1
        out = tuple((np.broadcast_to(f(*vals), (self.points,)) + 1).tolist())
        if self.carrier is not None and out not in self:
            raise ShapeError(f"carrier not closed under q: produced {out}")
        return out

    def q(self, x: Element, ys: Sequence[Element]) -> Element:
        """Pointwise generalised if-then-else, result[p] = ys[x[p] - 1][p]: generator(n)'s q."""
        self._check_element(x)
        if len(ys) != self.n:
            raise ShapeError(f"q expects {self.n} branches, got {len(ys)}")
        return self.pointwise(lambda s, *b: generator(self.n).q_vec(s, b), [x, *ys])

    def q_idx(self, s: int, branches: Sequence[int]) -> int:
        if len(branches) != self.n or not all(0 <= i < self.size for i in (s, *branches)):
            raise IndexError(f"not {self.n + 1} indices in 0..{self.size - 1}: {[s, *branches]}")
        return int(self.q_vec(s, branches))

    def constant_index(self, k: int) -> int:
        return self.index(self.constant(k))

    def _q_codes(self, s: np.ndarray, branches: Sequence[np.ndarray]) -> np.ndarray:
        """q on base-n codes of value vectors.  Each digit (point) of q(x, ys) is the digit
        of the branch y_k that x's digit selects there, so q is a sum over the branches.

        The arguments broadcast like a ufunc's; they are cast to int64 first (free on int64),
        so that a narrow index dtype cannot overflow.  Branch k's sum is worked at the shape
        of x and y_k alone, and the result is the running sum of these partials at the shape
        they span so far: it grows into a new array, else adds in place.  So the peak is one
        result plus one branch's partials, and on open grids (q_table) only the last growth
        writes a result-sized array.
        """
        s, branches = np.asarray(s, np.int64), [np.asarray(b, np.int64) for b in branches]
        m, n = self.points, self.n
        shifts = [n**p for p in range(m)]
        sels = [s // shift % n for shift in shifts]  # the scrutinee's digits, taken once
        out = np.zeros((), np.int64)
        for k, b in enumerate(branches):
            part = sum((sel == k) * (b // shift % n * shift) for sel, shift in zip(sels, shifts))
            if np.broadcast_shapes(out.shape, np.shape(part)) == out.shape:
                out += part
            else:
                out = out + part
        shape = np.broadcast_shapes(np.shape(s), *map(np.shape, branches))
        return out if out.shape == shape else np.broadcast_to(out, shape).copy()

    def _power(self) -> "PowerAlgebra":
        """The full power this algebra is index for index: itself, or n^j for a carrier
        with j coordinate classes (points on which every element agrees share a class).
        A carrier holding the constants is closed under q iff it has n^j elements; it is
        then the diagonal of its classes, ordered as the values at each class's first
        point.  An open carrier raises q's ShapeError."""
        if self.carrier is None:
            return self
        if "power" not in self._cache:
            vals = self._values()
            j = len(_first_ranks(vals.T)[0])
            if self.size != self.n**j:
                self._escape(vals)
            self._cache["power"] = power_algebra(self.n, j)
        return self._cache["power"]

    def coordinates(self) -> "PowerAlgebra":
        """_power: the n^k whose digits are the carrier-index coordinates of the Stone isomorphism
        (not transforms.coordinates, an element's coordinates over a Boolean center)."""
        return self._power()

    def digits(self, idx) -> np.ndarray:
        """Base-n digits of n^points codes idx, first point most significant, on a new last axis."""
        return np.asarray(idx)[..., None] // self.n ** np.arange(self.points - 1, -1, -1) % self.n

    def _escape(self, vals: np.ndarray) -> None:
        """q's ShapeError at the first argument tuple (C order, scrutinee slowest) whose
        value the open carrier vals lacks.  For a scrutinee x, q(x, y_1..y_n) takes y_k's
        values where x is k, so it lies in the carrier iff its n projections are one
        element's.  With each projection ranked by the first element that has it, the
        least mixed-radix code (a Python int) of n ranks that no element has is the answer.
        """
        for el, x in zip(self.carrier, vals):
            firsts, ranks = zip(*(_first_ranks(vals[:, x == k]) for k in range(1, self.n + 1)))
            place = [math.prod(len(f) for f in firsts[k + 1:]) for k in range(self.n)]
            codes = np.unique(sum(r.astype(object) * p for r, p in zip(ranks, place)))
            gap = int(np.append(codes != np.arange(len(codes)), True).argmax())
            if gap < place[0] * len(firsts[0]):
                self.q(el, [self.carrier[f[gap // p % len(f)]] for f, p in zip(firsts, place)])

    def q_table(self) -> np.ndarray:
        """Dense (size,)*(n+1) table of q over carrier indices; ShapeError if not closed.
        A full power's indices are its codes: its table is _q_codes on open grids, where
        each branch's partials are size^2 planes and only the result is table-sized."""
        if self.carrier is not None:
            return self._power().q_table()
        if "qtab" not in self._cache:
            check_table_bound("the q table", self.size, self.size ** (self.n + 1))
            grid = np.ix_(*[np.arange(self.size)] * (self.n + 1))
            self._cache["qtab"] = self._q_codes(grid[0], grid[1:])
        return self._cache["qtab"]

    def q_vec(self, s: np.ndarray, branches: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorised q over arrays of carrier indices; a subpower's is n^j's (see _power).

        A full power whose table has more than GATHER_TABLE_MAX entries runs the digit
        kernel on its indices, which are its codes; any other gathers from its q table.
        """
        if self.carrier is not None:
            return self._power().q_vec(s, branches)
        if self.size ** (self.n + 1) > GATHER_TABLE_MAX:
            return self._q_codes(s, branches)
        return gather(self.q_table(), [s, *branches])

    def run(self, program, env: dict, ops: dict) -> tuple:
        """terms.run of a q program over carrier indices (env the variables, ops q_ops(self)
        and pins).  Where q_vec runs the digit kernel and generator(n) gathers from its table
        (n <= 5), each named input is decoded once into base-n digit planes (point p's digits
        at p on a new first axis), the program runs on them in generator(n), as q acts point
        by point, and the roots are encoded back."""
        alg = self._power()
        if alg.size ** (alg.n + 1) <= GATHER_TABLE_MAX or alg.n ** (alg.n + 1) > GATHER_TABLE_MAX:
            return terms.run(program, env, ops)
        # codes and each digit's share of one (below size) in the least dtype that holds size - 1
        ndim, cdt, dt = (max([getattr(v, "ndim", 0) for v in env.values()], default=0),
                         np.min_scalar_type(alg.size - 1), np.min_scalar_type(alg.n - 1))
        shifts = (alg.n ** np.arange(alg.points, dtype=cdt)).reshape((-1,) + (1,) * ndim)
        names = {op for op, args, _ in program.steps if args is None}
        planes = {name: (np.asarray(v).astype(cdt) // shifts % alg.n).astype(dt, copy=False)
                  for name, v in {**ops, **env}.items() if name in names}
        tab = generator(alg.n).q_table().astype(dt)  # its values, in the planes' dtype
        roots = terms.run(program, planes, {"q": lambda s, *ys: gather(tab, [s, *ys])})
        return tuple((r * shifts).sum(0, dtype=cdt) for r in roots)

    def element_label(self, i: int) -> str:
        el = self.elements()[i]
        return "[" + ",".join(map(str, el)) + "]"

    def to_json(self) -> dict:
        if self.carrier is None:
            return {"n": self.n, "kind": "power", "points": self.points}
        return {"n": self.n, "kind": "subpower", "points": self.points,
                "carrier": [list(e) for e in self.carrier]}


@dataclass(frozen=True, eq=False)
class TableAlgebra:
    """A raw operation-table algebra over {0..size-1}, for axiom auditing.

    Unlike PowerAlgebra, it may fail the defining identities: that is the point of
    having it. Its q table is one int64 array, q_table(); tables compare by identity.
    """

    n: int
    size: int
    constants: tuple  # n integer carrier indices, constants[k-1] is e_k
    q: InitVar[Sequence]  # row-major, length size**(n+1)
    _cache: dict = field(default_factory=dict, repr=False)
    q_idx = PowerAlgebra.q_idx  # one q_idx for both, with the power's index check

    def __post_init__(self, q):
        _check_dim(self.n)
        if len(self.constants) != self.n:
            raise ValueError(f"expected {self.n} constants")
        for c in self.constants:
            if type(c) is bool or not isinstance(c, (int, np.integer)) or not 0 <= c < self.size:
                raise ValueError(f"constant index {c} out of range")
        if len(q) != self.size ** (self.n + 1):
            raise ValueError("q table has wrong length")
        vals = _int64_entries(q)
        if vals is None or vals.size and (vals.min() < 0 or vals.max() >= self.size):
            vals = np.array(q)  # a copy, also of an array
            if vals.dtype.kind not in "biuf":  # compare strings, complex numbers as Python does
                vals = np.array(q, dtype=object)
            bad = ~((0 <= vals) & (vals < self.size))
            if bad.any():
                raise ValueError(f"table entry {q[int(bad.argmax())]} out of range")
        self._cache["qtab"] = vals.astype(np.int64, copy=False).reshape((self.size,) * (self.n + 1))

    def q_table(self) -> np.ndarray:
        return self._cache["qtab"]

    @property
    def q_flat(self) -> tuple:
        return tuple(self.q_table().ravel().tolist())

    def q_vec(self, s: np.ndarray, branches: Sequence[np.ndarray]) -> np.ndarray:
        return gather(self.q_table(), [s, *branches])

    def run(self, program, env: dict, ops: dict) -> tuple:
        """terms.run of a q program over carrier indices, ops being q_ops(self) and pins."""
        return terms.run(program, env, ops)

    def coordinates(self) -> None:  # for a table, a theorem that ideals.stone_certificate proves
        return None

    def element_label(self, i: int) -> str:
        return f"#{i}"

    def index(self, el) -> int:
        """No element tuple names a table's element; ShapeError always."""
        raise ShapeError(f"a table's elements are carrier indices 0..{self.size - 1}, "
                         f"not {list(el)}")

    def constant_index(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise ValueError(f"constant index {k} out of 1..{self.n}")
        return self.constants[k - 1]

    def mutate(self, key: tuple, value: int) -> "TableAlgebra":
        """A new table with value spliced in at key and checked (mutation testing helper)."""
        i, q = np.ravel_multi_index(key, self.q_table().shape), self.q_table().ravel()
        return TableAlgebra(self.n, self.size, self.constants,
                            np.concatenate([q[:i], [value], q[i + 1:]]))

    def to_json(self) -> dict:
        return {"n": self.n, "kind": "table", "size": self.size,
                "constants": list(self.constants), "q": self.q_table().ravel().tolist()}


def _int64_entries(q) -> Optional[np.ndarray]:
    """q as a new int64 array in one pass when q is an integer array, or a list or tuple
    of integers (Python, bool or numpy) within int64, as array.array reads them; else
    None.  np.array would first walk a list to find a common dtype, which on a tuple of
    2^18 ints takes longer."""
    if isinstance(q, np.ndarray) and q.dtype.kind in "iu":
        return q.astype(np.int64)  # one copy; a uint64 past int64 wraps below 0 and is refused
    if not isinstance(q, (list, tuple)):
        return None
    try:
        return np.frombuffer(array.array("q", q), np.int64)
    except (TypeError, OverflowError):  # a float, string or the like, or an int past int64
        return None


def element_index(alg, x) -> int:
    """A carrier index given as an integer or as an element tuple; ValueError for a
    boolean, a float or anything else."""
    if np.ndim(x):
        return alg.index(tuple(x))
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{x!r} is neither a carrier index nor an element")
    i = int(x)  # a Python or numpy integer, as just checked
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
    return PowerAlgebra(n, 1)


def power_algebra(n: int, m: int) -> PowerAlgebra:
    """The full power with n**m elements."""
    return PowerAlgebra(n, m)


def table_of_power(alg: PowerAlgebra) -> TableAlgebra:
    """Materialise a PowerAlgebra as an explicit TableAlgebra."""
    consts = tuple(alg.constant_index(k) for k in range(1, alg.n + 1))
    return TableAlgebra(alg.n, alg.size, consts, alg.q_table().ravel())


# -- n-subsets ---------------------------------------------------------

NSubset = tuple  # tuple of n frozensets of points


def nsubset(parts: Iterable[Iterable[int]]) -> NSubset:
    return tuple(frozenset(p) for p in parts)


def nsubset_q(n: int, y0: NSubset, ys: Sequence[NSubset]) -> NSubset:
    """q on n-subsets: component k = union over i of Y0_i & Yi_k."""
    _check_dim(n)
    if len(y0) != n or any(len(y) != n for y in ys) or len(ys) != n:
        raise ShapeError("all n-subsets must have exactly n components")
    return tuple(frozenset().union(*(y0[i] & ys[i][k] for i in range(n))) for k in range(n))


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


def _first_ranks(vals: np.ndarray) -> tuple:
    """(first index of each distinct row of vals, ascending; each row's rank in that order).
    Rows compare as runs of bytes; the appended zero gives rows of no values one byte."""
    rows = np.ascontiguousarray(np.pad(vals, ((0, 0), (0, 1))))
    _, first, inverse = np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))),
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.reshape(-1)]


def subalgebra_closure(alg: PowerAlgebra, gens: Iterable[Element]) -> PowerAlgebra:
    """Smallest carrier containing constants and gens, closed under q; gens must lie in alg.
    It is the diagonal of the coordinate classes that the gens cut out, read off n^j."""
    gens = list(map(tuple, gens))
    for g in gens:  # a subpower's _power raises ShapeError if its carrier is open
        alg._check_element(g) if alg._power() is alg else alg.index(g)
    first, cls = _first_ranks(np.array([alg.constant(1), *gens], dtype=np.int64).T)
    check_table_bound("the element list", alg.n ** len(first), alg.n ** len(first) * len(first))
    diag = power_algebra(alg.n, len(first)).digits(np.arange(alg.n ** len(first))) + 1
    return PowerAlgebra(alg.n, alg.points, tuple(map(tuple, diag[:, cls].tolist())))


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


def _int_rows(rows, row_type: type, n: int, points: int) -> Optional[np.ndarray]:
    """rows in one array if each is a row_type of points ints (not bools) in 1..n; else None."""
    if not (set(map(type, rows)) <= {row_type} and set(map(len, rows)) == {points}
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int}):
        return None
    vals = np.array(rows)
    return vals if vals.dtype.kind == "i" and ((1 <= vals) & (vals <= n)).all() else None


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
        points = json_int(obj["points"], "points")
        if (vals := _int_rows(carrier, list, n, points)) is None:
            alg = PowerAlgebra(n, points, tuple(json_ints(e, "a carrier element") for e in carrier))
        else:  # the rows in lexicographic order, as big-endian bytes compare (_first_ranks)
            key = vals.astype(np.min_scalar_type(n).newbyteorder(">"))
            order = np.unique(key.view((np.void, key.itemsize * points)), return_index=True)[1]
            alg = PowerAlgebra(n, points, tuple(tuple(carrier[i]) for i in order.tolist()),
                               _cache={"vals": vals[order]})
        alg._power()  # rejects a carrier that is not closed under q
        return alg
    if kind == "table":
        json_ints(obj["q"], "q")  # checked; TableAlgebra reads the list itself in one pass
        return TableAlgebra(n, json_int(obj["size"], "size"),
                            json_ints(obj["constants"], "constants"), obj["q"])
    raise ValueError(f"unknown algebra kind {kind!r}")


# terms imports this module's names, so it is imported once they all exist
from . import terms  # noqa: E402
