"""Terms over the q-, skew- and skew-star signatures.

Grammar:
    term := var | "e" INT | "0" INT
          | "q(" term {"," term} ")"
          | ("t"|"and"|"or"|"sub"|"bw"|"bv") "[" INT {"," INT} "]" "(" term {"," term} ")"
    var  := [a-z][a-z0-9_]*

"and"/"or"/"sub"/"bw"/"bv" are the derived binary operations (meet, join,
subtraction, double-bar meet, double-bar join); "t" is the ternary
selector.  Subscripts are subsets of 1..n.

The derived operations are defined once, here, for terms and tables alike:
t_branches (the branches of t_d), BINARY (each binary operation as t_d) and
star_chain (q in the skew-star signature).  children and subterms walk terms;
fold is the one post-order walk that the rewriting and printing functions
run on.  It combines each distinct node, by identity, once, so the terms
that t_branches and star_chain build, which repeat one subterm object under
several parents, cost their distinct nodes and not their trees, and it
keeps its own stack, so none of them recurses once per nesting level.

Every evaluation, here and in the axiom audits of nbalab.skew, lowers its
terms once into a straight-line Program and runs it on each chunk of index
arrays (eval_term on one: its elements' values less 1, in generator(n));
first_witness streams a check's chunks to the first row where the sides differ.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .core import gather, generator

DEFAULT_BUDGET = 10**7
DEFAULT_SAMPLES = 10**5
DEFAULT_SEED = 0xA11CE
CHUNK = 1 << 16  # most assignments evaluated at once


class TermError(ValueError):
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    k: int
    style: str = "e"  # "e" or "0", same denotation


@dataclass(frozen=True)
class Q:
    scrutinee: "Term"
    branches: tuple


@dataclass(frozen=True)
class T:
    d: frozenset
    x: "Term"
    y: "Term"
    z: "Term"


@dataclass(frozen=True)
class Bin:
    kind: str  # one of BIN_KINDS
    d: frozenset
    lhs: "Term"
    rhs: "Term"


Term = object

# each binary operation as t_d(x', y', z'): kind -> (x, y, 0_i, 1_j) -> (x', y', z')
BINARY = {
    "and": lambda x, y, zero, one: (x, y, zero),  # x and_d y = t_d(x, y, 0_i)
    "or": lambda x, y, zero, one: (x, one, y),  # x or_d y = t_d(x, 1_j, y)
    "sub": lambda x, y, zero, one: (y, zero, x),  # x sub_d y = t_d(y, 0_i, x)
    "bw": lambda x, y, zero, one: (x, y, x),  # x bw_d y = t_d(x, y, x)
    "bv": lambda x, y, zero, one: (x, x, y),  # x bv_d y = t_d(x, x, y)
}
BIN_KINDS = tuple(BINARY)
SKEW_KINDS = ("and", "bv", "sub")  # meet, join and minus: the operations of a skew reduct


def t_branches(n: int, d, y, z) -> tuple:
    """The n branches of t_d(x, y, z) = q(x, ...): z at the indices in d, y elsewhere."""
    return tuple(z if k in d else y for k in range(1, n + 1))


def star_chain(t, x, ys):
    """t_1(x, t_2(x, ... t_{m-1}(x, y_m, y_{m-1}) ..., y_2), y_1) for ys = (y_1, ..., y_m).

    t(s, x, a, b) builds t_s(x, a, b); with m = n this is q(x, ys) in the skew-star signature.
    """
    acc = ys[-1]
    for s in range(len(ys) - 1, 0, -1):
        acc = t(s, x, acc, ys[s - 1])
    return acc


def children(t: Term) -> tuple:
    """The arguments of a node in order: Q (scrutinee, *branches), T (x, y, z), Bin (lhs, rhs)."""
    if isinstance(t, Q):
        return (t.scrutinee, *t.branches)
    if isinstance(t, T):
        return (t.x, t.y, t.z)
    if isinstance(t, Bin):
        return (t.lhs, t.rhs)
    return ()


def subterms(*roots) -> Iterator:
    """The roots and their distinct subterms, each once, in preorder of first occurrence.

    Walked without recursion; a node reached again through a second parent
    (by identity) is skipped with everything below it.
    """
    seen = {}  # id -> node, which keeps the ids of the walk in use
    stack = list(reversed(roots))
    while stack:
        s = stack.pop()
        if id(s) in seen:
            continue
        seen[id(s)] = s
        yield s
        stack.extend(reversed(children(s)))


def shared_nodes(roots, kids=children) -> set:
    """Ids of the nodes below roots held by more than one argument place, or by a
    root and an argument place: the nodes whose values a fold must keep.

    One walk that pushes each argument place of each distinct node once; a
    node pushed a second time is shared.  It visits the nodes in preorder,
    as fold does, so a kids that rejects nodes rejects the same one first.
    Only ids are kept, as the roots hold every node below them meanwhile.
    """
    seen, shared = set(), set()
    stack = list(reversed(roots))
    while stack:
        key = id(s := stack.pop())
        if key in seen:
            shared.add(key)
        else:
            seen.add(key)
            stack.extend(reversed(kids(s)))
    return shared


def fold(t, kids, combine, memo: Optional[dict] = None, keep: Optional[set] = None):
    """combine(node, values of kids(node)) over the DAG below t, in post-order.

    Each distinct node, by identity, is combined once, however many parents
    reach it; memo maps id(node) to (node, value), holding the node so that
    its id is not reused while the memo lives.  The value of a node outside
    keep is dropped from memo once its one parent is combined, so a walk
    holds about one value per nesting level and per shared node.  keep
    defaults to shared_nodes([t], kids); a caller that folds several roots
    into one memo, to share their values, passes the shared_nodes of all of
    them, or the memo itself to keep every value.  kids is called on a node
    before its kids are visited, so it may reject the node first.  The walk
    keeps its own stack and does not recurse.
    """
    memo = {} if memo is None else memo
    if id(t) in memo:
        return memo[id(t)][1]
    keep = shared_nodes([t], kids) if keep is None else keep
    cs = kids(t)
    stack = [(t, cs, iter(cs))]  # nodes whose kids are not all combined: kids, those left
    while stack:
        node, cs, left = stack[-1]
        for c in left:
            if id(c) not in memo:
                grand = kids(c)
                if grand:
                    stack.append((c, grand, iter(grand)))
                    break
                memo[id(c)] = (c, combine(c, ()))
        else:
            stack.pop()
            memo[id(node)] = (node, combine(node, [memo[id(c)][1] for c in cs]))
            for c in cs:
                if id(c) not in keep:
                    del memo[id(c)]
    return memo[id(t)][1]


# -- parsing / printing -------------------------------------------------

_TOKEN = re.compile(r"\s*(?:([a-z][a-z0-9_]*)|(\d+)|([(),\[\]]))")


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0

    def error(self, msg: str):
        raise TermError(f"{msg} at position {self.pos} in {self.text!r}")

    def next_token(self):
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            self.error("unexpected character" if self.pos < len(self.text) else "unexpected end")
        self.pos = m.end()
        return m

    def expect(self, sym: str):
        m = self.next_token()
        if m.group(3) != sym:
            self.error(f"expected {sym!r}")

    def parse_subscript(self) -> frozenset:
        self.expect("[")
        d = set()
        while True:
            m = self.next_token()
            if m.group(2) is None:
                self.error("expected index")
            k = int(m.group(2))
            if not 1 <= k <= self.n:
                self.error(f"subscript {k} out of 1..{self.n}")
            d.add(k)
            m = self.next_token()
            if m.group(3) == "]":
                return frozenset(d)
            if m.group(3) != ",":
                self.error("expected ',' or ']'")

    def parse_term(self) -> Term:
        """One term, read with an explicit stack of the applications still open."""
        open_apps = []  # (head word, subscript, arguments so far), innermost last
        while True:
            m = self.next_token()
            word = m.group(1)
            if word == "q" or word == "t" or word in BIN_KINDS:
                d = None if word == "q" else self.parse_subscript()
                self.expect("(")
                open_apps.append((word, d, []))
                continue
            t = self.parse_leaf(m)
            while open_apps:
                word, d, args = open_apps[-1]
                args.append(t)
                m = self.next_token()
                if m.group(3) == ",":
                    break
                if m.group(3) != ")":
                    self.error("expected ',' or ')'")
                open_apps.pop()
                t = self.apply(word, d, args)
            if not open_apps:
                return t

    def parse_leaf(self, m) -> Term:
        """The constant or variable that token m starts."""
        word = m.group(1)
        if m.group(2) is not None:
            digits = m.group(2)
            # constants "0" INT lex as one number token starting with 0
            if digits.startswith("0") and len(digits) > 1:
                k = int(digits[1:])
                if not 1 <= k <= self.n:
                    self.error(f"constant 0{digits[1:]} out of 1..{self.n}")
                return Const(k, "0")
            self.error("unexpected number")
        if word is None:
            self.error("expected term")
        cm = re.fullmatch(r"e(\d+)", word)
        if cm:
            k = int(cm.group(1))
            if not 1 <= k <= self.n:
                self.error(f"constant e{k} out of 1..{self.n}")
            return Const(k, "e")
        return Var(word)

    def apply(self, word: str, d, args: list) -> Term:
        """The node of head word over its parsed arguments, checking its arity."""
        if word == "q":
            if len(args) != self.n + 1:
                self.error(f"q takes {self.n + 1} arguments, got {len(args)}")
            return Q(args[0], tuple(args[1:]))
        if word == "t":
            if len(args) != 3:
                self.error("t takes 3 arguments")
            return T(d, *args)
        if len(args) != 2:
            self.error(f"{word} takes 2 arguments")
        return Bin(word, d, *args)


def parse_term(text: str, n: int) -> Term:
    """Parse a term; raises TermError with a position on bad input."""
    parser = _Parser(text, n)
    t = parser.parse_term()
    if parser.text[parser.pos:].strip():
        parser.error("trailing input")
    return t


def print_term(t: Term) -> str:
    def text(s, args):
        if isinstance(s, Var):
            return s.name
        if isinstance(s, Const):
            return f"{'e' if s.style == 'e' else '0'}{s.k}"
        if isinstance(s, Q):
            head = "q"
        else:
            head = ("t" if isinstance(s, T) else s.kind) + "[" + ",".join(map(str, sorted(s.d))) + "]"
        return head + "(" + ",".join(args) + ")"

    return fold(t, children, text)


def free_vars(t: Term) -> list:
    """Free variables in first-occurrence order."""
    return list(dict.fromkeys(s.name for s in subterms(t) if isinstance(s, Var)))


# -- elaboration to q, and lowering to a straight-line program ----------


def checked_children(s, n: int) -> tuple:
    """children(s); TermError for a q node without n branches or a node outside the grammar."""
    if isinstance(s, (Var, Const)):
        return ()
    if isinstance(s, Q) and len(s.branches) != n:
        raise TermError(f"q node has {len(s.branches)} branches, expected {n}")
    if isinstance(s, Bin) and not s.d:
        raise TermError("empty subscript")
    if not isinstance(s, (Q, T)) and not (isinstance(s, Bin) and s.kind in BINARY):
        raise TermError(f"unknown node {s!r}")
    return children(s)


def q_form(s, n: int, args, const) -> tuple:
    """(scrutinee, branches) of the q node that defines the Q, T or Bin node s, whose
    children stand as args; const(k, style) stands for the constant e_k (or 0_k)."""
    if isinstance(s, Q):
        return args[0], tuple(args[1:])
    if isinstance(s, Bin):
        outside = set(range(1, n + 1)) - s.d
        one = const(min(outside), "e") if outside else None  # 1_j, j smallest outside d
        args = BINARY[s.kind](*args, const(min(s.d), "0"), one)
        if any(a is None for a in args):
            raise TermError(f"{s.kind} needs an index outside the subscript")
    x, y, z = args
    return x, t_branches(n, s.d, y, z)


def elaborate(t: Term, n: int) -> Term:
    """Rewrite T/Bin nodes into their defining Q form.

    A node shared in t is rewritten once, so the result shares it too, as
    do the y and z that t_branches repeats.
    """
    rewrite = lambda s, args: s if isinstance(s, (Var, Const)) else Q(*q_form(s, n, args, Const))
    return fold(t, lambda s: checked_children(s, n), rewrite)


class Program(NamedTuple):
    """Steps (op, args, dead), run in order, each making one value; the steps of the roots."""
    steps: tuple
    roots: tuple


def op_kids(t) -> tuple:
    """The arguments of an operation term: none for a name."""
    return () if isinstance(t, str) else t[1:]


def lower(roots, n: Optional[int] = None) -> Program:
    """The program of roots: terms at dimension n, or operation terms (a name, or a
    tuple (op, *args)) when n is None.

    One fold over the distinct nodes of all roots, by identity, makes one step
    of each; its memo is also its keep set, so it keeps every step index and
    makes no shared_nodes walk.  A variable or constant is a name step (args
    None), one per name; a Q, T or Bin node is one q step, and a tuple one
    step of its op, whose args are the steps of its arguments.  dead lists
    the steps whose values the step reads last, other than the roots.
    """
    roots, steps, names = tuple(roots), [], {}

    def name(s):
        if s not in names:
            names[s] = len(steps)
            steps.append((s, None, []))
        return names[s]

    def step(s, args):
        if isinstance(s, (str, Var, Const)):
            return name(s if isinstance(s, str) else s.name if isinstance(s, Var) else f"e{s.k}")
        if n is None:
            steps.append((s[0], tuple(args), []))
        else:
            x, branches = q_form(s, n, args, lambda k, style: name(f"e{k}"))
            steps.append(("q", (x, *branches), []))
        return len(steps) - 1

    kids, memo = (op_kids if n is None else lambda s: checked_children(s, n)), {}
    outs = tuple(fold(t, kids, step, memo, memo) for t in roots)
    read = set(outs)
    for _, args, dead in reversed(steps):  # walking back, the first read of a step is its last
        dead += [a for a in dict.fromkeys(args or ()) if a not in read]
        read.update(dead)
    return Program(tuple(steps), outs)


def run(program: Program, env: dict, ops: dict) -> tuple:
    """The values of program's roots, freeing each other value after its last read.

    A name is looked up in env (the variables), then in ops (constants, as
    scalars that broadcast); ops[op] applies by indexing a table or by calling.
    """
    vals = []
    for op, args, dead in program.steps:
        if args is not None:
            f, xs = ops[op], [vals[a] for a in args]
            vals.append(gather(f, xs) if isinstance(f, np.ndarray) else f(*xs))
            xs = None  # hold no argument past its last read
        elif op in env or op in ops:
            vals.append(env[op] if op in env else ops[op])
        else:
            raise TermError(f"unbound variable {op!r}")
        for a in dead:
            vals[a] = None
    return tuple(vals[r] for r in program.roots)


def q_ops(alg) -> dict:
    """The q signature of an algebra as operations: q and the constants e1..en."""
    ops = {f"e{k}": alg.constant_index(k) for k in range(1, alg.n + 1)}
    ops["q"] = lambda s, *ys: alg.q_vec(s, ys)
    return ops


def eval_term(t: Term, env: dict, alg) -> tuple:
    """Evaluate a term in a power algebra; env maps names to Elements, each one checked
    after any unbound variable is named.  One run in generator(n): alg.pointwise."""
    program, ops = lower([t], alg.n), q_ops(generator(alg.n))
    if unbound := [op for op, a, _ in program.steps if a is None and op not in env | ops]:
        raise TermError(f"unbound variable {unbound[0]!r}")
    return alg.pointwise(lambda *vals: run(program, dict(zip(env, vals)), ops)[0],
                         list(map(tuple, env.values())))


def eval_vec(t: Term, env: dict, alg):
    """Evaluate over arrays of carrier indices (env: name -> index array); constants
    evaluate to scalars, which broadcast against the arrays."""
    return run(lower([t], alg.n), env, q_ops(alg))[0]


# -- identity checking against the n-element generator -------------------


@dataclass(frozen=True)
class Verdict:
    valid: bool
    mode: str  # "exhaustive" or "sampled"
    counterexample: Optional[dict] = None
    samples: Optional[int] = None
    seed: Optional[int] = None

    def __bool__(self):
        return self.valid


class BudgetExceeded(RuntimeError):
    """Raised when an exhaustive check would exceed the budget."""


@functools.lru_cache(maxsize=1)
def _stream(size: int, samples: int, seed: int) -> tuple:
    """The generator of the one cached sample stream, and the arrays drawn from it."""
    return np.random.default_rng(seed), []


def seeded_draws(size: int, samples: int, seed: int, nvars: int) -> list:
    """Array t is the t-th default_rng(seed).integers(0, size, samples) draw, t < nvars.

    Drawn once per process, read-only, in the smallest unsigned dtype that
    holds size - 1; fewer variables read a prefix of the same arrays.
    """
    rng, arrays = _stream(size, samples, seed)
    while len(arrays) < nvars:
        a = rng.integers(0, size, size=samples, dtype=np.int64).astype(np.min_scalar_type(size - 1))
        a.flags.writeable = False
        arrays.append(a)
    return arrays[:nvars]


def assignment_chunks(nvars: int, size: int, mode: str, budget: int, samples: int,
                      seed: int, grid: bool = False) -> Iterator[list]:
    """Assignments of nvars variables to range(size), in chunks of at most CHUNK rows.

    Each chunk is a list of nvars index arrays, row r of the chunk being one
    assignment.  Exhaustive mode enumerates all size**nvars assignments with
    variable 0 varying fastest, and raises BudgetExceeded if there are more
    than budget; sampled mode reads samples seeded rows (seeded_draws).  With
    no variables there is one assignment, the empty one: one chunk of no arrays.
    The fast variables, those whose combined range fits in CHUNK rows, run
    within a chunk; when none fits, variable 0 runs through CHUNK-sized
    slices of its range.

    With grid, an exhaustive chunk is an open grid instead: each fast
    variable t an arange along axis -1-t, each slow one an int, so the
    assignments are the broadcast rows in C order.
    """
    if mode == "sampled":
        arrays = seeded_draws(size, samples, seed, nvars)
        for lo in range(0, samples, CHUNK) if arrays else [0]:
            yield [a[lo:lo + CHUNK].astype(np.int64) for a in arrays]
        return
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    total = size**nvars
    if total > budget:
        raise BudgetExceeded(
            f"{size}^{nvars} = {total} assignments exceed the budget {budget}; "
            "use sampled mode"
        )
    # the fast variables run through a fixed tile; each slow one is constant per chunk
    fast = 0
    while fast < nvars and size ** (fast + 1) <= CHUNK:
        fast += 1
    if fast == 0 < nvars:  # the slices are the innermost loop, so variable 0 stays fastest
        fast, tiles = 1, [[np.arange(lo, min(lo + CHUNK, size), dtype=np.int64)]
                          for lo in range(0, size, CHUNK)]
    elif grid:
        tiles = [[np.arange(size, dtype=np.int64).reshape((size,) + (1,) * t) for t in range(fast)]]
    else:
        idx = np.arange(size**fast, dtype=np.int64)
        tiles = [[(idx // size**t) % size for t in range(fast)]]
    for slow in itertools.product(range(size), repeat=nvars - fast):
        for tile in tiles:
            rows = len(tile[0]) if tile else 1
            yield tile + [v if grid else np.full(rows, v, dtype=np.int64) for v in reversed(slow)]


def first_witness(nvars: int, size: int, mode: str, budget: int, samples: int,
                  seed: int, differ) -> tuple:
    """Stream the grid assignment_chunks until differ(chunk) flags a row.

    differ maps a chunk to a boolean array that broadcasts to its rows.
    Returns (the first flagged assignment as a list of indices, or None;
    the number of assignments evaluated).
    """
    count = 0
    for chunk in assignment_chunks(nvars, size, mode, budget, samples, seed, True):
        # np.broadcast is the cheap shape, for up to 32 arguments; a scalar chunk is one row
        shape = (np.broadcast(*chunk).shape if 0 < len(chunk) <= 32
                 else np.broadcast_shapes(*map(np.shape, chunk))) or (1,)
        count += math.prod(shape)
        flags = differ(chunk)
        if np.any(flags):  # most chunks hold no witness: locate one only where there is
            bad = np.flatnonzero(np.broadcast_to(flags, shape))[0]
            return [int(np.broadcast_to(a, shape).flat[bad]) for a in chunk], count
    return None, count


def check_identity(
    lhs: Term,
    rhs: Term,
    n: int,
    mode: str = "exhaustive",
    budget: int = DEFAULT_BUDGET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> Verdict:
    """Check lhs = rhs in the n-element generator (hence in the variety).

    Exhaustive verdicts are sound and complete for the variety; sampled
    Valid verdicts are only probabilistic, sampled counterexamples exact.
    Its variables are the lowered pair's name steps, constants aside: first occurrence.
    """
    ops, program = q_ops(generator(n)), lower((lhs, rhs), n)
    names = [op for op, a, _ in program.steps if a is None and not re.fullmatch(r"e\d+", op)]
    drawn = {"samples": samples, "seed": seed} if mode == "sampled" else {}

    def differ(chunk):
        left, right = run(program, dict(zip(names, chunk)), ops)
        return left != right

    wit, _ = first_witness(len(names), n, mode, budget, samples, seed, differ)
    if wit is None:
        return Verdict(True, mode, **drawn)
    cex = {name: f"e{v + 1}" for name, v in zip(names, wit)}
    return Verdict(False, mode, counterexample=cex, **drawn)
