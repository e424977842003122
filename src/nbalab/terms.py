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
star_chain (q in the skew-star signature).  children and subterms walk terms.

Every evaluation, here and in the axiom audits of nbalab.skew, runs on
operation terms: a name, or a tuple (op, *args).  evaluate(t, env, ops)
looks a name up in env (the variables) and then in ops (constants, as
scalars that broadcast), and applies ops[op] by indexing a table or by
calling a function.  eval_term and eval_vec elaborate a parsed term into
this form over q and e1..en.  first_witness streams the assignments of a
check in chunks and stops at the first row where the two sides differ.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .core import generator

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


def subterms(t: Term) -> Iterator:
    """t and its subterms in preorder, walked without recursion."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(reversed(children(s)))


# -- parsing / printing -------------------------------------------------

_TOKEN = re.compile(r"\s*(?:([a-z][a-z0-9_]*)|(\d+)|([(),\[\]]))")


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0

    def error(self, msg: str):
        raise TermError(f"{msg} at position {self.pos} in {self.text!r}")

    def peek(self):
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            return None, self.pos
        return m, m.end()

    def next_token(self):
        m, end = self.peek()
        if m is None:
            self.error("unexpected character" if self.pos < len(self.text) else "unexpected end")
        self.pos = end
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

    def parse_args(self):
        self.expect("(")
        args = [self.parse_term()]
        while True:
            m = self.next_token()
            if m.group(3) == ")":
                return args
            if m.group(3) != ",":
                self.error("expected ',' or ')'")
            args.append(self.parse_term())

    def parse_term(self) -> Term:
        m = self.next_token()
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
        if word == "q":
            args = self.parse_args()
            if len(args) != self.n + 1:
                self.error(f"q takes {self.n + 1} arguments, got {len(args)}")
            return Q(args[0], tuple(args[1:]))
        if word == "t" or word in BIN_KINDS:
            d = self.parse_subscript()
            args = self.parse_args()
            if word == "t":
                if len(args) != 3:
                    self.error("t takes 3 arguments")
                return T(d, *args)
            if len(args) != 2:
                self.error(f"{word} takes 2 arguments")
            return Bin(word, d, *args)
        cm = re.fullmatch(r"e(\d+)", word)
        if cm:
            k = int(cm.group(1))
            if not 1 <= k <= self.n:
                self.error(f"constant e{k} out of 1..{self.n}")
            return Const(k, "e")
        return Var(word)


def parse_term(text: str, n: int) -> Term:
    """Parse a term; raises TermError with a position on bad input."""
    parser = _Parser(text, n)
    t = parser.parse_term()
    if parser.text[parser.pos:].strip():
        parser.error("trailing input")
    return t


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return f"{'e' if t.style == 'e' else '0'}{t.k}"
    if isinstance(t, Q):
        head = "q"
    else:
        head = ("t" if isinstance(t, T) else t.kind) + "[" + ",".join(map(str, sorted(t.d))) + "]"
    return head + "(" + ",".join(print_term(s) for s in children(t)) + ")"


def free_vars(t: Term) -> list:
    """Free variables in first-occurrence order."""
    return list(dict.fromkeys(s.name for s in subterms(t) if isinstance(s, Var)))


# -- elaboration of derived operators to q ------------------------------


def elaborate(t: Term, n: int) -> Term:
    """Rewrite T/Bin nodes into their defining Q form."""
    if isinstance(t, (Var, Const)):
        return t
    if isinstance(t, Bin) and not t.d:
        raise TermError("empty subscript")
    if not (isinstance(t, (Q, T)) or isinstance(t, Bin) and t.kind in BINARY):
        raise TermError(f"unknown node {t!r}")
    args = [elaborate(s, n) for s in children(t)]
    if isinstance(t, Q):
        return Q(args[0], tuple(args[1:]))
    if isinstance(t, Bin):
        outside = set(range(1, n + 1)) - t.d
        one = Const(min(outside), "e") if outside else None  # 1_j, j smallest outside d
        args = BINARY[t.kind](*args, Const(min(t.d), "0"), one)
        if any(a is None for a in args):
            raise TermError(f"{t.kind} needs an index outside the subscript")
    x, y, z = args
    return Q(x, t_branches(n, t.d, y, z))


# -- evaluation ---------------------------------------------------------


def eval_term(t: Term, env: dict, alg) -> tuple:
    """Evaluate a term in a power algebra; env maps names to Elements."""
    ops = {f"e{k}": alg.constant(k) for k in range(1, alg.n + 1)}
    ops["q"] = lambda s, *ys: alg.q(s, ys)
    env = {name: tuple(v) for name, v in env.items()}
    return evaluate(op_term(elaborate(t, alg.n), alg.n), env, ops)


def evaluate(t, env: dict, ops: dict):
    """Evaluate an operation term: a name (env, then ops) or a tuple (op, *args)."""
    if isinstance(t, str):
        if t in env:
            return env[t]
        if t in ops:
            return ops[t]
        raise TermError(f"unbound variable {t!r}")
    op, args = ops[t[0]], [evaluate(a, env, ops) for a in t[1:]]
    return op[tuple(args)] if isinstance(op, np.ndarray) else op(*args)


def q_ops(alg) -> dict:
    """The q signature of an algebra as operations: q and the constants e1..en."""
    ops = {f"e{k}": alg.constant_index(k) for k in range(1, alg.n + 1)}
    ops["q"] = lambda s, *ys: alg.q_vec(s, ys)
    return ops


def op_term(t: Term, n: int):
    """An elaborated q-signature term as an operation term over q_ops."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return f"e{t.k}"
    if len(t.branches) != n:
        raise TermError(f"q node has {len(t.branches)} branches, expected {n}")
    return ("q", *(op_term(s, n) for s in children(t)))


def eval_vec(t: Term, env: dict, alg):
    """Evaluate over arrays of carrier indices (env: name -> index array).

    Constants evaluate to scalars, which broadcast against the arrays.
    """
    return evaluate(op_term(elaborate(t, alg.n), alg.n), env, q_ops(alg))


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


def assignment_chunks(nvars: int, size: int, mode: str, budget: int, samples: int,
                      seed: int) -> Iterator[list]:
    """Assignments of nvars variables to range(size), in chunks of at most CHUNK rows.

    Each chunk is a list of nvars index arrays, row r of the chunk being one
    assignment.  Exhaustive mode enumerates all size**nvars assignments with
    variable 0 varying fastest, and raises BudgetExceeded if there are more
    than budget; sampled mode draws samples seeded rows.  With no variables
    there is one assignment, the empty one: one chunk of no arrays.
    """
    if mode == "sampled":
        rng = np.random.default_rng(seed)
        arrays = [rng.integers(0, size, size=samples, dtype=np.int64) for _ in range(nvars)]
        for lo in range(0, samples, CHUNK) if arrays else [0]:
            yield [a[lo:lo + CHUNK] for a in arrays]
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
    rows = size**fast
    idx = np.arange(rows, dtype=np.int64)
    tile = [(idx // size**t) % size for t in range(fast)]
    for slow in itertools.product(range(size), repeat=nvars - fast):
        yield tile + [np.full(rows, v, dtype=np.int64) for v in reversed(slow)]


def first_witness(nvars: int, size: int, mode: str, budget: int, samples: int,
                  seed: int, differ) -> tuple:
    """Stream assignment_chunks until differ(chunk) flags a row.

    differ maps a chunk to a boolean array that broadcasts to its rows.
    Returns (the first flagged assignment as a list of indices, or None;
    the number of assignments evaluated).
    """
    count = 0
    for chunk in assignment_chunks(nvars, size, mode, budget, samples, seed):
        rows = len(chunk[0]) if chunk else 1
        count += rows
        bad = np.flatnonzero(np.broadcast_to(differ(chunk), rows))
        if bad.size:
            return [int(a[bad[0]]) for a in chunk], count
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
    """
    ops = q_ops(generator(n))
    left, right = (op_term(elaborate(t, n), n) for t in (lhs, rhs))
    names = list(dict.fromkeys(free_vars(lhs) + free_vars(rhs)))
    drawn = {"samples": samples, "seed": seed} if mode == "sampled" else {}

    def differ(chunk):
        env = dict(zip(names, chunk))
        return evaluate(left, env, ops) != evaluate(right, env, ops)

    wit, _ = first_witness(len(names), n, mode, budget, samples, seed, differ)
    if wit is None:
        return Verdict(True, mode, **drawn)
    cex = {name: f"e{v + 1}" for name, v in zip(names, wit)}
    return Verdict(False, mode, counterexample=cex, **drawn)
