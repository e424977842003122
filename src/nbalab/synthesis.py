"""Truth-table-to-term compilation, sound simplification, verification.

Tables are row-major with the first argument slowest-varying.  The
compiler is a multiplexer (Shannon-style) expansion on the fundamental
selector; the simplifier applies the three contracting identities
innermost-first with a leftmost tie-break and records a trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import generator, json_int, json_ints
from .terms import Const, Q, Term, Var, children, eval_vec, free_vars


@dataclass(frozen=True)
class TruthTable:
    n: int
    k: int
    entries: tuple  # n^k values in 1..n, first argument slowest-varying

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if self.k < 0:
            raise ValueError("arity must be >= 0")
        if len(self.entries) != self.n**self.k:
            raise ValueError(f"expected {self.n ** self.k} entries, got {len(self.entries)}")
        for v in self.entries:
            if not 1 <= v <= self.n:
                raise ValueError(f"entry {v} out of 1..{self.n}")

    def lookup(self, args) -> int:
        pos = 0
        for a in args:
            pos = pos * self.n + (a - 1)
        return self.entries[pos]

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "entries": list(self.entries)}


def table_from_json(obj: dict) -> TruthTable:
    """The truth table a JSON object describes; ValueError (or KeyError) if it is malformed."""
    if not isinstance(obj, dict):
        raise ValueError(f"a truth table is a JSON object, got {type(obj).__name__}")
    return TruthTable(json_int(obj["n"], "n"), json_int(obj["k"], "k"),
                      json_ints(obj["entries"], "entries"))


def synth(table: TruthTable) -> Term:
    """Multiplexer expansion: q on x1 over the n sub-tables."""
    return _synth(table.n, table.k, table.entries, depth=1)


def _synth(n: int, k: int, entries: tuple, depth: int) -> Term:
    if k == 0:
        return Const(entries[0], "e")
    stride = n ** (k - 1)
    slices = [entries[v * stride:(v + 1) * stride] for v in range(n)]
    return Q(Var(f"x{depth}"),
             tuple(_synth(n, k - 1, s, depth + 1) for s in slices))


# -- simplification --------------------------------------------------------


@dataclass(frozen=True)
class RewriteStep:
    rule: str  # B0-const-scrutinee | B1-equal-branches | B4-identity-branches
    position: tuple  # path of child offsets from the root


def _rule_at(t: Term, n: int) -> Optional[tuple]:
    """A root redex, if any: (rule name, reduct)."""
    if not isinstance(t, Q):
        return None
    if isinstance(t.scrutinee, Const):
        return ("B0-const-scrutinee", t.branches[t.scrutinee.k - 1])
    if all(b == t.branches[0] for b in t.branches):
        return ("B1-equal-branches", t.branches[0])
    if all(isinstance(b, Const) and b.k == s + 1
           for s, b in enumerate(t.branches)):
        return ("B4-identity-branches", t.scrutinee)
    return None


def _simplify(t: Term, n: int, trace: list) -> Term:
    """The normal form of t, walked as a tree with its own stack.

    Each position is normalised after its children, left to right, so a
    shared subterm is rewritten and traced at every position it occupies.
    A reduct is one of the normalised children, so each node takes at most
    one rule.  A node outside the q signature is refused where the walk
    first reaches it, before any rewrite is returned.
    """
    path = []  # child offsets from the root to the node on top of the stack
    stack = [(t, children(t), [])]  # (node, its children, those normalised so far)
    while True:
        node, kids, done = stack[-1]
        if not isinstance(node, (Var, Const, Q)):
            raise ValueError("simplify handles q-signature terms only")
        if len(done) < len(kids):
            path.append(len(done))
            c = kids[len(done)]
            stack.append((c, children(c), []))
            continue
        stack.pop()
        if kids:
            node = Q(done[0], tuple(done[1:]))
        hit = _rule_at(node, n)
        if hit is not None:
            rule, node = hit
            trace.append(RewriteStep(rule, tuple(path)))
        if not stack:
            return node
        stack[-1][2].append(node)
        path.pop()


def simplify(t: Term, n: int) -> tuple:
    """Returns (normal form, trace); only q-signature terms are accepted."""
    trace: list = []
    out = _simplify(t, n, trace)
    return out, tuple(trace)


def _values(t: Term, n: int, k: int) -> np.ndarray:
    """t's values in 1..n over the n^k grid of x1..xk, first argument slowest."""
    idx = np.arange(n**k)
    env = {f"x{s}": idx // n ** (k - s) % n for s in range(1, k + 1)}
    return np.broadcast_to(eval_vec(t, env, generator(n)), idx.shape) + 1


def verify_term(t: Term, table: TruthTable) -> bool:
    """Exhaustive agreement of the term with the table."""
    if not set(free_vars(t)) <= {f"x{s}" for s in range(1, table.k + 1)}:
        return False
    return bool(np.array_equal(_values(t, table.n, table.k), table.entries))


def table_of_term(t: Term, n: int, k: int) -> TruthTable:
    return TruthTable(n, k, tuple(_values(t, n, k).tolist()))
