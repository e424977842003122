"""Reference answers computed without the code under test.

Everything here is written from the definitions of the paper's objects,
with numpy only.  The benchmark checks every answer the program gives
against these functions; none of them imports nbalab.

Conventions shared with the program's input and output formats: the
elements of the full power n^m are value vectors in 1..n, indexed by
their base-n code with the first point most significant; generator
values are 1..n.
"""

from __future__ import annotations

import functools
import itertools
import re

import numpy as np


# -- full powers by index arithmetic ------------------------------------------


@functools.lru_cache(maxsize=None)
def digits(n: int, m: int) -> np.ndarray:
    """(n**m, m) array of 0-based values; row i is element i of n^m.  Read-only."""
    idx = np.arange(n**m, dtype=np.int64)
    out = np.stack([(idx // n ** (m - 1 - p)) % n for p in range(m)], axis=1)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def power_q_table(n: int, m: int) -> np.ndarray:
    """Dense q table of n^m, shape (n**m,)*(n+1), built digit by digit.  Read-only."""
    s = n**m
    dig = digits(n, m)
    shape1 = [1] * (n + 1)
    out = np.zeros((s,) * (n + 1), dtype=np.int64)
    for p in range(m):
        weight = n ** (m - 1 - p)
        col = dig[:, p]
        sel = col.reshape([s] + [1] * n)
        for v in range(n):
            shape = list(shape1)
            shape[v + 1] = s
            branch = col.reshape(shape)
            out += np.where(sel == v, branch, 0) * weight
    out.flags.writeable = False
    return out


def constant_index(n: int, m: int, k: int) -> int:
    """Index of e_k = (k, ..., k) in n^m."""
    return sum((k - 1) * n**p for p in range(m))


def element_index(values, n: int) -> int:
    idx = 0
    for v in values:
        idx = idx * n + (v - 1)
    return idx


def label_index(label: str, n: int) -> int:
    """Carrier index from a program label: '#i' (raw table) or '[v,...]' (power)."""
    if label.startswith("#"):
        return int(label[1:])
    return element_index([int(v) for v in label.strip("[]").split(",")], n)


# -- the NBA axioms B0-B4, evaluated at one assignment ---------------------------


def nba_axiom_sides(name: str, env: dict, table: np.ndarray, consts) -> tuple:
    """(lhs, rhs) of the named NBA axiom at one assignment of carrier indices.

    B0[i]: q(e_i, x1..xn) = xi.  B1: q(y, x..x) = x.
    B2: q(y, q(y, x_r1..x_rn) for r) = q(y, x_11..x_nn).
    B3: q(y, q(x_r0, x_r1..x_rn) for r) = q(q(y, x_10..x_n0), q(y, x_1c..x_nc) for c).
    B4: q(y, e1..en) = y.
    """
    n = table.ndim - 1

    def q(s, ys):
        return int(table[(s, *ys)])

    rng = range(1, n + 1)
    if name.startswith("B0["):
        i = int(name[3:-1])
        xs = [env[f"x{t}"] for t in rng]
        return q(consts[i - 1], xs), xs[i - 1]
    if name == "B1":
        return q(env["y"], [env["x"]] * n), env["x"]
    if name == "B2":
        y = env["y"]
        rows = [q(y, [env[f"x{r}{c}"] for c in rng]) for r in rng]
        return q(y, rows), q(y, [env[f"x{k}{k}"] for k in rng])
    if name == "B3":
        y = env["y"]
        lhs = q(y, [q(env[f"x{r}0"], [env[f"x{r}{c}"] for c in rng]) for r in rng])
        scr = q(y, [env[f"x{r}0"] for r in rng])
        rhs = q(scr, [q(y, [env[f"x{r}{c}"] for r in rng]) for c in rng])
        return lhs, rhs
    if name == "B4":
        return q(env["y"], list(consts)), env["y"]
    raise KeyError(f"no reference for axiom {name!r}")


def nba_witness_holds(name: str, cex: dict, table: np.ndarray, consts, n: int) -> bool:
    """True when the reported counterexample really breaks the axiom."""
    env = {var: label_index(lab, n) for var, lab in cex.items()}
    lhs, rhs = nba_axiom_sides(name, env, table, consts)
    return lhs != rhs


# -- terms over the n-element generator ------------------------------------------
#
# A term is ('v', name) | ('e', k) | ('q', scrutinee, branches) | ('t', d, x, y, z).

_TOKEN = re.compile(r"\s*(?:([a-z][a-z0-9_]*)|(\d+)|([(),\[\]]))")


def parse(text: str) -> tuple:
    """Parse the q/t fragment of the program's printed term syntax."""
    toks = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"bad term text at {pos}: {text!r}")
        toks.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    out, end = _parse_at(toks, 0)
    if end != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return out


def _parse_args(toks, i):
    if toks[i] != "(":
        raise ValueError("expected '('")
    args = []
    i += 1
    while True:
        arg, i = _parse_at(toks, i)
        args.append(arg)
        if toks[i] == ")":
            return args, i + 1
        if toks[i] != ",":
            raise ValueError("expected ',' or ')'")
        i += 1


def _parse_at(toks, i):
    tok = toks[i]
    if tok.isdigit() and tok.startswith("0") and len(tok) > 1:
        return ("e", int(tok[1:])), i + 1
    if tok == "q":
        args, i = _parse_args(toks, i + 1)
        return ("q", args[0], tuple(args[1:])), i
    if tok == "t":
        if toks[i + 1] != "[":
            raise ValueError("expected subscript")
        j = i + 2
        d = set()
        while toks[j] != "]":
            if toks[j] != ",":
                d.add(int(toks[j]))
            j += 1
        args, i = _parse_args(toks, j + 1)
        return ("t", frozenset(d), *args), i
    if re.fullmatch(r"e\d+", tok):
        return ("e", int(tok[1:])), i + 1
    if re.fullmatch(r"[a-z][a-z0-9_]*", tok):
        return ("v", tok), i + 1
    raise ValueError(f"unexpected token {tok!r}")


def to_text(t: tuple) -> str:
    """Print a reference term in the program's input syntax."""
    kind = t[0]
    if kind == "v":
        return t[1]
    if kind == "e":
        return f"e{t[1]}"
    if kind == "q":
        return "q(" + ",".join(to_text(s) for s in (t[1], *t[2])) + ")"
    sub = ",".join(str(k) for k in sorted(t[1]))
    return f"t[{sub}](" + ",".join(to_text(s) for s in t[2:]) + ")"


def from_program(node, memo=None) -> tuple:
    """Read a program term object (Var/Const/Q/T) into a reference term.

    Only the objects' fields are read; shared subterms stay shared.
    """
    memo = {} if memo is None else memo
    key = id(node)
    if key in memo:
        return memo[key]
    kind = type(node).__name__
    if kind == "Var":
        out = ("v", node.name)
    elif kind == "Const":
        out = ("e", node.k)
    elif kind == "Q":
        out = ("q", from_program(node.scrutinee, memo),
               tuple(from_program(b, memo) for b in node.branches))
    elif kind == "T":
        out = ("t", frozenset(node.d), from_program(node.x, memo),
               from_program(node.y, memo), from_program(node.z, memo))
    else:
        raise ValueError(f"no reference semantics for {kind}")
    memo[key] = out
    return out


def variables(t: tuple, acc=None) -> list:
    acc = [] if acc is None else acc
    seen = set(acc)
    stack = [t]
    done = set()
    while stack:
        s = stack.pop()
        if id(s) in done:
            continue
        done.add(id(s))
        if s[0] == "v":
            if s[1] not in seen:
                seen.add(s[1])
                acc.append(s[1])
        elif s[0] == "q":
            stack.extend(reversed((s[1], *s[2])))
        elif s[0] == "t":
            stack.extend(reversed(s[2:]))
    return acc


def evaluate(t: tuple, env: dict, n: int, memo=None) -> np.ndarray:
    """Value arrays (1..n) of a term in the generator, env: name -> array."""
    memo = {} if memo is None else memo
    key = id(t)
    if key in memo:
        return memo[key]
    kind = t[0]
    if kind == "v":
        out = env[t[1]]
    elif kind == "e":
        ref = next(iter(env.values()))
        out = np.full_like(ref, t[1])
    elif kind == "q":
        s = evaluate(t[1], env, n, memo)
        branches = [evaluate(b, env, n, memo) for b in t[2]]
        out = np.choose(s - 1, branches)
    else:
        d, x, y, z = t[1:]
        xs = evaluate(x, env, n, memo)
        inside = np.isin(xs, sorted(d))
        out = np.where(inside, evaluate(z, env, n, memo), evaluate(y, env, n, memo))
    memo[key] = out
    return out


def all_assignments(names, n: int) -> dict:
    """Every assignment of generator values to names, as parallel arrays."""
    k = len(names)
    idx = np.arange(max(n**k, 1), dtype=np.int64)
    env = {name: (idx // n ** (k - 1 - p)) % n + 1 for p, name in enumerate(names)}
    if not names:
        env["_"] = np.ones(1, dtype=np.int64)
    return env


def truth_table_of(t: tuple, n: int, k: int) -> np.ndarray:
    """Entries of a term in x1..xk, first argument slowest-varying."""
    names = [f"x{s}" for s in range(1, k + 1)]
    env = all_assignments(names, n)
    return np.broadcast_to(evaluate(t, env, n), (n**k,))


def witness_breaks(lhs: tuple, rhs: tuple, cex: dict, n: int) -> bool:
    """A counterexample of generator labels 'e<k>' really separates lhs and rhs."""
    env = {name: np.array([int(lab[1:])], dtype=np.int64) for name, lab in cex.items()}
    env.setdefault("_", np.ones(1, dtype=np.int64))
    for name in variables(lhs) + variables(rhs):
        if name not in env:
            return False
    return int(evaluate(lhs, env, n)[0]) != int(evaluate(rhs, env, n)[0])


def identity_holds(lhs: tuple, rhs: tuple, n: int) -> bool:
    """Exhaustive reference decision; only for small variable counts."""
    names = variables(lhs, variables(rhs))
    env = all_assignments(names, n)
    return bool(np.all(evaluate(lhs, env, n) == evaluate(rhs, env, n)))


# -- congruences, homomorphisms and embeddings of full powers ----------------------


def canonical(blocks) -> tuple:
    relabel = {}
    return tuple(relabel.setdefault(b, len(relabel)) for b in blocks)


def projection_kernel(dig: np.ndarray, coords) -> tuple:
    """Blocks of the kernel of the projection onto the given coordinates."""
    coords = sorted(coords)
    if not coords:
        return (0,) * dig.shape[0]
    return canonical(tuple(row) for row in dig[:, coords].tolist())


def power_congruences(n: int, m: int) -> set:
    """All 2^m congruences of n^m: the kernels of the coordinate projections."""
    dig = digits(n, m)
    return {projection_kernel(dig, s)
            for r in range(m + 1) for s in itertools.combinations(range(m), r)}


def power_proper_multideals(n: int, m: int) -> set:
    """Constant classes (e_1/th, ..., e_n/th) of every non-total congruence."""
    dig = digits(n, m)
    out = set()
    for r in range(1, m + 1):
        for s in itertools.combinations(range(m), r):
            sub = dig[:, list(s)]
            out.add(tuple(frozenset(np.nonzero(np.all(sub == v, axis=1))[0].tolist())
                          for v in range(n)))
    return out


def power_ultras(n: int, m: int) -> set:
    """The m ultramultideals: G_v = {x : x_p = v} for each point p."""
    dig = digits(n, m)
    return {tuple(frozenset(np.nonzero(dig[:, p] == v)[0].tolist()) for v in range(n))
            for p in range(m)}


def power_homs(n: int, m: int) -> set:
    """The m homomorphisms onto the generator: the coordinate projections."""
    dig = digits(n, m)
    return {tuple((dig[:, p] + 1).tolist()) for p in range(m)}


def is_stone_isomorphism(images, n: int, m: int) -> bool:
    """images[x] (values 1..n) is a bijection of n^m onto n^k that preserves q."""
    img = np.asarray(images, dtype=np.int64)
    s = n**m
    if img.ndim != 2 or img.shape[0] != s:
        return False
    k = img.shape[1]
    if n**k != s or len({tuple(r) for r in img.tolist()}) != s:
        return False
    table = power_q_table(n, m)
    grids = np.indices((s,) * (n + 1)).reshape(n + 1, -1)
    lhs = img[table.reshape(-1)]
    sel = img[grids[0]] - 1
    branches = np.stack([img[grids[v]] for v in range(1, n + 1)])
    rhs = np.take_along_axis(branches, sel[None], axis=0)[0]
    return bool(np.array_equal(lhs, rhs))


# -- subpowers -------------------------------------------------------------------


def closure(n: int, m: int, gens) -> list:
    """Sorted indices of the subpower of n^m generated by the constants and gens."""
    table = power_q_table(n, m)
    current = {constant_index(n, m, k) for k in range(1, n + 1)} | set(gens)
    while True:
        arr = np.array(sorted(current), dtype=np.int64)
        found = set(np.unique(table[np.ix_(*([arr] * (n + 1)))]).tolist())
        if found <= current:
            return sorted(current)
        current |= found


def power_exponent(size: int, n: int):
    """j with n**j == size, or None."""
    j = 0
    while n**j < size:
        j += 1
    return j if n**j == size else None
