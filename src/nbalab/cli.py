"""Command-line front end.

Exit codes: 0 = success/valid, 1 = counterexample or invalid object,
2 = usage or file error.  Output is JSON unless --text is given, and is
deterministic for fixed inputs and flags; sampled modes print their seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys

from . import core, terms


def _emit(args, obj: dict, text: str = None):
    if args.text and text is not None:
        print(text)
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


class UsageError(Exception):
    pass


def _load(path: str, what: str, parse):
    """parse(the JSON value in the file at path); a UsageError if the file is unreadable
    or parse finds it malformed (ValueError, or KeyError for a missing field)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except KeyError as exc:
        raise UsageError(f"cannot load {what} from {path}: no field {exc}")
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load {what} from {path}: {exc}")


def _candidate(obj) -> list:
    """The components of a multideal candidate: lists of carrier indices or elements."""
    comps = obj["components"] if isinstance(obj, dict) else None
    if not isinstance(comps, list) or not all(isinstance(c, list) for c in comps):
        raise ValueError('a candidate is an object whose "components" is a list of lists')
    for x in itertools.chain.from_iterable(comps):
        if type(x) is not int and not (isinstance(x, list) and set(map(type, x)) <= {int}):
            raise ValueError(f"component entry {x!r} is neither a carrier index nor an element")
    return comps


def _load_nba(path: str):
    """Load an algebra for a command that assumes the nBA axioms.  One with coordinates()
    and a table with a Stone certificate (cached for the command) are nBAs.  Another table
    is audited, and a refuted axiom is reported with its counterexample; one that the audit,
    which may only sample, does not refute is an nBA iff the homs onto the generator that
    the certificate attempt found separate its points: they embed it in a power, and every
    finite nBA is one (n^0 for the one-element table)."""
    from . import ideals, skew

    alg = _load(path, "algebra", core.algebra_from_json)
    if alg.coordinates() is None and ideals.stone_certificate(alg) is None:
        fail = skew.check_axioms(alg, "NBA").first_failure()
        if fail is not None:
            raise ValueError(f"not an nBA: {fail.name} fails at {fail.counterexample}")
        try:
            ideals.all_homs_onto_generator(alg)
        except ValueError:
            raise ValueError(f"not an nBA: the table has no Stone certificate, and its homs onto "
                             f"generator({alg.n}) do not embed it in a power") from None
    return alg


# -- subcommands -----------------------------------------------------------


def _skew_reduct(alg, i):
    from .skew import reduct

    return reduct(alg, "skew", i=i)


def _star(alg, i):
    from .skew import star_of

    return star_of(alg)


# nba check --suite NAME: NAME -> (the skew suite, (alg, --i) -> the object it audits)
CHECK_SUITES = {
    "nba": ("NBA", lambda alg, i: alg),
    "skewba": ("SKEW_BA", _skew_reduct),
    "srca": ("SRCA", _skew_reduct),
    "skewstar": ("SKEW_STAR", _star),
    "skewlattice": ("SKEW_LATTICE", _skew_reduct),
}


def cmd_check(args) -> int:
    from . import skew

    alg = _load(args.algebra, "algebra", core.algebra_from_json)
    suite, audited = CHECK_SUITES[args.suite]
    report = skew.check_axioms(audited(alg, args.i), suite, budget=args.budget,
                               samples=args.samples, seed=args.seed)
    out = report.to_json()
    if report.sampled:
        out["samples"] = args.samples
        out["seed"] = args.seed
    lines = [f"suite {report.suite}: {'ok' if report.ok else 'FAIL'}"]
    for ax in report.axioms:
        lines.append(f"  {ax.name}: {'ok' if ax.ok else 'FAIL'} ({ax.mode})")
        if not ax.ok:
            lines.append(f"    counterexample: {ax.counterexample}")
    _emit(args, out, "\n".join(lines))
    return 0 if report.ok else 1


def cmd_eval(args) -> int:
    pairs = args.env or []
    points = max((len(v) for _, v in pairs if isinstance(v, tuple)), default=1)
    alg = core.power_algebra(args.n, points)
    env = {name: alg.constant(v) if isinstance(v, int) else v for name, v in pairs}
    t = terms.parse_term(args.term, args.n)
    result = terms.eval_term(t, env, alg)
    label = "[" + ",".join(map(str, result)) + "]"
    _emit(args, {"result": list(result)}, f"{args.term} = {label}")
    return 0


def cmd_equiv(args) -> int:
    lhs = terms.parse_term(args.lhs, args.n)
    rhs = terms.parse_term(args.rhs, args.n)
    mode = "sampled" if args.sampled else "exhaustive"
    try:
        verdict = terms.check_identity(lhs, rhs, args.n, mode=mode,
                                       budget=args.budget,
                                       samples=args.samples, seed=args.seed)
    except terms.BudgetExceeded:
        verdict = terms.check_identity(lhs, rhs, args.n, mode="sampled",
                                       samples=args.samples, seed=args.seed)
    out = {"valid": verdict.valid, "mode": verdict.mode}
    if verdict.mode == "sampled":
        out.update(samples=verdict.samples, seed=verdict.seed)
    if verdict.counterexample:
        out["counterexample"] = verdict.counterexample
    text = f"{'Valid' if verdict.valid else 'Counterexample'} ({verdict.mode})"
    if verdict.counterexample:
        text += ": " + ", ".join(f"{k}={v}" for k, v in verdict.counterexample.items())
    _emit(args, out, text)
    return 0 if verdict.valid else 1


def cmd_translate(args) -> int:
    from . import transforms

    t = terms.parse_term(args.term, args.n)
    out = transforms.translate_term(t, args.to, args.n, i=args.i)
    # the printed tree repeats a shared node under each parent: count its nodes on the DAG
    sizes = {}
    nodes = terms.fold(out, terms.children, lambda s, kids: 1 + sum(kids), sizes, sizes)
    if nodes > core.TABLE_BOUND:
        raise ValueError(f"the translated term prints as a tree past the bound of "
                         f"{core.TABLE_BOUND} nodes ({len(sizes)} distinct nodes)")
    printed = terms.print_term(out)
    _emit(args, {"term": printed}, printed)
    return 0


def cmd_synth(args) -> int:
    from . import synthesis

    table = _load(args.table, "table", synthesis.table_from_json)
    t = synthesis.synth(table)
    out = {"term": terms.print_term(t), "verified": synthesis.verify_term(t, table)}
    if args.simplify:
        simp, trace = synthesis.simplify(t, table.n)
        out["simplified"] = terms.print_term(simp)
        out["rewrites"] = [{"rule": s.rule, "position": list(s.position)} for s in trace]
        out["simplified_verified"] = synthesis.verify_term(simp, table)
    text = out.get("simplified", out["term"])
    _emit(args, out, text)
    ok = out["verified"] and out.get("simplified_verified", True)
    return 0 if ok else 1


def cmd_congruences(args) -> int:
    from . import ideals

    alg = _load_nba(args.algebra)
    cons = ideals.all_congruences(alg)
    mids = [ideals.multideal_of(th) for th in cons if not th.is_total]
    out = {
        "count": len(cons),
        "congruences": [c.to_json() for c in cons],
        "proper_multideals": [m.to_json() for m in mids],
    }
    text = f"{len(cons)} congruences, {len(mids)} proper multideals"
    _emit(args, out, text)
    return 0


def cmd_multideals(args) -> int:
    from . import ideals

    alg = _load_nba(args.algebra)
    if args.validate:
        res = ideals.validate_multideal(alg, _load(args.validate, "candidate", _candidate))
        out = {"status": res.status}
        if res.clause:
            out["clause"] = res.clause
        if res.witness:
            out["witness"] = {k: str(v) for k, v in res.witness.items()}
        _emit(args, out, res.status)
        return 0 if res.status in ("proper", "degenerate") else 1
    mids = ideals.all_proper_multideals(alg)
    out = {"count": len(mids), "multideals": [m.to_json() for m in mids]}
    _emit(args, out, f"{len(mids)} proper multideals")
    return 0


def cmd_ultras(args) -> int:
    from . import ideals

    alg = _load(args.algebra, "algebra", core.algebra_from_json)
    ultras = ideals.all_ultramultideals(alg)
    for u in ultras:
        ideals.hom_of_ultra(u)  # raises ValueError unless u induces a homomorphism
    out = {"count": len(ultras), "ultramultideals": [u.to_json() for u in ultras]}
    _emit(args, out, f"{len(ultras)} ultramultideals")
    return 0


def cmd_embed(args) -> int:
    from . import ideals

    alg = _load(args.algebra, "algebra", core.algebra_from_json)
    emb = ideals.stone_embed(alg)
    out = {
        "target": emb.target.to_json(),
        "images": [list(img) for img in emb.images],
        "injective": emb.injective,
        "preserves_q": emb.preserves_q(),
        "isomorphism": emb.is_isomorphism,
    }
    text = (f"embeds into {alg.n}^{emb.target.points}; "
            f"{'isomorphism' if emb.is_isomorphism else 'proper embedding'}")
    _emit(args, out, text)
    return 0 if out["injective"] and out["preserves_q"] else 1


def cmd_reduct(args) -> int:
    from . import skew

    if args.kind == "church" and (args.d is None or args.j is None):
        raise UsageError("--kind church needs --d and --j")
    alg = _load(args.algebra, "algebra", core.algebra_from_json)
    red = skew.reduct(alg, args.kind, i=args.i, d=args.d, j=args.j)
    if args.kind == "skew":
        out = {
            "kind": "skew", "i": args.i, "zero": red.zero,
            "meet": red.meet.tolist(), "join": red.join.tolist(),
            "minus": red.minus.tolist(), "labels": list(red.labels),
        }
    elif args.kind == "rchurch":
        out = {"kind": "rchurch", "i": args.i, "zero": red.zero,
               "t": red.q3.tolist(), "labels": list(red.labels)}
    else:
        out = {"kind": "church", "d": sorted(red.d), "zero": red.zero,
               "one": red.one, "t": red.q3.tolist(), "labels": list(red.labels)}
    _emit(args, out, f"{args.kind} reduct over {red.size} elements")
    return 0


def cmd_represent(args) -> int:
    from . import representation

    rep = representation.verify_embedding(args.points, args.n, args.i)
    out = {"ok": rep.ok, "injective": rep.injective}
    if rep.failure:
        out["failure"] = {k: str(v) for k, v in rep.failure.items()}
    text = "embedding verified" if rep.ok else f"embedding FAILED: {rep.failure}"
    _emit(args, out, text)
    return 0 if rep.ok else 1


# -- argument parsing --------------------------------------------------------


def _int_at_least(least: int, what: str):
    """An argparse type: an integer >= least, else "must be {what}, got ..."."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: ..."
    return parse


_positive = _int_at_least(1, "a positive integer")
_dimension = _int_at_least(2, "an integer >= 2")


def _env_entry(text: str) -> tuple:
    """NAME=VALUE, VALUE being e<k> or a list of integers [v1,...,vm]: (name, k or the list)."""
    name, _, val = text.partition("=")
    val = val.strip()
    try:
        if re.fullmatch(r"e[0-9]+", val):
            return name, int(val[1:])
        return name, tuple(int(v) for v in val.strip("[]").split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad entry {text!r}, expected NAME=e<k> or NAME=[v1,...,vm] with integers v")


def _index_set(text: str) -> frozenset:
    return frozenset(int(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nba", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--text", action="store_true", help="human-readable output")

    def sampling(sp):
        sp.add_argument("--budget", type=_positive, default=terms.DEFAULT_BUDGET)
        sp.add_argument("--samples", type=_positive, default=terms.DEFAULT_SAMPLES)
        sp.add_argument("--seed", type=_int_at_least(0, "a non-negative integer"),
                        default=terms.DEFAULT_SEED)

    sp = sub.add_parser("check", help="run an axiom suite against an algebra")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--suite", required=True, choices=list(CHECK_SUITES))
    sp.add_argument("--i", type=int, default=1)
    sampling(sp)
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("eval", help="evaluate a term in a power algebra")
    sp.add_argument("--n", type=_dimension, required=True)
    sp.add_argument("--term", required=True)
    sp.add_argument("--env", nargs="*", type=_env_entry, metavar="NAME=VALUE")
    common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("equiv", help="decide an identity over dimension n")
    sp.add_argument("--n", type=_dimension, required=True)
    sp.add_argument("lhs")
    sp.add_argument("rhs")
    sp.add_argument("--sampled", action="store_true")
    sampling(sp)
    common(sp)
    sp.set_defaults(fn=cmd_equiv)

    sp = sub.add_parser("translate", help="translate a term between signatures")
    sp.add_argument("--n", type=_dimension, required=True)
    sp.add_argument("--term", required=True)
    sp.add_argument("--to", required=True, choices=["q", "skew", "star"])
    sp.add_argument("--i", type=int, default=1)
    common(sp)
    sp.set_defaults(fn=cmd_translate)

    sp = sub.add_parser("synth", help="compile a truth table to a term")
    sp.add_argument("--table", required=True)
    sp.add_argument("--simplify", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("congruences", help="enumerate congruences and multideals")
    sp.add_argument("--algebra", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_congruences)

    sp = sub.add_parser("multideals", help="enumerate or validate multideals")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--validate")
    common(sp)
    sp.set_defaults(fn=cmd_multideals)

    sp = sub.add_parser("ultras", help="enumerate ultramultideals")
    sp.add_argument("--algebra", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_ultras)

    sp = sub.add_parser("embed", help="Stone-style embedding into a power")
    sp.add_argument("--algebra", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_embed)

    sp = sub.add_parser("reduct", help="extract a reduct's operation tables")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--kind", required=True, choices=["church", "rchurch", "skew"])
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--d", type=_index_set)
    sp.add_argument("--j", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_reduct)

    sp = sub.add_parser("represent", help="verify the partial-function embedding")
    sp.add_argument("--points", type=int, required=True)
    sp.add_argument("--n", type=_dimension, required=True)
    sp.add_argument("--i", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_represent)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # TermError, DimensionError and ShapeError among them
        print(json.dumps({"error": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
