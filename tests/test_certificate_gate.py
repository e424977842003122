"""A table's Stone certificate is the proof that it is an nBA.

stone_certificate takes a table's stone_embed images as soon as they are a bijection
onto n^k: each of the k homs has already passed is_hom_onto_generator, which checks
q over the whole table and the constants, and q on n^k is coordinatewise.  The nba
gate (cli._load_nba) audits only a table without a certificate.  Here the certificate
is held against the exhaustive NBA audit, and the gate against its audit-only
behaviour: the same stdout where a certificate exists.  (That an uncertified table
gets the audit's message is pinned in test_cli.py.)
"""

import itertools
import json
import random
from collections import Counter

import numpy as np
import pytest

from nbalab import core, ideals, skew
from nbalab.cli import main
from test_certified_structure import shuffled_table


def power_table(n, m):
    return core.table_of_power(core.power_algebra(n, m))


# -- the certificate checks each hom once, against the generator ---------------


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (2, 4)])
def test_certifying_a_table_checks_each_hom_once(n, m, monkeypatch):
    tab = shuffled_table(core.power_algebra(n, m), n * 10 + m)
    targets = []
    check = ideals._preserves_q
    monkeypatch.setattr(ideals, "_preserves_q",
                        lambda alg, img, target: targets.append(target) or check(alg, img, target))
    cert = ideals.stone_certificate(tab)
    assert len(targets) == m and all(t == core.generator(n) for t in targets)
    monkeypatch.undo()
    # the array is stone_embed's images, which pass the checks no longer repeated ...
    emb = ideals.stone_embed(tab)
    assert emb.is_isomorphism and emb.preserves_q()
    assert [emb.images[c] for c in tab.constants] == list(emb.target.constants)
    assert np.array_equal(cert, np.array(emb.images) - 1)
    # ... and a bijection onto the coordinates of n^m
    assert sorted(map(tuple, cert.tolist())) == list(itertools.product(range(n), repeat=m))


# -- the gate trusts a certificate --------------------------------------------


def nba(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out


GATE_TABLES = [("2^3", power_table(2, 3)), ("3^2", power_table(3, 2)),
               ("2^4", power_table(2, 4)),
               ("2^3 shuffled", shuffled_table(core.power_algebra(2, 3), 3))]


def candidates(tab):
    """A proper multideal of tab, and the least one with one more element in I_1."""
    proper = ideals.multideal_of(ideals.all_congruences(tab)[1]).components
    least = [[tab.constant_index(k)] for k in range(1, tab.n + 1)]
    extra = min(set(range(tab.size)) - set().union(*least))
    return [[sorted(c) for c in proper], [least[0] + [extra], *least[1:]]]


@pytest.mark.parametrize("label, tab", GATE_TABLES, ids=[label for label, _ in GATE_TABLES])
def test_a_certified_table_is_never_audited(label, tab, tmp_path, capsys, monkeypatch):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(tab.to_json()))
    argvs = [["congruences", "--algebra", str(path)]]
    for t, comps in enumerate(candidates(tab)):
        cand = tmp_path / f"cand{t}.json"
        cand.write_text(json.dumps({"components": comps}))
        argvs.append(["multideals", "--algebra", str(path), "--validate", str(cand)])
    # the reference: no certificate, so the audit and the generic engine, as before
    with monkeypatch.context() as m:
        m.setattr(ideals, "stone_certificate", lambda alg: None)
        want = [nba(capsys, argv) for argv in argvs]
    assert [code for code, _ in want] == [0, 0, 1]

    def refuse(*args, **kwargs):
        raise AssertionError("a certified table reached the audit")

    monkeypatch.setattr(skew, "check_axioms", refuse)
    assert [nba(capsys, argv) for argv in argvs] == want


def test_the_one_element_table_is_audited_and_answers(tmp_path, capsys):
    """The trivial algebra is n^0: an nBA with no certificate (k >= 1)."""
    tab = core.TableAlgebra(2, 1, (0, 0), (0,))
    assert ideals.stone_certificate(tab) is None and skew.check_axioms(tab, "NBA").ok
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(tab.to_json()))
    code, out = nba(capsys, ["congruences", "--algebra", str(path)])
    assert code == 0 and json.loads(out)["count"] == 1


# -- a table certifies exactly when the exhaustive audit passes ---------------


def seeded_tables(seed, count):
    """Random tables (n = 2 on 2..5 elements, n = 3 on 3) and relabelled tables of
    2^1, 2^2 and 3^1 with 1-3 entries redrawn, so some keep their value."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, m = rng.choice([(2, 1), (2, 2), (3, 1)])
        if rng.random() < 0.3:
            size = rng.randrange(2, 6) if n == 2 else 3
            flat = tuple(rng.randrange(size) for _ in range(size ** (n + 1)))
            out.append(("random", core.TableAlgebra(n, size, tuple(rng.sample(range(size), n)),
                                                    flat)))
        else:
            tab = shuffled_table(core.power_algebra(n, m), rng.randrange(2**32))
            flat = list(tab.q_flat)
            for pos in rng.sample(range(len(flat)), rng.randrange(1, 4)):
                flat[pos] = rng.randrange(tab.size)
            out.append(("redrawn", core.TableAlgebra(n, tab.size, tab.constants, tuple(flat))))
    return out


def test_a_table_certifies_exactly_when_the_exhaustive_audit_passes():
    tables = seeded_tables(19, 400)
    verdicts = []
    for kind, tab in tables:
        report = skew.check_axioms(tab, "NBA")
        assert all(ax.mode == "exhaustive" for ax in report.axioms)
        verdicts.append((kind, report.ok, ideals.stone_certificate(tab) is not None))
    assert [v[1] for v in verdicts] == [v[2] for v in verdicts]
    counts = Counter(verdicts)
    # random tables are never nBAs here; redrawn ones are on both sides
    assert counts["random", False, False] >= 100
    assert counts["redrawn", True, True] >= 40 and counts["redrawn", False, False] >= 200


# -- q_idx on a power ------------------------------------------------------------


def test_q_idx_on_a_wide_power_builds_no_element_list():
    alg = core.power_algebra(2, 20)
    rng = random.Random(20)
    coords = lambda i: tuple(int(c) + 1 for c in format(i, "020b"))
    for _ in range(30):
        s, *ys = (rng.randrange(alg.size) for _ in range(3))
        assert coords(alg.q_idx(s, ys)) == alg.q(coords(s), [coords(y) for y in ys])
    assert alg.q_idx(alg.size - 1, [0, alg.size - 1]) == alg.size - 1
    assert "full" not in alg._cache and "index" not in alg._cache
    for s, ys in ((alg.size, [0, 0]), (0, [0, alg.size]), (-1, [0, 0]), (0, [0])):
        with pytest.raises(IndexError):
            alg.q_idx(s, ys)
