"""validate_multideal refuses an m2 or m3 grid past core.TABLE_BOUND entries before it
evaluates q over it, with the reason every other dense intermediate gives, and
`nba multideals --validate` exits 1 with that reason and no traceback.
"""

import json

import numpy as np
import pytest

from nbalab import core, ideals
from nbalab.cli import main


def past_bound(clause, size, entries):
    return (f"the {clause} grid over carrier size {size} needs {entries} entries, "
            f"exceeding bound {core.TABLE_BOUND}")


def agreeing(alg, lead):
    """The candidate I_k = {x : x_p = k for p < lead}, as carrier indices."""
    codes = np.arange(alg.size) // alg.n ** (alg.points - lead)  # the leading digits
    every = sum(alg.n ** p for p in range(lead))
    return [np.flatnonzero(codes == k * every).tolist() for k in range(alg.n)]


# (n, points, lead): the first m2 grid is |I_1| * |I_1| * size^(n-1) entries
PAST = [(2, 16, 8), (3, 5, 2)]


@pytest.mark.parametrize("n, points, lead", PAST, ids=["2^16", "3^5"])
def test_a_grid_past_the_bound_is_refused(n, points, lead, monkeypatch):
    alg = core.power_algebra(n, points)
    cand = agreeing(alg, lead)
    part = n ** (points - lead)
    assert [len(c) for c in cand] == [part] * n
    monkeypatch.setattr(core.PowerAlgebra, "q_vec", lambda *a: pytest.fail("q evaluated"))
    with pytest.raises(ValueError) as exc:
        ideals.validate_multideal(alg, cand)
    assert str(exc.value) == past_bound("m2", alg.size, part * part * alg.size ** (n - 1))


def test_nba_multideals_validate_of_2_16_exits_1_with_the_bound(tmp_path, capsys):
    alg = core.power_algebra(2, 16)
    (tmp_path / "p.json").write_text(json.dumps({"n": 2, "kind": "power", "points": 16}))
    (tmp_path / "c.json").write_text(json.dumps({"components": agreeing(alg, 8)}))
    code = main(["multideals", "--algebra", str(tmp_path / "p.json"),
                 "--validate", str(tmp_path / "c.json")])
    out, err = capsys.readouterr()
    assert code == 1 and not err
    assert json.loads(out) == {"error": past_bound("m2", 65536, 2 ** 32)}
