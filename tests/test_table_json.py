"""A JSON table's q list becomes its int64 array in one pass, once json_ints has checked
every entry is an integer; an entry int64 cannot hold is still named out of range."""

import json

import numpy as np
import pytest

from nbalab import cli, core


def table_json(n: int, m: int) -> dict:
    return json.loads(json.dumps(core.table_of_power(core.power_algebra(n, m)).to_json()))


def test_a_table_file_reads_to_its_power_table():
    obj = table_json(4, 2)
    tab = core.algebra_from_json(obj)
    assert tab.q_table().dtype == np.int64
    assert np.array_equal(tab.q_table(), core.power_algebra(4, 2).q_table())


@pytest.mark.parametrize("big", [2**70, 2**63, -(2**63) - 1])
def test_an_entry_past_int64_is_named_out_of_range(big, tmp_path, capsys):
    obj = table_json(2, 2)
    obj["q"][3], obj["q"][5] = big, -1
    with pytest.raises(ValueError, match=rf"^table entry {big} out of range$"):
        core.algebra_from_json(obj)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["check", "--algebra", str(path), "--suite", "nba"]) == 2
    assert f"table entry {big} out of range" in capsys.readouterr().err
