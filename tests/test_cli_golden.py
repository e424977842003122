"""Pinned nba stdout: each command's exit code and stdout digest, against tests/data.

The data file and its inputs are regenerated by tests/data/make_cli_golden.py; a
change of output shows here as a failing command, to be justified or fixed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parent / "data" / "make_cli_golden.py"
_spec = importlib.util.spec_from_file_location("make_cli_golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

DATA = json.loads(golden.DATA.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_golden")
    golden.write_inputs(DATA["files"], directory)
    return directory


@pytest.mark.parametrize("cmd", DATA["commands"],
                         ids=lambda c: " ".join(c["argv"]).replace("{dir}/", ""))
def test_cli_stdout_is_pinned(cmd, inputs):
    code, digest, out = golden.run(cmd["argv"], inputs)
    assert (code, digest) == (cmd["exit"], cmd["stdout_sha256"]), out
