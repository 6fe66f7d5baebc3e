"""How tools/cli_digest.py reports a file that differs from its earlier copy."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
_spec = importlib.util.spec_from_file_location("cli_digest", _PATH)
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def _compare(tmp_path, here, there, skip=None):
    a, b = tmp_path / "here.json", tmp_path / "there.json"
    a.write_text(here)
    b.write_text(there)
    return cli_digest.compare_file(a, b, skip)


PARENT = '{\n  "energy": 0.125,\n  "mu1": 2.5,\n  "note": "ok"\n}\n'


def test_text_only_difference_names_its_first_line(tmp_path):
    renamed = PARENT.replace('"mu1"', '"mu_1"')
    out = _compare(tmp_path, renamed, PARENT)
    assert out == "text differs on 1 lines, first at line 3  lines 1"
    assert "rel" not in out and "line 0" not in out


def test_number_difference_gives_worst_relative_change(tmp_path):
    moved = PARENT.replace("0.125", "0.126")
    out = _compare(tmp_path, moved, PARENT)
    assert out.startswith("rel 0.0079 at line 2  abs 0.001")
    assert "text" not in out and out.endswith("lines 1")


def test_number_and_text_differences_are_both_reported(tmp_path):
    both = PARENT.replace("2.5", "2.0").replace('"ok"', '"aborted"')
    out = _compare(tmp_path, both, PARENT)
    assert out == ("rel 0.2 at line 3  abs 0.5  "
                   "text differs on 1 lines, first at line 4  lines 2")


def test_equal_numbers_written_differently(tmp_path):
    out = _compare(tmp_path, PARENT.replace("2.5", "2.50"), PARENT)
    assert out == "numbers equal, their text differs  lines 1"
