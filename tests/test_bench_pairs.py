"""The claim rule and the report of tools/bench_pairs.py on fabricated sides, no subprocess."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"name": "run_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "run_s", "better": "higher", "bound": 0.25}


def sides(change, parent):
    def run(v):
        return {"metrics": {} if v is None else {"run_s": {"value": v}}}
    return {"change": [run(v) for v in change], "parent": [run(v) for v in parent]}


PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


def test_clear_gain_is_met():
    assert bench_pairs.claim_met(sides([v - 2.0 for v in PARENT], PARENT), LOWER)


def test_nine_of_ten_wins_suffice_eight_do_not():
    nine = [v - 2.0 for v in PARENT[:9]] + [PARENT[9] + 1.0]
    assert bench_pairs.claim_met(sides(nine, PARENT), LOWER)
    eight = [v - 2.0 for v in PARENT[:8]] + [v + 1.0 for v in PARENT[8:]]
    assert not bench_pairs.claim_met(sides(eight, PARENT), LOWER)


def test_ties_count_for_neither_side():
    tied = [v - 2.0 for v in PARENT[:9]] + [PARENT[9]]
    assert bench_pairs.claim_met(sides(tied, PARENT), LOWER)
    two_ties = [v - 2.0 for v in PARENT[:8]] + PARENT[8:]
    assert not bench_pairs.claim_met(sides(two_ties, PARENT), LOWER)


def test_median_gain_must_exceed_parent_iqr():
    # every pair won by a hair: 10 of 10, but well inside the parent's spread
    small = [v - 0.01 for v in PARENT]
    assert not bench_pairs.claim_met(sides(small, PARENT), LOWER)


def test_direction_follows_the_metric():
    up = [v + 2.0 for v in PARENT]
    assert bench_pairs.claim_met(sides(up, PARENT), HIGHER)
    assert not bench_pairs.claim_met(sides(up, PARENT), LOWER)


def test_fewer_than_ten_pairs_are_not_met(capsys):
    runs = sides([v - 2.0 for v in PARENT[:3]], PARENT[:3])
    assert not bench_pairs.claim_met(runs, LOWER)
    for r in runs["change"] + runs["parent"]:
        r.update(attempted=1, failed=0)
    bench_pairs.compare("w", runs, [LOWER])
    assert "claim not met (3 pairs, need 10)" in capsys.readouterr().out


@pytest.mark.parametrize("change, parent", [([], []), ([None] * 3, [1.0] * 3)])
def test_no_samples_is_not_met(change, parent):
    assert not bench_pairs.claim_met(sides(change, parent), LOWER)


def test_each_pair_prints_both_sides_load(capsys):
    runs = sides([9.0, 8.0], [10.0, 10.0])
    for r in runs["change"] + runs["parent"]:
        r.update(attempted=1, failed=0)
    runs["change"][0]["env"] = {"loadavg_before": [0.5, 0.25, 0.125],
                                "loadavg_after": [1.0, 0.5, 0.25]}
    bench_pairs.compare("w", runs, [LOWER])
    lines = capsys.readouterr().out.splitlines()
    assert "#   pair 1: change load 0.50/0.25/0.12 -> 1.00/0.50/0.25; parent load ?" in lines
    assert "#   pair 2: change load ?; parent load ?" in lines
