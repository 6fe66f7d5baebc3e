"""Alternating benchmark pairs: this checkout against another, one workload.

    python3 tools/bench_pairs.py --parent DIR --workload steady_kr
    python3 tools/bench_pairs.py --parent DIR --workload all --pairs 10 \\
        --seconds 10 --seed 1

A pair runs `perfbench/run.py --workload W --seed N --seconds S --trace 0`
once in this checkout and once in DIR (say a `git archive` of the parent
commit), one after the other.  Which side goes first alternates from pair
to pair, so a drift in the host's speed falls on both sides alike.  Each
invocation reports the median of its runs for every end-to-end metric.
Over the K pairs this prints, per metric: the median and quartiles of
the K values on each side, the pairs the change won (strictly better),
the relative change of the medians, (change - parent) / |parent|,
whether that change is worse than the metric's bound in this
checkout's BENCHMARK.json (`WORSE`, else `ok`), and whether a claimed
gain on the metric would be met (`claim_met`; never below ten pairs).
A metric not worse is `unresolved` instead of `ok` when the parent's
own spread, (q3 - q1) / |median|, exceeds the bound, unless every run
of the change beats every run of the parent: the bound cannot be told
apart from noise that wide.  Failed and
attempted runs are summed per side, and each pair's load averages
(1/5/15 min, before -> after each side's run, from its `# env` line)
are listed, so a drift in the host's load shows.

Exit code 0 when no metric is worse than its bound and no run failed,
1 otherwise, 2 on a usage error.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` invocation; its final JSON object, with the
    `# env` line's object under "env" when there is one."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    env = [ln[len("# env "):] for ln in lines if ln.startswith("# env ")]
    if env:
        res["env"] = json.loads(env[-1])
    return res


def _load(res: dict) -> str:
    """The 1, 5 and 15 minute load averages before and after a run."""
    env = res.get("env", {})
    if "loadavg_before" not in env or "loadavg_after" not in env:
        return "load ?"
    before, after = ("/".join(f"{x:.2f}" for x in env[k])
                     for k in ("loadavg_before", "loadavg_after"))
    return f"load {before} -> {after}"


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


class Summary(NamedTuple):
    """One metric over the pairs with a sample on both sides."""
    pairs: int
    wins: int  # pairs the change won strictly; a tie counts for neither side
    median: float
    parent_median: float
    quartiles: tuple
    parent_quartiles: tuple
    gain: float  # parent median - change median, positive when better
    beats_all: bool  # every change run better than every parent run


def _summary(sides: dict, metric: dict) -> Summary | None:
    """The Summary of `metric` over these pairs; None without samples."""
    key = metric["name"]
    pairs = [(a["metrics"][key]["value"], b["metrics"][key]["value"])
             for a, b in zip(sides["change"], sides["parent"])
             if key in a["metrics"] and key in b["metrics"]]
    if not pairs:
        return None
    sign = 1 if metric["better"] == "lower" else -1
    new, old = [p[0] for p in pairs], [p[1] for p in pairs]
    mn, mo = statistics.median(new), statistics.median(old)
    return Summary(len(pairs), sum(sign * (b - a) > 0 for a, b in pairs),
                   mn, mo, _quartiles(new), _quartiles(old), sign * (mo - mn),
                   max(sign * a for a in new) < min(sign * b for b in old))


MIN_PAIRS = 10


def _met(s: Summary) -> bool:
    q1, q3 = s.parent_quartiles
    return (s.pairs >= MIN_PAIRS and 10 * s.wins >= 9 * s.pairs
            and s.gain > q3 - q1)


def claim_met(sides: dict, metric: dict) -> bool:
    """Whether a claimed gain on `metric` holds over these pairs.

    It needs at least MIN_PAIRS pairs with samples.  The change must win
    at least 9 in 10 of them (a tie counts for neither side), and its
    median must beat the parent's by more than the parent's
    interquartile range q3 - q1.
    """
    s = _summary(sides, metric)
    return s is not None and _met(s)


def compare(workload: str, sides: dict, bounds: list[dict]) -> bool:
    """Print one table; True if some metric is worse than its bound."""
    print(f"# {workload}: {len(sides['change'])} pairs")
    for name in ("change", "parent"):
        att = sum(r["attempted"] for r in sides[name])
        fail = sum(r["failed"] for r in sides[name])
        print(f"#   {name}: {fail} failed / {att} attempted runs")
    for k, (a, b) in enumerate(zip(sides["change"], sides["parent"])):
        print(f"#   pair {k + 1}: change {_load(a)}; parent {_load(b)}")
    worse_any = False
    for m in bounds:
        key = m["name"]
        s = _summary(sides, m)
        if s is None:
            print(f"#   {key}: no samples")
            continue
        mn, mo = s.median, s.parent_median
        if mo:
            change = (mn - mo) / abs(mo)
        else:
            change = math.copysign(math.inf, mn - mo) if mn != mo else 0.0
        worse = (change if m["better"] == "lower" else -change) > m["bound"]
        worse_any |= worse
        (n1, n3), (o1, o3) = s.quartiles, s.parent_quartiles
        spread = (o3 - o1) / abs(mo) if mo else (math.inf if o3 > o1 else 0.0)
        if worse:
            verdict = "WORSE"
        elif spread > m["bound"] and not s.beats_all:
            verdict = "unresolved"
        else:
            verdict = "ok"
        claim = "met" if _met(s) else "not met"
        if s.pairs < MIN_PAIRS:
            claim += f" ({s.pairs} pairs, need {MIN_PAIRS})"
        print(f"#   {key:12s} change {mn:.6g} [{n1:.6g}, {n3:.6g}]  "
              f"parent {mo:.6g} [{o1:.6g}, {o3:.6g}]  "
              f"won {s.wins}/{s.pairs}  rel {change:+.3e}  "
              f"bound {m['bound']:.0%}: {verdict}  "
              f"claim {claim}")
    return worse_any


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout to compare against")
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    todo = known if args.workload == "all" else [args.workload]
    if args.workload != "all" and args.workload not in known:
        ap.error(f"unknown workload {args.workload!r}; one of {known}")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if not (args.parent / "perfbench" / "run.py").is_file():
        ap.error(f"{args.parent} has no perfbench/run.py")
    checkouts = {"change": ROOT, "parent": args.parent.resolve()}

    bad = False
    for workload in todo:
        sides = {"change": [], "parent": []}
        for k in range(args.pairs):
            order = ("change", "parent") if k % 2 == 0 else ("parent", "change")
            for name in order:
                res = run_side(checkouts[name], workload, args.seed, args.seconds)
                sides[name].append(res)
                bad |= res["failed"] > 0 or not res["correct"]
            print(f"# pair {k + 1}/{args.pairs} done ({order[0]} first)",
                  file=sys.stderr, flush=True)
        bad |= compare(workload, sides, bench["end_to_end"])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
