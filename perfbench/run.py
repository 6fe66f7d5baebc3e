"""vortexpair benchmark: closed-loop runs of one workload, one process each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every workload

Run it from anywhere inside a checkout that has `src/vortexpair`; the
package is imported from that source tree, never from site-packages.

One client runs the workload back to back: each run is a fresh Python
process (`child.py`), and the next starts only after the previous one
has ended, until S seconds have passed (and at least MIN_RUNS ran).
Every run's outputs go to a temporary directory inside the checkout,
which is removed afterwards, and are checked against the reference
outcomes in `reference.json`.  BLAS and OpenMP pools are pinned to one
thread, so `--jobs` is the only parallelism.

End-to-end metrics, untraced runs only (median over the runs):

* setup_s: process start to the workload's entry call;
* run_s: entry call to its return, all outputs written;
* peak_rss_mb: maximum resident set size of the run's process;
* result_err: the workload's own accuracy figure (see workloads.py).

With --trace 1 the loop alternates untraced and traced runs; the traced
ones wrap every public vortexpair function (spans.py) and the per-layer
metrics of layers.py are reported instead, medians over the traced
runs, with trace.overhead = traced run_s / untraced run_s.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layers import UNITS, layer_metrics  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
              "result_err": "1"}
MIN_RUNS = 3          # untraced runs per benchmark run, whatever --seconds says
LAST_START_S = 110.0  # start no run after this ...
DEADLINE_S = 170.0    # ... and kill a run still going then: exit within 180 s
POLL_S = 0.02
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "VORTEXPAIR_"))}
    env.update({k: "1" for k in THREAD_PINS})
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    return env


def run_once(workload: str, seed: int, trace: int, size: str, tmpbase: Path,
             timeout: float, reference: dict | None) -> dict:
    """One fresh process; returns its timings, outcome and any problems.

    With reference=None the outcome is returned unchecked.
    """
    out = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmpbase))
    try:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out), "--size", size,
               "--trace", str(trace)]
        with open(out / "stderr.txt", "w+b") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, env=child_env(), cwd=out,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                status, rusage, timed_out = _wait(proc, timeout)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        rec = {"trace": trace, "peak_rss_mb": rusage.ru_maxrss / 1024.0,
               "problems": []}
        if timed_out:
            rec["problems"].append(f"killed after {timeout:.0f} s")
        elif status != 0:
            tail = " | ".join(stderr.strip().splitlines()[-3:])
            rec["problems"].append(f"child exited {status}: {tail}")
        else:
            with open(out / "result.json") as fh:
                res = json.load(fh)
            wl = workloads.WORKLOADS[workload]
            rec.update(setup_s=res["t_entry"] - t_spawn,
                       run_s=res["t_return"] - res["t_entry"],
                       t_entry=res["t_entry"], t_return=res["t_return"],
                       outcome=res["outcome"], versions=res["versions"],
                       spans=res.get("spans"))
            rec["result_err"] = wl.result_err(res["outcome"])
            if reference is not None:
                rec["problems"] += wl.check(res["outcome"],
                                            reference[workload][size])
        return rec
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child with its resource usage; kill it at the timeout."""
    deadline = time.monotonic() + timeout
    timed_out = False
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            timed_out = True
            pid, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(POLL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage, timed_out


def closed_loop(workload: str, seed: int, seconds: float,
                trace: int) -> list[dict]:
    """Back-to-back runs for `seconds`; with trace=1, alternate plain/traced."""
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    runs: list[dict] = []
    t0 = time.monotonic()
    with scratch_dir() as tmpbase:
        while True:
            elapsed = time.monotonic() - t0
            plain = sum(1 for r in runs if not r["trace"])
            traced = len(runs) - plain
            enough = plain >= MIN_RUNS and (not trace or traced >= MIN_RUNS)
            if (elapsed >= seconds and enough) or elapsed >= LAST_START_S:
                break
            want_trace = int(bool(trace) and traced < plain)
            runs.append(run_once(workload, seed, want_trace, "full", tmpbase,
                                 DEADLINE_S - elapsed, reference))
    return runs


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under .perfbench_tmp in the checkout, removed after."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:  # another benchmark process still uses it
            pass


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def summarize(workload: str, runs: list[dict], trace: int) -> dict:
    """Final JSON object; prints the per-metric table on the way."""
    ok = [r for r in runs if not r["problems"]]
    failed = len(runs) - len(ok)
    for r in runs:
        for p in r["problems"]:
            print(f"# FAIL {workload}: {p}", file=sys.stderr)
    plain = [r for r in ok if not r["trace"]]
    samples: dict[str, list[float]] = {}
    if trace:
        traced = [r for r in ok if r["trace"]]
        for r in traced:
            for k, v in layer_metrics(r["spans"], r["t_entry"], r["t_return"]).items():
                samples.setdefault(k, []).append(v)
        if plain and traced:
            samples["trace.overhead"] = [
                statistics.median(r["run_s"] for r in traced)
                / statistics.median(r["run_s"] for r in plain)]
        units = {k: UNITS[k] for k in samples}
    else:
        for k in END_TO_END:
            samples[k] = [r[k] for r in plain]
        units = dict(END_TO_END)
    metrics = {}
    print(f"# {workload}: {len(ok)}/{len(runs)} runs passed its checks "
          f"({failed} failed / {len(runs)} attempted)")
    for k, xs in samples.items():
        if not xs:
            continue
        med = statistics.median(xs)
        q1, q3 = _quartiles(xs)
        metrics[k] = {"value": med, "unit": units[k]}
        print(f"#   {k:32s} {med:12.6g} {units[k]:6s} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(xs)}")
    return {"correct": failed == 0 and bool(ok), "attempted": len(runs),
            "failed": failed, "metrics": metrics}


def environment(runs: list[dict], load_before) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    versions = next((r["versions"] for r in runs if "versions" in r), {})
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": model,
            **versions,
            "loadavg_before": load_before, "loadavg_after": os.getloadavg()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "vortexpair" / "__init__.py").is_file():
        print(f"perfbench: no vortexpair source tree at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        load_before = os.getloadavg()
        runs = closed_loop(name, args.seed, args.seconds, args.trace)
        print("# env " + json.dumps(environment(runs, load_before)))
        result = summarize(name, runs, args.trace)
        correct &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
