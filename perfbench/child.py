"""Run one workload once, in this fresh process, and write result.json.

    python3 perfbench/child.py --workload NAME --seed N --out DIR
                               [--size full|smoke] [--trace 0|1]

`run.py` starts this script; it is not meant to be called by hand,
though it can be.  The times written are `time.monotonic()` readings,
which share one clock with the parent process:

* t_entry: just before the workload's entry call (after the imports,
  the config or input generation and, if traced, the wrapping);
* t_return: just after the entry call returned, outputs written.

The outcome dict and, when traced, every span follow.  Any exception
is printed and the process exits with code 3 without a result file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--size", default="full", choices=("full", "smoke"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    import numpy
    import scipy

    import vortexpair
    import workloads

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(vortexpair.__file__).startswith(src + os.sep):
        print(f"vortexpair imported from {vortexpair.__file__}, not {src}",
              file=sys.stderr)
        return 3
    wl = workloads.WORKLOADS[args.workload]
    entry = wl.prepare(args.seed, args.out, args.size)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    t_entry = time.monotonic()
    returned = entry()
    t_return = time.monotonic()
    result = {
        "t_entry": t_entry, "t_return": t_return,
        "outcome": wl.collect(args.out, returned),
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except Exception:  # the parent counts the run as failed
        import traceback

        traceback.print_exc()
        code = 3
    sys.exit(code)
