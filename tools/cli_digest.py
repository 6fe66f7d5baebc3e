"""Digest of the CLI outputs for a fixed small set of configurations.

Runs every command of the vortexpair CLI on small grids, each in a fresh
process, and prints one `sha256  run/file` line per output file plus the
exit code of each run.  Two checkouts whose digests agree wrote the same
bytes, which is how a refactor shows it kept the outputs.

    python3 tools/cli_digest.py                  # this checkout, temp outputs
    python3 tools/cli_digest.py --src OTHER/src  # another checkout
    python3 tools/cli_digest.py --out DIR        # keep the outputs in DIR
    python3 tools/cli_digest.py --against DIR    # and compare with DIR's

`--out DIR` also keeps the digest itself as DIR/digest.txt.  With
`--against DIR` (a directory an earlier `--out` wrote), every file whose
bytes differ from DIR's copy is listed after the digest with the worst
relative difference |a - b| / max(|a|, |b|) over the numbers parsed from
it, the line where that occurs, the worst absolute difference and the
number of differing lines; binary files (the PGM previews) are compared
byte by byte.  Lines matching `--skip REGEX` (say `solver_tol`) are left
out of the numbers.  Exit-code changes, files present on one side only
and text that differs in more than its numbers (with the first line
where it does) are listed too.  With
`--against` the script exits 1 when any file or exit code differs from
DIR's, so it can gate a change; otherwise it exits 0.

The whole set takes about a minute and a half on two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

# name -> (command, extra CLI arguments, config text); the extra arguments
# follow `--seed 0`, so a `--seed` among them picks the run's seed
RUNS = {
    "steady_kr": ("steady", [], """
        [grid]
        n = 80
        [steady]
        eps1 = 0.12
        init = kr_seed
        residual_tests = 4
    """),
    "steady_single": ("steady", [], """
        [grid]
        n = 64
        [vortex]
        kappa2 = 0
        [steady]
        eps1 = 0.15
        eps2 = 0
        residual_tests = 2
    """),
    "steady_parabolic": ("steady", [], """
        [grid]
        n = 64
        [vortex]
        profile = parabolic
        [steady]
        eps1 = 0.15
        residual_tests = 2
    """),
    "steady_random": ("steady", ["--seed", "121"], """
        [domain]
        kind = rectangle
        width = 1.4
        height = 1
        [grid]
        n = 40
        [vortex]
        kappa2 = -1.5
        [steady]
        eps1 = 0.25
        init = random
        residual_tests = 2
    """),
    "krmin": ("krmin", [], """
        [grid]
        n = 96
    """),
    "krmin_rect": ("krmin", [], """
        [domain]
        kind = rectangle
        width = 1.4
        height = 1
        [grid]
        n = 64
        [kr]
        margin_h = 8
        starts = 2
    """),
    "krmin_asym": ("krmin", [], """
        [grid]
        n = 64
        [vortex]
        kappa2 = -0.5
    """),
    "sweep": ("sweep", ["--jobs", "2"], """
        [sweep]
        eps = 0.15 0.125
        n = 64
        kr_n = 48
        residual_tests = 2
    """),
    "sweep_single": ("sweep", [], """
        [sweep]
        eps = 0.15
        n = 64
        kr_n = 48
        residual_tests = 2
    """),
    "evolve_pv_given": ("evolve", [], """
        [grid]
        n = 64
        [evolve]
        mode = pv
        positions = 0.45,0 ; -0.45,0
        T = 0.5
        dt = 1e-3
        save_stride = 50
    """),
    "evolve_pv_kr": ("evolve", [], """
        [grid]
        n = 64
        [evolve]
        mode = pv
        T = 0.5
        dt = 1e-3
        save_stride = 50
    """),
    "evolve_pv_corot": ("evolve", [], """
        [grid]
        n = 64
        [vortex]
        kappa2 = 1
        [evolve]
        mode = pv
        positions = 0.06,0 ; -0.06,0
        T = 0.5
        dt = 1e-3
        save_stride = 50
    """),
    "evolve_pv_polygon": ("evolve", [], """
        [domain]
        kind = polygon
        vertices = 0,0; 1.2,0; 1.5,0.8; 0.6,1.3; -0.2,0.7
        [grid]
        n = 64
        [evolve]
        mode = pv
        T = 0.3
        dt = 1e-3
        save_stride = 50
    """),
    "evolve_pde": ("evolve", [], """
        [grid]
        n = 64
        [steady]
        eps1 = 0.2
        [evolve]
        mode = pde
        delta0_rel = 0.02
        turnovers = 0.5
        records = 10
    """),
    "evolve_pde_rect": ("evolve", [], """
        [domain]
        kind = rectangle
        width = 1.4
        height = 1
        [grid]
        n = 64
        [steady]
        eps1 = 0.2
        [evolve]
        mode = pde
        delta0_rel = 0.02
        turnovers = 0.3
        records = 10
    """),
    "diagnose": ("diagnose", [], """
        [diagnose]
        n = 48
        instances = 5
    """),
}


def run_all(src: Path, root: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    lines = []
    for name, (command, extra, text) in RUNS.items():
        out = root / name
        out.mkdir(parents=True, exist_ok=True)
        cfg = root / f"{name}.ini"
        cfg.write_text(textwrap.dedent(text))
        rc = subprocess.run(
            [sys.executable, "-m", "vortexpair.cli", command, "--config",
             str(cfg), "--out", str(out), "--seed", "0", *extra],
            env=env, stdout=subprocess.DEVNULL).returncode
        lines.append(f"# {name} exit {rc}")
        for f in sorted(out.iterdir()):
            digest = hashlib.sha256(f.read_bytes()).hexdigest()
            lines.append(f"{digest}  {name}/{f.name}")
    return lines


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|\b(?:nan|inf|null|NaN|Infinity)\b")


def _value(token: str) -> float:
    return math.nan if token == "null" else float(token)


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare_file(here: Path, there: Path, skip) -> str:
    """One line on how two versions of an output file differ."""
    a, b = here.read_bytes(), there.read_bytes()
    try:
        la = a.decode("utf-8").splitlines()
        lb = b.decode("utf-8").splitlines()
    except UnicodeDecodeError:  # binary: compare byte by byte
        if len(a) != len(b):
            return f"size {len(b)} -> {len(a)} bytes"
        d = [abs(x - y) for x, y in zip(a, b) if x != y]
        return f"bytes {len(d)} of {len(a)} differ, worst by {max(d)}"
    if len(la) != len(lb):
        return f"lines {len(lb)} -> {len(la)}"
    worst, at, absd, lines, text, first_text = 0.0, 0, 0.0, 0, 0, 0
    for k, (x, y) in enumerate(zip(la, lb), 1):
        if x == y or (skip and (skip.search(x) or skip.search(y))):
            continue
        lines += 1
        nx, ny = NUMBER.findall(x), NUMBER.findall(y)
        if NUMBER.sub("#", x) != NUMBER.sub("#", y) or len(nx) != len(ny):
            text += 1
            first_text = first_text or k
            continue
        for u, v in zip(map(_value, nx), map(_value, ny)):
            r = _rel(u, v)
            if r > worst:
                worst, at = r, k
            if math.isfinite(u) and math.isfinite(v):
                absd = max(absd, abs(u - v))
    if not lines:
        return "only skipped lines differ"
    out = [f"rel {worst:.2g} at line {at}  abs {absd:.2g}"] if at else []
    if text:
        out.append(f"text differs on {text} lines, first at line {first_text}")
    if not out:  # same numbers, written differently (say 1.0 and 1.00)
        out.append("numbers equal, their text differs")
    return "  ".join(out + [f"lines {lines}"])


def compare(root: Path, other: Path, lines: list[str], skip) -> list[str]:
    """The differences of the outputs under `root` from those under `other`."""
    theirs = (other / "digest.txt").read_text().splitlines()
    exits = dict(l.split(" exit ")[0:2] for l in theirs if l.startswith("# "))
    digests = dict(l.split("  ")[::-1] for l in theirs if not l.startswith("# "))
    out = [f"# against {other}"]
    seen = set()
    for line in lines:
        if line.startswith("# "):
            run, rc = line.split(" exit ")
            if exits.get(run, rc) != rc:
                out.append(f"{run[2:]}: exit {exits[run]} -> {rc}")
            continue
        digest, name = line.split("  ")
        seen.add(name)
        if name not in digests:
            out.append(f"{name}: only here")
        elif digests[name] != digest:
            out.append(f"{name}: {compare_file(root / name, other / name, skip)}")
    out += [f"{name}: only in {other}" for name in digests if name not in seen]
    if len(out) == 1:
        out.append("no file differs")
    return out


def main(argv=None) -> int:
    here = Path(__file__).resolve().parents[1]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=here / "src",
                    help="directory holding the vortexpair package")
    ap.add_argument("--out", type=Path, default=None,
                    help="keep the outputs here instead of a temp dir")
    ap.add_argument("--against", type=Path, default=None,
                    help="compare the outputs with those an earlier --out kept here")
    ap.add_argument("--skip", type=re.compile, default=None,
                    help="with --against: leave lines matching this regex out")
    args = ap.parse_args(argv)
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) if args.out is None else args.out.resolve()
        lines = run_all(args.src.resolve(), root)
        if args.out is not None:
            (root / "digest.txt").write_text("\n".join(lines) + "\n")
        if args.against is not None:
            diff = compare(root, args.against.resolve(), lines, args.skip)
            differs = diff[1:] != ["no file differs"]
            lines += diff
    print("\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
