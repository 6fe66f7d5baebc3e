"""Digest of the CLI outputs for a fixed small set of configurations.

Runs every command of the vortexpair CLI on small grids, each in a fresh
process, and prints one `sha256  run/file` line per output file plus the
exit code of each run.  Two checkouts whose digests agree wrote the same
bytes, which is how a refactor shows it kept the outputs.

    python3 tools/cli_digest.py                  # this checkout, temp outputs
    python3 tools/cli_digest.py --src OTHER/src  # another checkout
    python3 tools/cli_digest.py --out DIR        # keep the outputs in DIR

The whole set takes about a minute and a half on two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import os
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


def main(argv=None) -> int:
    here = Path(__file__).resolve().parents[1]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=here / "src",
                    help="directory holding the vortexpair package")
    ap.add_argument("--out", type=Path, default=None,
                    help="keep the outputs here instead of a temp dir")
    args = ap.parse_args(argv)
    if args.out is not None:
        lines = run_all(args.src.resolve(), args.out.resolve())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = run_all(args.src.resolve(), Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
