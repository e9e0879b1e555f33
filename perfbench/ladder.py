"""One-off reference figures for a size ladder; not a checked workload.

Usage, from the root of a source checkout: ``python3 perfbench/ladder.py``

Each rung is one ``scrl`` process started as the benchmark starts its
operations (same pinned thread environment), reporting ``wall_s``,
``setup_s`` and ``peak_rss_mb``.  The figures size later O(n^2) work.
"""

import shutil
import sys
from pathlib import Path

from run import RUNS_DIR, run_op, warm_up

LADDER = ([("square", n) for n in (32, 40, 48, 64)] + [("roof", n) for n in (36, 48)]
          + [("circle", n) for n in (1024, 2048, 4096)])


def main() -> int:
    root = Path.cwd()
    warm_up(root)
    base = root / RUNS_DIR / "ladder"
    shutil.rmtree(base, ignore_errors=True)
    print("| system | grid | exit | wall_s | setup_s | peak_rss_mb |")
    print("|---|---|---|---|---|---|")
    for system, n in LADDER:
        if system == "circle":
            argv = ["compare", "--system", "circle", "--grid", str(n),
                    "--epsilon", "0.02", "--epsilon", "0.05", "--epsilon", "0.1"]
        else:
            argv = ["analyze", "--system", system, "--grid", str(n)]
        op = run_op(root, argv, base / f"{system}{n}", trace=False, timeout=1800)
        setup = "-" if op.setup_s is None else f"{op.setup_s:.2f}"
        print(f"| {system} | {n} | {op.code} | {op.wall_s:.1f} | {setup} | {op.rss_mb:.0f} |",
              flush=True)
    shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
