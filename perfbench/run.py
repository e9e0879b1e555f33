"""End-to-end and per-layer benchmark of the ``scrl`` command line tool.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload roof-analyze --seed 1 --seconds 55 --trace 0

One operation is one fresh ``scrl`` process on a fixed workload
configuration, started one at a time with BLAS and OpenMP pinned to one
thread, writing into an empty output directory.  Operations repeat until
the next one would overrun ``--seconds``; each is checked after it
exits, outside its timed interval.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb`` with
``--trace 0``, or the per-layer metrics of ``tracing.py`` from traced
processes with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import LAYER_METRICS, layer_metrics  # noqa: E402

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUNS_DIR = ".perfbench-runs"
CIRCLE_EPSILONS = [0.02, 0.05, 0.1]
CIRCLE_SAMPLE = 32
RUN_LIMIT_S = 170.0          # hard cap on one run, whatever --seconds says


@dataclass
class Workload:
    argv: list
    check: Callable[[Path], list]
    digests: set = field(default_factory=set)

    def verify(self, out: Path) -> list:
        """The workload's checks, plus byte identity with earlier operations."""
        problems = self.check(out)
        self.digests.add(checks.digest(out))
        if len(self.digests) > 1:
            problems.append("artifacts differ from an earlier operation of this run")
        return problems


def make_workload(name: str, seed: int) -> Workload:
    if name == "roof-analyze":
        return Workload(["analyze", "--system", "roof", "--grid", "16"],
                        partial(checks.check_roof, grid=16))
    if name == "square-analyze":
        return Workload(["analyze", "--system", "square", "--grid", "24"],
                        partial(checks.check_square, grid=24))
    n = 1792
    argv = ["compare", "--system", "circle", "--grid", str(n)]
    for e in CIRCLE_EPSILONS:
        argv += ["--epsilon", str(e)]
    sample = np.random.default_rng(seed).choice(n, CIRCLE_SAMPLE, replace=False)
    ref = checks.CircleReference(n, np.sort(sample), limit=max(CIRCLE_EPSILONS) + 0.01)
    return Workload(argv, partial(checks.check_circle, ref=ref, epsilons=CIRCLE_EPSILONS))


def child_env(root: Path) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class Op:
    code: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    probe: dict


def run_op(root: Path, argv: list, op_dir: Path, trace: bool, timeout: float) -> Op:
    """One ``scrl`` process; wall time from launch to exit, peak RSS from wait4."""
    op_dir.mkdir(parents=True)
    probe_path = op_dir / "probe.json"
    cmd = [sys.executable, str(HERE / "launch.py"), str(probe_path), "1" if trace else "0",
           *argv, "--out", str(op_dir / "out")]
    env = child_env(root)
    with open(op_dir / "stdout.txt", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=op_dir)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    probe = json.loads(probe_path.read_text()) if probe_path.exists() else {}
    done = probe.get("bundle_done")
    return Op(proc.returncode, t1 - t0, None if done is None else done - t0,
              usage.ru_maxrss / 1024.0, probe)


def warm_up(root: Path) -> None:
    """Load the interpreter, numpy and scipy once, so no operation pays a cold cache."""
    subprocess.run([sys.executable, "-c", "import scrl.cli"], env=child_env(root),
                   check=True, stdout=subprocess.DEVNULL, timeout=120)


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("roof-analyze", "square-analyze", "circle-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "scrl" / "cli.py").is_file():
        print(f"error: no scrl sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    wl = make_workload(args.workload, args.seed)
    warm_up(root)
    print(f"# {args.workload} seed {args.seed}: {' '.join(wl.argv)}; python "
          f"{sys.version.split()[0]}, numpy {np.__version__}, {THREAD_ENV}", flush=True)
    run_dir = root / RUNS_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)

    ops, layers, traces, longest = [], [], [], 0.0
    attempted = failed = 0
    correct = True
    t_start = time.monotonic()
    while True:
        t_op = time.monotonic()
        op_dir = run_dir / f"op{attempted}"
        timeout = max(5.0, RUN_LIMIT_S - (t_op - started))
        op = run_op(root, wl.argv, op_dir, bool(args.trace), timeout)
        attempted += 1
        out = op_dir / "out"
        if op.code != 0 or op.setup_s is None:
            failed += 1
            tail = (op_dir / "stdout.txt").read_text(errors="replace").splitlines()[-5:]
            print(f"op {attempted}: exit {op.code}", *tail, sep="\n", file=sys.stderr)
        else:
            try:
                problems = wl.verify(out)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable artifacts: {exc!r}"]
            if problems:
                failed += 1
                correct = False
                print(f"op {attempted}: wrong output: {'; '.join(problems)}", file=sys.stderr)
            else:
                ops.append(op)
        if args.trace and "trace" in op.probe:
            layers.append(layer_metrics(op.probe["trace"], artifact_bytes(out), op.wall_s))
            traces.append(op.probe["trace"])
        print(f"op {attempted}: exit {op.code} wall {op.wall_s:.3f} s "
              f"setup {op.setup_s if op.setup_s is None else round(op.setup_s, 3)} s "
              f"rss {op.rss_mb:.1f} MiB", flush=True)
        shutil.rmtree(op_dir)
        now = time.monotonic()
        longest = max(longest, now - t_op)
        if now - t_start + longest > args.seconds or now - started + longest > RUN_LIMIT_S - 10:
            break

    if args.trace:
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "trace.json").write_text(json.dumps({"workload": args.workload, "ops": traces}))
        metrics = {m: {"value": statistics.median(d[m] for d in layers) if layers else 0.0,
                       "unit": unit} for m, unit in LAYER_METRICS.items()}
    else:
        shutil.rmtree(run_dir, ignore_errors=True)
        done = ops or [op]
        metrics = {
            "wall_s": {"value": statistics.median(o.wall_s for o in done), "unit": "s"},
            "setup_s": {"value": statistics.median(o.setup_s or o.wall_s for o in done),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(o.rss_mb for o in done), "unit": "MiB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
