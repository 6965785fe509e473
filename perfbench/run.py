"""The repo benchmark: one command, three workloads, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mixed-backlog --seed 1 --seconds 30 --trace 0

It builds the compiled decision kernel into the build directory
(``$CARGO_TARGET_DIR`` or ``.bench_build``, under ``perfbench/``), times
set-up in a few fresh processes, runs the workload in one more fresh
process (``worker.py``), prints a readable report and, as the last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Workloads, metrics and layers are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mixed-backlog", "service-durable", "crash-recover")
#: Extra processes that only set up, so ``setup_s`` is a median of three.
SETUP_PROBES = 2
#: Seconds allowed for set-up, checks and teardown on top of twice
#: ``--seconds`` (the timed phase overshoots by at most one episode); the
#: set-up probes and the run are killed at that deadline (build excluded).
MARGIN_S = 90.0
#: Printed for every workload, so one command shows all nine metrics.
REPORTED = (
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("recover_s", "s"),
    ("failed_frac", "ratio"),
    ("admitted_frac", "ratio"),
    ("utilization", "ratio"),
    ("peak_rss_mb", "MiB"),
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def contract_metrics(root: Path, trace: int) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def child(cmd: list[str], env: dict, deadline: float) -> str:
    """Run one child process to completion (killed at the deadline)."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return stdout


def last_json(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("child printed nothing")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail("run from the root of a repro checkout (no src/repro here)")
    if not (root / "BENCHMARK.json").is_file():
        return fail("BENCHMARK.json not found in the current directory")
    wanted = contract_metrics(root, args.trace)

    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        REPRO_KERNEL="compiled",
        REPRO_KERNEL_LIB=str((build / "_kernels.so").resolve()),
        PERFBENCH_BUILD=str(build.resolve()),
        # The compiler's scratch files stay inside the checkout too.
        TMPDIR=str((build / "tmp").resolve()),
    )
    py = sys.executable

    try:
        # Build (or reuse) the compiled kernel before anything is timed.
        child([py, "-m", "repro.core.kernels", "--build"], env, time.monotonic() + 600)
        deadline = time.monotonic() + MARGIN_S + 2 * args.seconds
        worker = [
            py,
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        setups = []
        if args.trace == 0:
            for _ in range(SETUP_PROBES):
                setups.append(last_json(child(worker + ["--setup-only"], env, deadline)))
        result = last_json(child(worker, env, deadline))
    except (RuntimeError, ValueError, KeyError) as exc:
        return fail(str(exc))

    setups.append(result)
    raw_setups = [s["setup_raw_s"] for s in setups]
    setups = [s["setup_s"] for s in setups]
    metrics = result["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["failed_frac"] = {
            "value": result["failed"] / result["attempted"],
            "unit": "ratio",
        }
    missing = [name for name in wanted if name not in metrics]
    if missing:
        return fail(f"metrics missing from the run: {missing}")

    if args.trace == 0:
        print(f"== {args.workload} seed {args.seed}: end-to-end metrics")
        for name, unit in REPORTED:
            shown = metrics.get(name)
            value = "n/a (not measured by this workload)" if shown is None else f"{shown['value']:.6g}"
            print(f"{name:>18} = {value} {unit}")
        print(f"{'setup_s samples':>18} = " + ", ".join(f"{s:.4f}" for s in setups))
        print(f"{'raw (unscaled)':>18} = " + ", ".join(f"{s:.4f}" for s in raw_setups))
    else:
        print(f"== {args.workload} seed {args.seed}: per-layer metrics (traced run)")
        for name in wanted:
            shown = metrics[name]
            print(f"{name:>38} = {shown['value']:.6g} {shown['unit']}")
    for line in result["report"]:
        print(f"  {line}")
    print(
        f"  correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']}"
    )
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: metrics[name] for name in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
