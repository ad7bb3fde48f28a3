"""Run the repository benchmark.

    python3 perfbench/run.py --workload fit_cbf --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
traced variant and prints the per-layer metrics. ``--workload all``
runs every workload, each in a fresh process so that ``peak_rss_mb``
belongs to that workload alone. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Module-level so that spawned shard workers, which re-import this file
# as their main module, resolve the same packages.
sys.path[:0] = [str(HERE), str(SRC)]

SUBPROCESS_TIMEOUT_S = 180


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in _spec()[kind]}


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """Hash of every source file: identifies the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_context() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _stop_resource_tracker() -> None:
    """Stop and wait for the helper process shared memory starts.

    The sharded tier's shared pattern bank starts multiprocessing's
    resource tracker; it would otherwise outlive this process briefly.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_one(args) -> int:
    import workloads

    try:
        metrics, tally, context = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_resource_tracker()
    kind = "per_layer" if args.trace else "end_to_end"
    units = _units(kind)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json {kind}: "
            f"missing {sorted(set(units) - set(metrics))}, extra {sorted(set(metrics) - set(units))}"
        )
    context.update(host_context())
    for name in units:
        print(f"{args.workload:22s} {name:38s} {metrics[name]:>16.6f} {units[name]}")
    for problem in dict.fromkeys(tally.problems):
        print(f"FAILED: {problem}")
    print("context " + json.dumps(context, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined summary line."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != SRC:
        print(f"imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default: the dataset's registry default seed)",
    )
    parser.add_argument("--seconds", type=float, default=float(_spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    # A terminated run unwinds like an interrupted one, so the serving
    # tiers stop their worker processes and wait for them.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
