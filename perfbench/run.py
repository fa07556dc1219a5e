"""Closed-loop dispatch benchmark for fairdispatch.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload eval-md-std --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every episode ran and passed its output checks.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: with threads contending on a
# small box the trainer's matrix products slow down 10-55x, which would
# measure the scheduler instead of the program.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_program():
    """Make the checkout's ``src/fairdispatch`` importable, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "fairdispatch", "__init__.py")):
        raise SystemExit(f"run.py: no fairdispatch sources under {SRC}")
    sys.path.insert(0, SRC)
    import fairdispatch
    if os.path.dirname(os.path.dirname(os.path.abspath(fairdispatch.__file__))) != SRC:
        raise SystemExit(f"run.py: fairdispatch imported from {fairdispatch.__file__}, not {SRC}")


def main(argv=None) -> int:
    import_program()
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*harness.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args, list(harness.WORKLOADS))

    print("env " + json.dumps(harness.environment(ROOT), sort_keys=True), flush=True)
    workload = harness.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.trace:
            result = harness.trace(workload, args.seed, workdir)
        else:
            result = harness.measure(workload, args.seed, args.seconds, workdir)
    for key, value in result.notes.items():
        print(f"{args.workload} {key} {value}")
    for name, (value, unit) in result.metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def _run_all(args, names: list[str]) -> int:
    """Each workload in its own process, so ``peak_rss_mb`` is that workload's own."""
    results, status = {}, 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        status = status or proc.returncode
    print(json.dumps(results), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
