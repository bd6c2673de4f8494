"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload design-flow --seed 1 --seconds 30 --trace 0

The workload runs in a fresh interpreter (``perfbench/workloads.py``)
with one BLAS thread, so no run uses more processes and threads than
the machine has cores (the campaign's two pool workers included).
Set-up time is measured from spawning that interpreter to the workload
being ready, and in six extra set-up-only interpreters as well, three
started before the run and three after it, so the samples span the
run's whole time; the median of the seven is reported.

``--trace 0`` prints the end-to-end metrics of the workload; ``--trace
1`` prints the per-layer figures of one traced unit instead.  Metric
units come from ``BENCHMARK.json``.  The line before the result holds
the machine fingerprint and the raw set-up samples.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("design-flow", "campaign-sharded", "chip-serve")
SETUP_BEFORE = 3             # set-up-only interpreters before the run
SETUP_AFTER = 3              # ... and after it
BUDGET_S = 175.0


class ChildFailed(RuntimeError):
    pass


def _child(argv, env, deadline: float) -> tuple:
    """Run the workload interpreter; return (result, seconds to ready)."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py")] + argv,
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"workload did not finish within the {BUDGET_S:.0f}s budget")
    finally:
        # The campaign's pool workers share the child's process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise ChildFailed(f"workload exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed("workload printed no result")
    result = json.loads(lines[-1])
    return result, result["ready_monotonic"] - spawned


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}

    deadline = time.monotonic() + BUDGET_S
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    scratch = root / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        def setup_only(i: int) -> float:
            return _child(common + ["--setup-only", "--work-dir",
                                    str(work / f"s{i}")], env, deadline)[1]

        setups = [setup_only(i) for i in range(SETUP_BEFORE)]
        result, setup_s = _child(
            common + ["--seconds", str(args.seconds), "--trace",
                      str(args.trace), "--work-dir", str(work / "run")],
            env, deadline)
        setups.append(setup_s)
        setups += [setup_only(SETUP_BEFORE + i) for i in range(SETUP_AFTER)]
    except ChildFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    if args.trace:
        values = result["layers"]
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
    print(json.dumps({
        "fingerprint": result["fingerprint"],
        "setup_samples_s": setups,
        "unit_samples_s": result["unit_samples_s"],
        "checks": result["checks"],
        "quality": result["quality"],
    }))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
