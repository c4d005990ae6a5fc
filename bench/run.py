"""Benchmark of pencillab: four seeded workloads, each checked against
answers computed apart from the program.

    python3 bench/run.py --workload structure --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, one after another
    python3 bench/run.py --quick          # every workload on a few instances

Each workload runs in a fresh process with BLAS pinned to one thread.
Times are wall times scaled to a fixed reference speed of the host,
sampled while the program runs (hostspeed.py), because the host's own
speed changes by up to 1.8 times from one stretch of seconds to the next.
The last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("structure", "taylor", "certificate", "analyze")
SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3  # set-up is measured in this many fresh processes; the median is reported
TIMEOUT_S = 170


def _worker(args: list[str]) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    result = _worker(common + ["--trace", str(trace)] + (["--quick"] if quick else []))
    completed = result["attempted"] - result["failed"]
    ok_wall = [t for t, ok in zip(result["wall_s"], result["ok"]) if ok]
    ok_scaled = [t for t, ok in zip(result["scaled_s"], result["ok"]) if ok]
    print(f"[{workload}] {completed} of {result['attempted']} instances checked in "
          f"{result['phase_s']:.3f} s over {result['rounds']} rounds; unscaled "
          f"{completed / sum(result['wall_s']):.4g}/s, "
          f"median {1e3 * statistics.median(ok_wall):.4g} ms"
          + "".join(f"; {name} absent" for name in result["absent"]))
    if trace:
        metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in result["per_layer"].items()}
    else:
        setup = [result["setup_s"]]
        if not quick:
            setup += [_worker(common + ["--setup-only"])["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "instances_per_s": {"value": completed / sum(result["scaled_s"]), "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(ok_scaled), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one short round per workload, for checking the benchmark itself")
    args = parser.parse_args()
    if not (ROOT / "src" / "pencillab" / "__init__.py").is_file():
        print(f"error: no pencillab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace,
                                      args.quick)))
        return 0
    results = {w: run_workload(w, args.seed, args.seconds, args.trace, args.quick)
               for w in WORKLOADS}
    for workload, result in results.items():
        print(f"{workload}: {json.dumps(result)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
