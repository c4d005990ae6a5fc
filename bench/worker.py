"""One workload in one fresh process; started by run.py, which pins BLAS
to one thread in its environment.

Prints one JSON line: the counts, the timed-phase wall time, the wall
time and the time at the reference speed (see hostspeed.py) of every
attempted instance, the peak resident memory, the set-up time and, with
``--trace 1``, the per-layer metrics.  With ``--setup-only`` it stops
after set-up and prints the set-up time alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import Sampler

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # set-up: importing the package plus one warm-up instance (numpy is
    # already imported, by the sampler)
    sampler = Sampler()
    sampler.start()
    try:
        setup = sampler.mark()
        import pencillab as pl
        import pencillab.cli  # noqa: F401  (the analyze workload calls it)
        import_wall_s, import_s = sampler.scaled(setup)
        if not Path(pl.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"pencillab imported from {pl.__file__}, not from this checkout")

        import workloads as wl
        from spans import Tracer

        runs = BENCH / "runs"
        runs.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=runs) as tmp:
            workdir = Path(tmp)
            extra = (workdir,) if args.workload == "analyze" else ()
            warm = getattr(wl, f"{args.workload}_warmup")(
                pl, wl.corpus_stream(warmup=True), wl.coordinate_stream(args.seed, wl.WARMUP),
                *extra)
            setup = sampler.mark()
            out = warm.run()
            warm_wall_s, warm_s = sampler.scaled(setup)
            setup_wall_s, setup_s = import_wall_s + warm_wall_s, import_s + warm_s
            reason = warm.check(out)
            if reason:
                raise SystemExit(f"warm-up instance wrong: {reason}")
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
                return 0

            builders = getattr(wl, f"{args.workload}_round")(pl, wl.corpus_stream(), args.quick,
                                                               *extra)
            tracer = None
            if args.trace:
                sampler.stop()  # its numpy calls must not reach the tracer's counts
                sampler = None
                tracer = Tracer()
                tracer.install()
            attempted = failed = rounds = 0
            phase_s = 0.0
            wall_s: list[float] = []    # every attempted instance, in order
            scaled_s: list[float] = []  # the same at the reference speed
            ok: list[bool] = []         # whether its call did not raise
            wrong: list[str] = []
            failures: dict[str, int] = {}
            while rounds == 0 or (not args.quick and phase_s < args.seconds):
                coords = wl.coordinate_stream(args.seed, rounds)
                instances = [build(coords) for build in builders]
                round_start = time.perf_counter()
                for inst in instances:
                    attempted += 1
                    mark = sampler.mark() if sampler else time.perf_counter()
                    try:
                        out = inst.run()
                        ok.append(True)
                    except pl.PencilLabError as exc:
                        ok.append(False)
                        failed += 1
                        key = f"{inst.label}: {type(exc).__name__}"
                        failures[key] = failures.get(key, 0) + 1
                    if sampler:
                        wall, scaled = sampler.scaled(mark)
                    else:
                        wall = scaled = time.perf_counter() - mark
                    wall_s.append(wall)
                    scaled_s.append(scaled)
                    if ok[-1]:
                        reason = inst.check(out)
                        if reason:
                            wrong.append(f"{inst.label}: {reason}")
                phase_s += time.perf_counter() - round_start
                rounds += 1
            if tracer is not None:
                tracer.uninstall()
    finally:
        if sampler:
            sampler.stop()

    for key, count in sorted(failures.items()):
        print(f"failed {count}x {key}", file=sys.stderr)
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "correct": not wrong,
        "phase_s": phase_s,
        "wall_s": wall_s,
        "scaled_s": scaled_s,
        "ok": ok,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "per_layer": tracer.metrics() if tracer else None,
        "absent": tracer.absent if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
