"""The macronet benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Workloads: extract, train, serve,
serve-sparse (see bench/README.md). The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
workload's end-to-end metrics with ``--trace 0``, every per-layer metric with
``--trace 1``. A traced run times the layers of all the pipelines (extract,
train and the service), each for a third of the run, and counts only the
named workload's operations; it also prints a table of its metrics and
writes its spans to bench/out/spans/. Every run writes its result,
operation counts and machine facts to bench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

import common

WORKLOADS = ("extract", "train", "serve", "serve-sparse")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (common.SRC / "macronet" / "__init__.py").is_file():
        print(f"error: no macronet sources under {common.SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(common.THREAD_ENV)  # before numpy loads its BLAS
    common.pin_to_one_cpu()
    sys.path.insert(0, str(common.SRC))
    import inputs
    import oracle
    import pipeline
    import serving
    from tracing import Tracer

    # A run stopped from outside still stops the servers it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.trace:
        parts = [pipeline.extract, pipeline.train, serving.service_layers]
    else:
        parts = [{"extract": pipeline.extract, "train": pipeline.train,
                  "serve": serving.serve, "serve-sparse": serving.serve_sparse}[args.workload]]
    tracer = Tracer() if args.trace else None
    ctx = common.Context(args.workload, args.seed, args.seconds / len(parts), tracer,
                         inputs.Program())
    problem = None
    try:
        for part in parts:
            part(ctx)
    except oracle.CheckFailed as e:
        problem = str(e)
        print(f"check failed: {problem}", file=sys.stderr)
    finally:
        for close in reversed(ctx.closers):
            close()
        shutil.rmtree(ctx.work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        spans = common.OUT / "spans" / f"{tag}.json"
        tracer.write(spans)
        print(f"{'per-layer metric':<38}{'value':>14}  unit")
        for name, m in ctx.metrics.items():
            print(f"{name:<38}{m['value']:>14.4f}  {m['unit']}")
        for part, t in ctx.details.get("tracing", {}).items():
            print(f"tracing overhead, {part}: {t['overhead_s']:+.4f} s per traced pass "
                  f"({t['untraced_wall_s']:.4f} s untraced)")
        print(f"spans: {spans}")
    result = {
        "correct": problem is None,
        "attempted": sum(ctx.attempted.values()),
        "failed": sum(ctx.failed.values()),
        "metrics": ctx.metrics,
    }
    common.write_json(common.OUT / "results" / f"{tag}.json", {
        **result,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "problem": problem,
        "operations": {kind: {"attempted": n, "failed": ctx.failed[kind]}
                       for kind, n in ctx.attempted.items()},
        "machine": common.machine_facts(), "stolen_share": ctx.stolen_share(),
        "details": ctx.details,
    })
    print(json.dumps(result))
    return 0 if problem is None else 1


if __name__ == "__main__":
    sys.exit(main())
