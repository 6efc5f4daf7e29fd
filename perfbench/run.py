"""Run one ufpipe benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sparse-d11 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from `src/`. The
lines before the last are for people; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
the end-to-end metrics, measured untraced; `--trace 1` reports the
per-layer metrics from a run that records spans and writes them to
`perfbench/out/`. Exits with code 2, printing no result, when the
checkout has no `src/ufpipe`.
"""

from __future__ import annotations

import argparse
import json
import sys

import bench


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        res = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except bench.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    w = bench.WORKLOADS[args.workload]
    print(f"workload {args.workload} d={w.d} p={w.p} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} block={w.block} pipe_block={w.pipe_block}")
    names = bench.PER_LAYER if args.trace else bench.END_TO_END
    shown = [n for n, _ in names]
    if not args.trace:
        shown += ["failed_frac", "pipeline_mismatch_frac"] + \
            [f"microarch.mismatch_{k}" for k in bench.MISMATCH_KINDS] + \
            ["uf_core.logical_failures", "uf_core.logical_fail_lo", "uf_core.logical_fail_hi"]
    for name in shown:
        value, unit, samples = res.metrics[name]
        print(f"metric {name} {value:.6g} {unit} n={samples}")
    print(f"trials attempted={res.attempted} failed={res.failed} kinds={res.failure_kinds}")
    print(f"cpu_per_wall {res.cpu_per_wall:.4f} (process CPU s per wall s while measuring)")
    print(f"digest sha256:{res.digest}")
    if res.spans_path:
        print(f"spans {res.spans_path}")
    metrics = {n: {"value": res.metrics[n][0], "unit": u} for n, u in names}
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
