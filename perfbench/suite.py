"""Run every benchmark workload in two sets of seeds and summarise each metric.

    python3 perfbench/suite.py --runs 10

Each run is its own process through `perfbench/run.py`, with seeds
seed_base, seed_base+1, ... Both sets run the same seeds, interleaved: for
each seed, each workload runs once for set 0 and once for set 1, so that a
slow drift of the machine falls on both sets alike. For each set and each
end-to-end metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them), the spread (q3 - q1) /
median, the bound from BENCHMARK.json and the sample count. Every spread
must stay within its bound, the second set's median must not be worse than
the first's by more than the bound, and digests and simulated counts must
agree exactly. One traced run per workload and set (the first seed) gives
the per-layer metrics and the tracing overhead, the ratio of untraced to
traced trials/s. Writes the summary to `perfbench/out/suite.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    print(f"run {workload} seed={seed} trace={trace} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in list(result["metrics"].items())[:6]),
          flush=True)
    result["digest"] = next(x.split()[1] for x in lines if x.startswith("digest "))
    result["cpu_per_wall"] = float(next(x.split()[1] for x in lines
                                        if x.startswith("cpu_per_wall ")))
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]],
                    choices=sorted(bench.WORKLOADS),
                    help="default: the workloads of BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args(argv)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = [args.seed_base + r for r in range(args.runs)]
    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True

    runs = {wl: [[] for _ in range(SETS)] for wl in args.workloads}
    traced_runs = {wl: [[] for _ in range(SETS)] for wl in args.workloads}
    for seed in seeds:
        for wl in args.workloads:
            for k in range(SETS):
                runs[wl][k].append(one_run(wl, seed, seconds, 0))
                if seed == seeds[0]:
                    traced_runs[wl][k].append(one_run(wl, seed, seconds, 1))

    for wl in args.workloads:
        sets, traced_sets = runs[wl], traced_runs[wl]
        traced = traced_sets[0]
        digests = [[r["digest"] for r in rs + ts] for rs, ts in zip(sets, traced_sets)]
        counts = [[[r["metrics"][n]["value"] for n in bench.EXACT] for r in ts]
                  for ts in traced_sets]
        everything = [r for rs, ts in zip(sets, traced_sets) for r in rs + ts]
        entry = {"correct": all(r["correct"] for r in everything),
                 "attempted": sum(r["attempted"] for r in everything),
                 "failed": sum(r["failed"] for r in everything),
                 "digests_agree": all(d == digests[0] for d in digests),
                 "counts_agree": all(c == counts[0] for c in counts),
                 "cpu_per_wall_min": min(r["cpu_per_wall"] for r in everything),
                 "sets": [], "per_layer": {}}
        ok &= entry["correct"] and entry["digests_agree"] and entry["counts_agree"]
        print(f"== {wl}: {len(seeds)} seeds x {SETS} sets, {seconds} s per run; "
              f"correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']} digests_agree={entry['digests_agree']} "
              f"counts_agree={entry['counts_agree']} "
              f"cpu_per_wall_min={entry['cpu_per_wall_min']:.3f}")
        for k, set_runs in enumerate(sets):
            summary = {}
            for name, unit in bench.END_TO_END:
                st = summarise([r["metrics"][name]["value"] for r in set_runs])
                st["unit"], st["bound"] = unit, bounds[name]
                summary[name] = st
                if k:
                    first = entry["sets"][0][name]["median"]
                    worse = (st["median"] - first) / first
                    if better[name] == "higher":
                        worse = -worse
                    st["worse_than_set0"] = worse
                    ok &= worse <= bounds[name]
                ok &= st["spread"] <= bounds[name]
                print(f"set{k} {name:<24} median {st['median']:<12.6g} q1 {st['q1']:<12.6g} "
                      f"q3 {st['q3']:<12.6g} spread {st['spread']:.3f} bound {st['bound']} "
                      f"n={st['n']} {unit}"
                      + (f" worse_than_set0 {st['worse_than_set0']:+.3f}" if k else ""))
            entry["sets"].append(summary)
        if traced:
            for name, unit in bench.PER_LAYER:
                vals = [r["metrics"][name]["value"] for r in traced]
                entry["per_layer"][name] = dict(summarise(vals), unit=unit)
            ratio = (entry["sets"][0]["trials_per_s"]["median"]
                     / entry["per_layer"]["traced.trials_per_s"]["median"])
            entry["tracing_overhead"] = ratio
            for name, unit in bench.PER_LAYER:
                st = entry["per_layer"][name]
                print(f"traced {name:<34} median {st['median']:<12.6g} n={st['n']} {unit}")
            print(f"tracing overhead (untraced / traced trials_per_s): {ratio:.3f}")
        report["workloads"][wl] = entry

    out = HERE / "out" / "suite.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"summary written to {out.relative_to(ROOT)}; "
          f"{'all checks hold' if ok else 'SOME CHECKS FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
