"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


# uf_core caches adjacency by id(graph), so a graph built after another was
# freed can get the freed graph's adjacency. The benchmark runs one workload
# per process and keeps its graphs alive; these tests run many in one
# process, so they keep every benchmark (and its graphs) alive.
_ALIVE = []


def tiny(workload, seed=7, trace=False, mods=None):
    b = bench.Bench(workload, seed, trace, mods=mods, block=24, pipe_block=12)
    _ALIVE.append(b)
    return b.run(0.05)


def test_spec_matches_the_metrics_the_benchmark_reports():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == bench.PER_LAYER
    for w in SPEC["workloads"]:
        assert w["why"] == bench.WORKLOADS[w["name"]].why
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_units(workload, trace):
    res = tiny(workload, trace=trace)
    assert res.correct and res.failed == 0 and res.attempted >= 24
    names = bench.PER_LAYER if trace else bench.END_TO_END
    for name, unit in names:
        value, got_unit, samples = res.metrics[name]
        assert got_unit == unit and samples >= 1, name
        assert isinstance(value, (int, float)), name
    if trace:
        assert res.metrics["uf_core.grow_us"][0] > 0
        assert res.metrics["microarch.grgen_us"][0] > 0
        assert res.metrics["host.yardstick_us"][0] > 0
        assert (bench.ROOT / res.spans_path).is_file()


def test_repeated_set_ups_run_in_child_processes():
    b = bench.Bench("sparse-d11", 1, False, block=24, pipe_block=12)
    _ALIVE.append(b)
    res = b.run(0.05)
    setup_s, build_s = res.metrics["setup_s"], res.metrics["lattice.build_s"]
    assert setup_s[2] == len(b.setup_s) == bench.WORKLOADS["sparse-d11"].setup_reps
    assert all(0 < t < 5 for t in b.setup_s)
    assert all(0 < bt <= st for bt, st in zip(b.build_s, b.setup_s))
    assert build_s[0] < setup_s[0]


def test_same_seed_repeats_and_another_seed_changes_inputs():
    a, b, c = tiny("dense-d11", 3, True), tiny("dense-d11", 3, True), tiny("dense-d11", 4, True)
    assert a.digest == b.digest
    assert [a.metrics[n][0] for n in bench.EXACT] == [b.metrics[n][0] for n in bench.EXACT]
    assert a.digest != c.digest
    assert a.metrics["uf_core.defects"][0] != c.metrics["uf_core.defects"][0]


def test_corrupted_correction_counts_as_failure():
    mods = bench.load_ufpipe()
    uf = mods["uf_core"]

    def bad_peel(forest, syn):
        corr = uf.peel(forest, syn)
        return uf.Correction(edge_ids=corr.edge_ids[1:])  # drop one edge

    mods = dict(mods, uf_core=types.SimpleNamespace(**dict(vars(uf), peel=bad_peel)))
    res = tiny("dense-d11", mods=mods)
    assert not res.correct
    assert res.failure_kinds.get("not_cancel", 0) == res.failed > 0
    # a failed trial stays in the timing and in the counts
    assert res.metrics["failed_frac"][0] == res.failed / res.attempted
    assert res.metrics["trials_per_s"][1] == "1/s"


def test_differential_check_counts_a_corrupted_pipeline_correction():
    mods = bench.load_ufpipe()
    micro = mods["microarch"]

    def bad_decode(graph, syn):
        corr, state, stats = micro.decode_with_pipeline(graph, syn)
        flipped = sorted(set(corr.edge_ids.tolist()) ^ {0})  # toggle edge 0
        return micro.Correction(edge_ids=bench.np.asarray(flipped, dtype=bench.np.int64)), \
            state, stats

    mods = dict(mods, microarch=types.SimpleNamespace(
        **dict(vars(micro), decode_with_pipeline=bad_decode)))
    res = tiny("dense-d11", mods=mods)
    assert res.correct  # the oracle is unaffected
    assert res.metrics["pipeline_mismatch_frac"][0] == 1.0
    assert res.metrics["microarch.mismatch_correction"][0] == 12
    assert res.metrics["microarch.mismatch_not_cancel"][0] == 12


def test_cli_prints_one_json_result_last():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sparse-d11", "--seed", "5",
         "--seconds", "0.1", "--trace", "0"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=180, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert list(last["metrics"]) == [n for n, _ in bench.END_TO_END]
    assert last["correct"] is True and last["attempted"] >= bench.WORKLOADS["sparse-d11"].block
    assert "metric failed_frac" in out.stdout and "metric pipeline_mismatch_frac" in out.stdout


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-d11", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_self_time_subtracts_child_spans():
    tr = bench.Tracer()
    tr.names = ["trial", "a", "b", "c"]
    for nid, start, stop, parent in ((0, 0, 100, -1), (1, 10, 40, 0), (2, 50, 90, 0),
                                     (3, 60, 70, 2)):
        tr.name.append(nid)
        tr.start.append(start)
        tr.stop.append(stop)
        tr.parent.append(parent)
        tr.trial_of.append(0)
    assert tr.self_times() == {"trial": (30, 1), "a": (30, 1), "b": (30, 1), "c": (10, 1)}


def test_statistics_helpers():
    y = bench.YARD_NS
    # a chunk is (items, busy ns, yardstick ns before, after)
    assert bench.nominal_rate([(10, 10**9, y, y)]) == 10.0
    # a machine twice as slow takes twice as long for the work and the yardsticks alike
    assert bench.nominal_rate([(10, 2 * 10**9, 2 * y, 2 * y)]) == 10.0
    # each chunk is scaled by its own yardsticks, and the rate is over all items
    assert bench.nominal_rate([(10, 10**9, y, y), (50, 4 * 10**9, y, 3 * y)]) == 20.0
    assert bench.scale_of(y, 3 * y) == 0.5
    assert bench.percentile(list(range(1, 101)), 0.99) == 99
    lo, hi = bench.wilson(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05

