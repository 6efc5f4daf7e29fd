"""Closed-loop Monte-Carlo benchmark of the ufpipe decoders.

One caller, one thread, one workload per process. Each oracle trial is
`TrialSampler.sample` -> `syndrome_indices_of_edges` -> `Decoder.grow`,
`spanning_forest`, `peel`, `cluster_stats` -> `assess`. The pipeline model
(`decode_with_pipeline`) then runs on the same syndromes and is checked
against the oracle's correction, `DecodeStats` and cluster partition.

Every input is a function of (workload, seed, trial index). The oracle
decodes a fixed block of trial indices [0, block) and the pipeline model
the prefix [0, pipe_block); both cycle over their block, in alternating
chunks of CHUNK_S seconds, until the run's time is spent. Each chunk is
timed between two runs of `yardstick()`, and its time is scaled to a nominal
machine by them. Counts, mismatches and the digest come from the first
pass, so they do not depend on how fast the machine is; later passes are
timed and must reproduce the first pass exactly. Warm-up uses trial indices
at WARMUP_BASE and above, outside every measured block.

This module imports `ufpipe` lazily through `load_ufpipe`, which accepts
only the package under `<root>/src`.
"""

from __future__ import annotations

import gc
import gzip
import hashlib
import importlib
import math
import os
import resource
import statistics
import struct
import sys
import time
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import astuple, dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WARMUP_BASE = 1 << 40
CHUNK_S = 0.1  # the oracle and pipeline loops alternate in chunks of this many seconds
# Every timing is scaled to a nominal machine on which `yardstick()` takes
# YARD_NS. The machine switches between a fast and a slow state, for seconds
# or for minutes at a time (see README.md), and the yardstick, run just
# before and just after each timed piece of work, measures which state that
# work ran in.
YARD_NS = 3_000_000
_YARD_ARRAY = np.arange(4096, dtype=np.int64)


def yardstick() -> int:
    """Run a fixed piece of work and return its wall time in ns.

    The work mixes interpreter-bound Python (a union-find over a list, and a
    dict) with small numpy calls, as the decoders do. It never changes with
    the program under test, so its time is a measure of the machine's speed
    at that moment, and a timing divided by it is not.
    """
    t0 = perf_counter_ns()
    parent, size, seen, x = list(range(512)), [1] * 512, {}, 12345
    for _ in range(2000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a, b = x & 511, (x >> 9) & 511
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
        seen[a] = seen.get(a, 0) + 1
    for k in range(80):
        np.bincount(np.unique(_YARD_ARRAY[k:k + 200] % 97), minlength=97)
    return perf_counter_ns() - t0


def scale_of(y0: int, y1: int) -> float:
    """Factor that turns a time measured between yardsticks y0 and y1 into nominal time."""
    return 2 * YARD_NS / (y0 + y1)


@dataclass(frozen=True)
class Workload:
    d: int
    p: float
    why: str
    block: int        # oracle trial indices [0, block) per pass; digest and counts cover them
    pipe_block: int   # pipeline-model trial indices [0, pipe_block), a prefix of the oracle block
    warmup: int       # trials at WARMUP_BASE.. run through both loops before timing
    setup_reps: int   # set-ups timed per run, all but the first in forked children


WORKLOADS = {
    "sparse-d11": Workload(
        d=11, p=1e-3, block=2000, pipe_block=2000, warmup=300, setup_reps=60,
        why="d=11 p=1e-3, ~7 defects/trial: per-trial numpy stages (sample, syndrome, assess) "
            "dominate; sparse sampling and batched numpy show here"),
    "dense-d11": Workload(
        d=11, p=2e-2, block=600, pipe_block=300, warmup=20, setup_reps=60,
        why="d=11 p=2e-2, ~125 defects/trial: grow and forest dominate; decoder-kernel changes "
            "show here and a sampling change should not"),
    "sparse-d25": Workload(
        d=25, p=1e-3, block=600, pipe_block=200, warmup=10, setup_reps=15,
        why="d=25 p=1e-3, ~86 defects/trial: O(d^3) per-trial costs (dense draw, pipeline "
            "state rebuild) dominate; largest working set"),
}

# (name, unit) of every metric the benchmark reports; BENCHMARK.json lists the
# end-to-end ones under end_to_end and the traced ones under per_layer.
END_TO_END = [
    ("trials_per_s", "1/s"),
    ("decode_us_p50", "us"),
    ("decode_us_p99", "us"),
    ("pipeline_decodes_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

ORACLE_LAYERS = ["noise.sample", "lattice.syndrome", "uf_core.grow", "uf_core.forest",
                 "uf_core.peel", "uf_core.stats", "uf_core.assess"]
PIPELINE_LAYERS = ["microarch.state", "microarch.grgen", "microarch.dfs", "microarch.corr",
                   "microarch.pipeline"]
# module attribute of each pipeline stage -> span name; traced runs wrap them
PIPELINE_STAGES = {"new_pipeline_state": "microarch.state", "run_grgen": "microarch.grgen",
                   "run_dfs": "microarch.dfs", "run_corr": "microarch.corr"}
TRACE_COUNTS = ["reads_grgen", "reads_dfs", "reads_corr", "parity_scans", "stm_row_reads",
                "table_reads", "fes_pops"]
MISMATCH_KINDS = ["correction", "stats", "partition", "not_cancel", "raised"]

PER_LAYER = (
    [("lattice.build_s", "s")]
    + [(f"{name}_us", "us") for name in ORACLE_LAYERS + PIPELINE_LAYERS]
    + [("noise.failed_edges", "count")]
    + [(f"uf_core.{c}", "count") for c in
       ("defects", "clusters", "passes", "cluster_size_max", "tree_edges_max",
        "correction_weight", "logical_failures")]
    + [("uf_core.logical_fail_rate", "ratio"), ("uf_core.logical_fail_lo", "ratio"),
       ("uf_core.logical_fail_hi", "ratio")]
    + [(f"microarch.{c}", "count") for c in TRACE_COUNTS]
    + [("microarch.sim_latency_ns", "ns"), ("microarch.grgen_estimate_ratio", "ratio"),
       ("microarch.dfs_estimate_ratio", "ratio"), ("microarch.corr_estimate_ratio", "ratio")]
    + [(f"microarch.mismatch_{k}", "count") for k in MISMATCH_KINDS]
    + [("failed_frac", "ratio"), ("pipeline_mismatch_frac", "ratio"),
       ("traced.trials_per_s", "1/s"), ("traced.pipeline_decodes_per_s", "1/s"),
       ("host.yardstick_us", "us")]
)
# per-layer metrics that depend only on (workload, seed), never on timing
EXACT = [n for n, u in PER_LAYER if u in ("count", "ns", "ratio")
         and not n.startswith("traced.") and n != "failed_frac"]


class SourceMissing(RuntimeError):
    """The checkout has no `src/ufpipe` to benchmark."""


def load_ufpipe(root: Path = ROOT):
    """Import the ufpipe modules from `<root>/src`, never from elsewhere."""
    src = root / "src"
    if not (src / "ufpipe" / "__init__.py").is_file():
        raise SourceMissing(f"no ufpipe sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("ufpipe")
    if Path(pkg.__file__).resolve().parent != (src / "ufpipe").resolve():
        raise SourceMissing(f"ufpipe was imported from {pkg.__file__}, not from {src}")
    names = ("lattice", "noise", "uf_core", "microarch")
    return {n: importlib.import_module(f"ufpipe.{n}") for n in names}


# -- tracing ---------------------------------------------------------------


class NoTrace:
    """Span recorder that records nothing; the untimed default."""

    trial = -1

    def call(self, name, fn, *args):
        return fn(*args)

    def begin(self, name):
        pass

    def end(self):
        pass


class Tracer(NoTrace):
    """In-memory span recorder: name, start, end, parent span and trial id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.stop = array("q")
        self.parent = array("q")
        self.trial_of = array("q")
        self._open: list[int] = []

    def clear(self):
        for a in (self.name, self.start, self.stop, self.parent, self.trial_of):
            del a[:]

    def begin(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self._open.append(len(self.name))
        self.name.append(nid)
        self.parent.append(self._open[-2] if len(self._open) > 1 else -1)
        self.trial_of.append(self.trial)
        self.stop.append(0)
        self.start.append(perf_counter_ns())

    def end(self):
        self.stop[self._open.pop()] = perf_counter_ns()

    def call(self, name, fn, *args):
        self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def self_times(self) -> dict[str, tuple[int, int]]:
        """name -> (total self ns, span count); self = duration minus child spans."""
        if not len(self.name):
            return {}
        dur = np.frombuffer(self.stop, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        own = dur - child
        name = np.frombuffer(self.name, dtype=np.int64)
        tot = np.bincount(name, weights=own, minlength=len(self.names))
        cnt = np.bincount(name, minlength=len(self.names))
        return {n: (int(tot[i]), int(cnt[i])) for i, n in enumerate(self.names)}

    def write_csv(self, path: Path) -> None:
        """Write every span as gzip-compressed CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span,name,start_ns,end_ns,parent,trial\n")
            f.writelines(
                f"{i},{names[n]},{s},{e},{p},{t}\n"
                for i, (n, s, e, p, t) in enumerate(
                    zip(self.name, self.start, self.stop, self.parent, self.trial_of)))


@contextmanager
def traced_pipeline_stages(microarch, tracer: Tracer):
    """Wrap the pipeline-stage functions of `microarch` in spans while active.

    `decode_with_pipeline` looks its stages up as module globals, so the
    wrappers time each stage from outside without changing what runs. A
    stage that the module no longer has is skipped and reports no time.
    """
    saved = {attr: getattr(microarch, attr) for attr in PIPELINE_STAGES if hasattr(microarch, attr)}
    for attr, fn in saved.items():
        setattr(microarch, attr, tracer.wrap(PIPELINE_STAGES[attr], fn))
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(microarch, attr, fn)


# -- statistics ------------------------------------------------------------


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    k = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return float(sorted_values[k])


def nominal_rate(chunks) -> float:
    """Items per nominal second over every chunk.

    A chunk is (items, summed ns of their timed spans, yardstick ns before,
    yardstick ns after); each chunk's time is scaled by its own yardsticks.
    """
    busy = sum(ns * scale_of(y0, y1) for _, ns, y0, y1 in chunks)
    return 1e9 * sum(c[0] for c in chunks) / busy


def wilson(k: int, n: int, z: float = 1.959964) -> tuple[float, float]:
    """95% Wilson score interval for k successes in n trials."""
    if n == 0:
        return 0.0, 1.0
    if k == 0:
        return 0.0, z * z / (n + z * z)
    ph = k / n
    den = 1 + z * z / n
    mid = (ph + z * z / (2 * n)) / den
    half = z * math.sqrt(ph * (1 - ph) / n + z * z / (4 * n * n)) / den
    return max(0.0, mid - half), min(1.0, mid + half)


# -- the workload run ------------------------------------------------------


@dataclass
class OracleRef:
    """First-pass oracle result of one trial, the reference for every later check.

    `corr` is None when the oracle trial failed.
    """

    defects: object
    corr: object = None
    stats: object = None
    signature: frozenset = frozenset()


@dataclass
class RunResult:
    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    failure_kinds: dict = field(default_factory=dict)
    digest: str = ""
    metrics: dict = field(default_factory=dict)   # name -> (value, unit, samples)
    spans_path: str = ""
    cpu_per_wall: float = 0.0  # process CPU seconds per wall second while measuring

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def put(self, name, value, unit, samples):
        self.metrics[name] = (value, unit, samples)


def _new_counts() -> dict:
    return dict.fromkeys(("failed_edges", "defects", "clusters", "passes", "correction_weight",
                          "cluster_size_max", "tree_edges_max", "logical_failures"), 0)


class Bench:
    """One workload in one process: the graph stays alive for the whole run."""

    def __init__(self, workload: str, seed: int, trace: bool, mods=None,
                 block: int | None = None, pipe_block: int | None = None):
        self.name = workload
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.m = mods if mods is not None else load_ufpipe()
        self.block = block or self.w.block
        self.pipe_block = min(pipe_block or self.w.pipe_block, self.block)
        self.traced = trace
        self.tracer = Tracer() if trace else NoTrace()
        self.res = RunResult(workload, seed)
        self.refs: list[OracleRef] = []
        self.counts = _new_counts()
        self.sha = hashlib.sha256()
        self.setup_s, self.build_s = [], []  # nominal seconds of each set-up
        # per chunk: (items, summed ns of their timed spans, yardstick ns before, after)
        self.chunks = {"oracle": [], "pipeline": []}
        self.decode_ns = array("d")  # nominal ns of every timed decode
        self.yard_ns = array("q")    # every yardstick of the loop
        self.mism = dict.fromkeys(MISMATCH_KINDS + ["any"], 0)
        self.sim = dict.fromkeys(TRACE_COUNTS + ["latency_ns", "grgen_est", "stage_est", "n"], 0)

    def _build(self):
        """Build graph, decoder and sampler between two yardsticks.

        Returns them, and the set-up and graph-build times in nominal seconds.
        """
        lat, noise, uf = self.m["lattice"], self.m["noise"], self.m["uf_core"]
        yardstick()  # warm, so that the timed yardsticks run as they do in the loop
        y0 = yardstick()
        t0 = perf_counter()
        g = lat.build_decoding_graph(lat.LatticeParams(self.w.d))
        t1 = perf_counter()
        dec = uf.Decoder(g)
        smp = noise.TrialSampler(g.n_edges, self.w.p, self.seed)
        t2 = perf_counter()
        scale = scale_of(y0, yardstick())
        return (g, dec, smp), (t2 - t0) * scale, (t1 - t0) * scale

    def setup(self) -> None:
        """The set-up the run uses, timed; its graph stays alive until the run ends."""
        (self.graph, self.decoder, self.sampler), s, b = self._build()
        self.setup_s.append(s)
        self.build_s.append(b)

    def setup_in_child(self) -> None:
        """One more timed set-up, in a forked child that sends back only its times.

        No graph of the child enters this process, so the repetitions add
        nothing to `peak_rss_mb`, and no graph is freed here, so the adjacency
        cache of `uf_core` (keyed by `id(graph)`) cannot hand a later graph a
        freed graph's adjacency. The child moves the inherited heap out of
        garbage collection (`gc.freeze`), so that its collections see only
        what the set-up allocates, as in a process of its own.
        """
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(r)
                gc.freeze()
                _, s, b = self._build()
                os.write(w, struct.pack("dd", s, b))
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        with os.fdopen(r, "rb") as f:
            data = f.read()
        _, status = os.waitpid(pid, 0)
        if status or len(data) != struct.calcsize("dd"):
            raise RuntimeError(f"set-up in child process failed (wait status {status})")
        s, b = struct.unpack("dd", data)
        self.setup_s.append(s)
        self.build_s.append(b)

    # the oracle loop -------------------------------------------------------

    def oracle_trial(self, i: int):
        """Sample through assess. Returns (trial ns, decode ns or None if the
        decode never started, result or (exception, defects))."""
        lat, noise, uf = self.m["lattice"], self.m["noise"], self.m["uf_core"]
        g, tr = self.graph, self.tracer
        tr.trial = i
        t_dec0 = t_dec1 = 0
        defects = None
        t0 = perf_counter_ns()
        tr.begin("trial")
        try:
            ids = tr.call("noise.sample", self.sampler.sample, i)
            defects = tr.call("lattice.syndrome", lat.syndrome_indices_of_edges, g, ids)
            tr.begin("uf_core.decode")
            t_dec0 = perf_counter_ns()
            try:
                cs = tr.call("uf_core.grow", self.decoder.grow, defects)
                forest = tr.call("uf_core.forest", uf.spanning_forest, g, cs)
                corr = tr.call("uf_core.peel", uf.peel, forest,
                               noise.Syndrome(defects=defects, length=g.n_internal))
                stats = tr.call("uf_core.stats", uf.cluster_stats, cs, forest)
            finally:
                t_dec1 = perf_counter_ns()
                tr.end()
            outcome = tr.call("uf_core.assess", uf.assess, g,
                              noise.ErrorPattern(edge_ids=ids, n_edges=g.n_edges), corr, stats)
            out = (ids, defects, cs, corr, stats, outcome)
        except Exception as exc:  # a failed trial is counted and stays in the timing
            out = (exc, defects)
        finally:
            t1 = perf_counter_ns()
            tr.end()
        return t1 - t0, (t_dec1 - t_dec0 if t_dec0 else None), out

    def _fail(self, kind: str) -> None:
        self.res.failed += 1
        self.res.failure_kinds[kind] = self.res.failure_kinds.get(kind, 0) + 1

    def check_oracle(self, i: int, out, first: bool) -> None:
        """Untimed: count a failure, or record the first-pass reference, or
        require a repeat pass to reproduce it."""
        self.res.attempted += 1
        if isinstance(out[0], Exception):
            exc, defects = out
            cancel = "does not cancel" in str(exc)
            self._fail("not_cancel" if cancel else f"raised:{type(exc).__name__}")
            if first:
                self.refs.append(OracleRef(defects=defects))
            return
        ids, defects, cs, corr, stats, outcome = out
        if not first:
            ref = self.refs[i]
            if ref.corr is None or not (np.array_equal(ref.corr, corr.edge_ids)
                                        and ref.stats == stats):
                self._fail("repeat_differs")
            return
        self.refs.append(OracleRef(defects=defects, corr=corr.edge_ids, stats=stats,
                                   signature=cs.signature()))
        self.sha.update(repr((i, corr.edge_ids.tolist(), astuple(stats))).encode())
        c = self.counts
        c["failed_edges"] += int(ids.size)
        c["defects"] += int(defects.size)
        c["clusters"] += stats.m
        c["passes"] += stats.passes
        c["correction_weight"] += corr.weight
        c["cluster_size_max"] = max([c["cluster_size_max"], *stats.sizes])
        c["tree_edges_max"] = max([c["tree_edges_max"], *stats.tree_edges])
        c["logical_failures"] += 0 if outcome.success else 1

    # the pipeline-model loop -----------------------------------------------

    def pipeline_decode(self, i: int, syn):
        tr = self.tracer
        tr.trial = i
        t0 = perf_counter_ns()
        tr.begin("microarch.pipeline")
        try:
            out = self.m["microarch"].decode_with_pipeline(self.graph, syn)
        except Exception as exc:  # a raising model is a mismatch, and stays timed
            out = exc
        finally:
            t1 = perf_counter_ns()
            tr.end()
        return t1 - t0, out

    def check_pipeline(self, ref: OracleRef, out, mism, sim) -> None:
        """Untimed, first pass only: compare the pipeline model with the oracle."""
        lat, micro = self.m["lattice"], self.m["microarch"]
        kinds = set()
        if isinstance(out, Exception):
            kinds.add("raised")
        else:
            corr, state, stats = out
            t = state.trace  # read before cluster_signature, whose finds add table reads
            for c in TRACE_COUNTS:
                sim[c] += getattr(t, c[len("reads_"):] if c.startswith("reads_") else c)
            sim["latency_ns"] += micro.reads_to_seconds(t.reads) * 1e9
            sim["grgen_est"] += micro.grgen_read_estimate(stats)
            sim["stage_est"] += micro.stage_read_estimate(stats)
            sim["n"] += 1
            if ref.corr is not None:
                if not np.array_equal(corr.edge_ids, ref.corr):
                    kinds.add("correction")
                if stats != ref.stats:
                    kinds.add("stats")
                if state.cluster_signature() != ref.signature:
                    kinds.add("partition")
            if not np.array_equal(lat.syndrome_indices_of_edges(self.graph, corr.edge_ids),
                                  ref.defects):
                kinds.add("not_cancel")
        for k in kinds:
            mism[k] += 1
        # agreement with an oracle trial that failed cannot be shown
        mism["any"] += bool(kinds) or ref.corr is None

    def _syndrome(self, ref: OracleRef):
        return self.m["noise"].Syndrome(defects=ref.defects, length=self.graph.n_internal)

    # the run ---------------------------------------------------------------

    def warm_up(self) -> None:
        """Run trial indices WARMUP_BASE.. through both loops; checked, not timed."""
        main = self.refs, self.counts, self.sha
        self.refs, self.counts, self.sha = [], _new_counts(), hashlib.sha256()
        for k in range(self.w.warmup):
            _, _, out = self.oracle_trial(WARMUP_BASE + k)
            self.check_oracle(k, out, True)
        for k, ref in enumerate(self.refs):
            if ref.defects is not None:
                self.pipeline_decode(WARMUP_BASE + k, self._syndrome(ref))
        self.refs, self.counts, self.sha = main
        if self.traced:
            self.tracer.clear()

    def _oracle_step(self, n: int) -> int:
        i = n % self.block
        t_trial, t_dec, out = self.oracle_trial(i)
        if t_dec is not None:
            self.decode_ns.append(t_dec)
        self.check_oracle(i, out, n < self.block)
        return t_trial

    def _pipeline_step(self, n: int) -> int:
        i = n % self.pipe_block
        t_pipe, out = self.pipeline_decode(i, self.syns[i])
        if n < self.pipe_block:
            self.check_pipeline(self.refs[i], out, self.mism, self.sim)
        return t_pipe

    def _run_chunk(self, loop: str, n: int, stop: int | None = None) -> int:
        """Steps n, n + 1, ... of `loop` for CHUNK_S seconds (at least one step)
        or up to `stop`, between two yardsticks; the chunk's decodes are
        scaled to nominal time."""
        step = self._oracle_step if loop == "oracle" else self._pipeline_step
        first_decode = len(self.decode_ns)
        n0, busy = n, 0
        y0 = yardstick()
        end = perf_counter() + CHUNK_S
        while True:
            busy += step(n)
            n += 1
            if n == stop or perf_counter() >= end:
                break
        y1 = yardstick()
        self.chunks[loop].append((n - n0, busy, y0, y1))
        self.yard_ns.extend((y0, y1))
        scale = scale_of(y0, y1)
        for k in range(first_decode, len(self.decode_ns)):
            self.decode_ns[k] *= scale
        return n

    def run(self, seconds: float) -> RunResult:
        self.setup()
        self.warm_up()
        rounds = max(1, int(seconds / (2 * CHUNK_S)))
        setup_every = max(1, rounds // max(1, self.w.setup_reps - 1))

        wall0, cpu0 = perf_counter(), time.process_time()
        deadline = wall0 + seconds
        # the pipeline model decodes the oracle's syndromes, so the oracle's first pass comes first
        o = 0
        while o < self.block:
            o = self._run_chunk("oracle", o, stop=self.block)
        self.res.digest = self.sha.hexdigest()
        self.syns = [self._syndrome(ref) if ref.defects is not None else None
                     for ref in self.refs[:self.pipe_block]]
        p = r = 0
        with traced_pipeline_stages(self.m["microarch"], self.tracer) if self.traced \
                else nullcontext():
            # alternating chunks, so both loops sample the machine over the whole run;
            # the remaining set-ups are spread over the run too
            while p < self.pipe_block or perf_counter() < deadline:
                if r % setup_every == 0 and len(self.setup_s) < self.w.setup_reps:
                    self.setup_in_child()
                p = self._run_chunk("pipeline", p)
                o = self._run_chunk("oracle", o)
                r += 1
        self.res.cpu_per_wall = (time.process_time() - cpu0) / (perf_counter() - wall0)
        while len(self.setup_s) < self.w.setup_reps:
            self.setup_in_child()

        self._report()
        if self.traced:
            self._report_layers()
        return self.res

    def _report(self) -> None:
        res, c, mism, sim = self.res, self.counts, self.mism, self.sim
        prefix = "traced." if self.traced else ""
        for name, loop in (("trials_per_s", "oracle"), ("pipeline_decodes_per_s", "pipeline")):
            chunks = self.chunks[loop]
            res.put(prefix + name, nominal_rate(chunks), "1/s", len(chunks))
        dec = sorted(self.decode_ns)
        res.put("decode_us_p50", percentile(dec, 0.50) / 1e3, "us", len(dec))
        res.put("decode_us_p99", percentile(dec, 0.99) / 1e3, "us", len(dec))
        res.put("setup_s", statistics.median(self.setup_s), "s", len(self.setup_s))
        res.put("lattice.build_s", statistics.median(self.build_s), "s", len(self.build_s))
        res.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MiB", 1)

        k = self.block
        res.put("noise.failed_edges", c["failed_edges"] / k, "count", k)
        for name in ("defects", "clusters", "passes", "correction_weight"):
            res.put(f"uf_core.{name}", c[name] / k, "count", k)
        for name in ("cluster_size_max", "tree_edges_max", "logical_failures"):
            res.put(f"uf_core.{name}", c[name], "count", k)
        lo, hi = wilson(c["logical_failures"], k)
        res.put("uf_core.logical_fail_rate", c["logical_failures"] / k, "ratio", k)
        res.put("uf_core.logical_fail_lo", lo, "ratio", k)
        res.put("uf_core.logical_fail_hi", hi, "ratio", k)

        pb, ns = self.pipe_block, sim["n"]
        for name in TRACE_COUNTS:
            res.put(f"microarch.{name}", sim[name] / max(ns, 1), "count", ns)
        res.put("microarch.sim_latency_ns", sim["latency_ns"] / max(ns, 1), "ns", ns)
        for name, est, reads in (("grgen", "grgen_est", "reads_grgen"),
                                 ("dfs", "stage_est", "reads_dfs"),
                                 ("corr", "stage_est", "reads_corr")):
            res.put(f"microarch.{name}_estimate_ratio",
                    sim[est] / sim[reads] if sim[reads] else 0.0, "ratio", ns)
        for kind in MISMATCH_KINDS:
            res.put(f"microarch.mismatch_{kind}", mism[kind], "count", pb)
        res.put("pipeline_mismatch_frac", mism["any"] / pb, "ratio", pb)
        res.put("failed_frac", res.failed / res.attempted, "ratio", res.attempted)

    def _report_layers(self) -> None:
        # spans are not matched to chunks, so they are scaled by the run's median yardstick
        yard = statistics.median(self.yard_ns)
        self.res.put("host.yardstick_us", yard / 1e3, "us", len(self.yard_ns))
        own = self.tracer.self_times()
        for name in ORACLE_LAYERS + PIPELINE_LAYERS:
            tot, cnt = own.get(name, (0, 0))
            self.res.put(f"{name}_us", tot * YARD_NS / yard / cnt / 1e3 if cnt else 0.0, "us", cnt)
        path = HERE / "out" / f"spans-{self.name}.csv.gz"
        self.tracer.write_csv(path)
        self.res.spans_path = str(path.relative_to(ROOT))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, **kw) -> RunResult:
    return Bench(workload, seed, trace, **kw).run(seconds)
