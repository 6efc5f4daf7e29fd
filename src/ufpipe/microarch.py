"""Hardware model of the three-stage decoding pipeline.

The pipeline (Gr-Gen, then the DFS engine, then the Corr engine) runs the
Union-Find algorithm of `uf_core`; only the memory it reads differs. So
each stage runs the `uf_core` engine and counts the reads the hardware
would make, from the state the engine leaves behind. The spanning tree
memory (STM) is `ClusterSet.edge_state` plus the defect bits; the root
and size tables are `ClusterSet.parent` and `ClusterSet.size`; the fusion
edge stack (FES) is each growth pass's stack, whose size the pass log
records; the zero data register (ZDR) flags the STM rows that hold any
nonzero entry. Corrections, statistics and cluster partitions equal the
engine's by construction.

Each stage is one call into the engine's kernel plus O(1) Python:
Gr-Gen is the oracle's growth call (check, reset, seed, grow) plus one
walk of the engine's logs for its reads (`ClusterSet.grgen`); the DFS
engine writes the forest record (`ClusterSet.forest_view`), and the Corr
engine peels it (`ClusterSet.peel_seeded`). The DFS and Corr counts are
the member count and the forest's edge count, so no stage does Python
work per touched vertex or edge.

State is reused: the model keeps one `ClusterSet` per process, holds it
with a reference to its graph, and lets Gr-Gen reset it as it grows, as
`uf_core.Decoder` does; a new one is built only when a decode names
another graph object. So a `PipelineState`, the
`SpanningForest` of `run_dfs` and the `Correction` of `run_corr`, which
view the cluster set's buffers, are valid until the next pipeline decode
(copy what must outlive it), and pipeline decodes run on one thread at a
time (single-threaded; one process per worker).

Edge-stack overflows are counted after a decode, for any stack capacity,
from the tree sizes in its `DecodeStats` (`stack_overflows`).

Also evaluates the closed-form memory-cost table and the per-stage read
estimates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .lattice import DecodingGraph, LatticeParams
from .noise import Syndrome
from .uf_core import ClusterSet, Correction, DecodeStats, SpanningForest, cluster_stats


@dataclass
class AccessTrace:
    """Memory reads of one decode, per pipeline stage.

    Writes are read-modify-write with the writeback off the critical path,
    so only reads are billed. Every count is defined by the engine state:

    - `parity_scans`: passes + 1. Each growth pass starts with a scan of the
      parity registers for odd, unfrozen roots; the last scan finds none.
    - `stm_row_reads`: summed over passes, the STM rows the ZDR flags as
      nonzero at the start of the pass. A row is nonzero once it holds a
      member vertex, or once it is the filing row (the row of `edges_u`) of
      an edge with nonzero growth state.
    - `table_reads`: one root lookup per member vertex scanned in a pass,
      plus the engine's find and union reads during growth
      (`ClusterSet.table_reads`).
    - `fes_pops`: fused edges drained from the FES, summed over passes.
    - `grgen`: the sum of the four counts above.
    - `dfs`: one STM read per vertex the DFS engine visits, which is the
      sum of the cluster sizes.
    - `corr`: one edge-stack pop per tree edge, which is the sum of the
      tree edges.
    """

    grgen: int = 0
    dfs: int = 0
    corr: int = 0
    parity_scans: int = 0
    stm_row_reads: int = 0
    table_reads: int = 0
    fes_pops: int = 0

    @property
    def reads(self) -> int:
        return self.grgen + self.dfs + self.corr


@dataclass
class PipelineState:
    """Engine state of one decode plus its access trace.

    `cs` is the model's shared cluster set: the state is valid until the
    next pipeline decode, which resets it. Read the signature and counts
    before decoding again, on the same thread.

    Edge-stack overflows are not state: `stack_overflows` counts them.
    """

    cs: ClusterSet
    trace: AccessTrace = field(default_factory=AccessTrace)

    def cluster_signature(self) -> frozenset:
        return self.cs.signature()


_cs: ClusterSet | None = None  # the cluster set of every pipeline decode


def new_pipeline_state(graph: DecodingGraph) -> PipelineState:
    """State on the model's one cluster set, built anew when `graph` is not
    the object the set was built for; `run_grgen` resets it."""
    global _cs
    if _cs is None or _cs.graph is not graph:
        _cs = ClusterSet(graph)
    return PipelineState(_cs)


def _entry_count(n, name: str) -> int:
    """`n` as an int; ValueError unless it is an integer >= 0."""
    if not hasattr(type(n), "__index__") or (n := operator.index(n)) < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {n!r}")
    return n


def run_grgen(state: PipelineState, syn: Syndrome) -> AccessTrace:
    """Gr-Gen: reset the cluster set, seed the defects, grow the clusters and
    count the stage's reads, in one kernel call that first checks the
    defects (ValueError, as `ClusterSet.grow`, with the state unchanged)."""
    passes, table_reads, stm_row_reads, member_scans, fes_pops = state.cs.grgen(syn.defects)
    t = state.trace
    t.parity_scans = passes + 1
    t.stm_row_reads = stm_row_reads
    t.table_reads = member_scans + table_reads
    t.fes_pops = fes_pops
    t.grgen = t.parity_scans + stm_row_reads + t.table_reads + fes_pops
    return t


def run_dfs(state: PipelineState) -> SpanningForest:
    """DFS engine: one spanning tree per cluster, whose edge list is that
    cluster's edge stack, in one kernel call. The forest views the cluster
    set's record: it is valid until the next pipeline decode. The engine
    reads each member vertex once, and the clusters' sizes sum to the
    member count."""
    cs = state.cs
    forest = cs.forest_view()
    state.trace.dfs = cs.n_members
    return forest


def run_corr(state: PipelineState, forest: SpanningForest) -> Correction:
    """Corr engine: peel every edge stack of `forest`, the record `run_dfs`
    left in the cluster set, one pop per tree edge, with the defects Gr-Gen
    seeded as the syndrome, in one kernel call. The correction views a
    buffer of the cluster set: it is valid until the next pipeline decode."""
    state.trace.corr = forest.k
    return state.cs.peel_seeded()


def decode_with_pipeline(graph: DecodingGraph,
                         syn: Syndrome) -> tuple[Correction, PipelineState, DecodeStats]:
    """Full hardware decode: Gr-Gen, DFS engine, Corr engine in sequence.
    The correction and the state are valid until the next pipeline decode."""
    state = new_pipeline_state(graph)
    run_grgen(state, syn)
    forest = run_dfs(state)
    corr = run_corr(state, forest)
    return corr, state, cluster_stats(state.cs, forest)


def stack_overflows(stats: DecodeStats, stack_capacity: int) -> int:
    """Overflow events of the decode of `stats` with edge stacks of
    `stack_capacity` entries: the trees with more edges, each of which
    overflows its stack. ValueError unless `stack_capacity` is an integer >= 0."""
    stack_capacity = _entry_count(stack_capacity, "stack_capacity")
    return sum(n > stack_capacity for n in stats.tree_edges)


# -- memory cost model -----------------------------------------------------


@dataclass
class MemoryFootprint:
    """Bit budget of one decoder instance, by component.

    Worst-case edge stacks cover a cluster spanning the whole graph;
    sized stacks hold `stack_entries` edges each.
    """

    d: int
    stm_bits: float
    table_bits: float        # each of root table and size table
    parity_bits: float
    zdr_bits: float
    edge_stack_bits: float   # each of the two stacks
    stack_entries: int | None

    @property
    def total_bits(self) -> float:
        return sum(bits for _, bits in self.rows())

    @property
    def total_bytes(self) -> float:
        return self.total_bits / 8.0

    def rows(self) -> list[tuple[str, float]]:
        """(memory, bits) for every physical memory of the instance."""
        return [
            ("stm", self.stm_bits),
            ("root_table", self.table_bits),
            ("size_table", self.table_bits),
            ("parity", self.parity_bits),
            ("zdr", self.zdr_bits),
            ("edge_stack_0", self.edge_stack_bits),
            ("edge_stack_1", self.edge_stack_bits),
        ]


def memory_footprint(d: int, stack_entries: int | None = None) -> MemoryFootprint:
    """Component memory budget: STM 7d^3, tables 3d^3 log2 d each, parity
    d^3, ZDR 3d^3, edge stacks 3d^3 log2 d each (worst case) or
    3 S log2 d when sized to S entries."""
    LatticeParams(d)  # raises ValueError for a distance no graph has
    if stack_entries is not None:
        stack_entries = _entry_count(stack_entries, "stack_entries")
    log2d = math.log2(d)
    cube = float(d**3)
    stack = 3 * cube * log2d if stack_entries is None else 3 * stack_entries * log2d
    return MemoryFootprint(
        d=d,
        stm_bits=7 * cube,
        table_bits=3 * cube * log2d,
        parity_bits=cube,
        zdr_bits=3 * cube,
        edge_stack_bits=stack,
        stack_entries=stack_entries,
    )


def grgen_read_estimate(stats: DecodeStats) -> int:
    """Growth-stage read estimate: sum over clusters of 1^2 + ... + g^2.

    This is not the traced Gr-Gen count `AccessTrace.grgen`: on perfbench's
    workloads it is 0.04-0.10 times the trace. It stays only because perfbench
    reports that ratio (`microarch.grgen_estimate_ratio`)."""
    return sum(g * (g + 1) * (2 * g + 1) // 6 for g in stats.growth_steps)


def stage_read_estimate(stats: DecodeStats) -> int:
    """DFS / Corr engine read estimate: total cluster vertex count."""
    return sum(stats.sizes)


CLOCK_HZ = 4e9
READ_LATENCY_CYCLES = 4


def reads_to_seconds(reads: float) -> float:
    """Serial read latency: one read costs READ_LATENCY_CYCLES / CLOCK_HZ."""
    return reads * READ_LATENCY_CYCLES / CLOCK_HZ
