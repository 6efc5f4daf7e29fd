"""Hardware model of the three-stage decoding pipeline.

The pipeline (Gr-Gen, then the DFS engine, then the Corr engine) runs the
Union-Find algorithm of `uf_core`; only the memory it reads differs. So
each stage runs the `uf_core` engine and counts the reads the hardware
would make, from the state the engine leaves behind. The spanning tree
memory (STM) is `ClusterSet.edge_state` plus the defect bits; the root
and size tables are `ClusterSet.parent` and `ClusterSet.size`; the fusion
edge stack (FES) is each growth pass's `fes`; the zero data register (ZDR)
flags the STM rows that hold any nonzero entry. Corrections, statistics
and cluster partitions equal the engine's by construction.

Also evaluates the closed-form memory-cost table and the per-stage read
estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .lattice import DecodingGraph, LatticeParams
from .noise import Syndrome
from .uf_core import (
    ClusterSet,
    Correction,
    DecodeStats,
    SpanningForest,
    cluster_stats,
    peel,
    spanning_forest,
)


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

    A spanning tree with more than `stack_capacity` edges overflows the
    edge stack that holds it; each such tree is one overflow event.
    """

    cs: ClusterSet
    stack_capacity: int | None = None
    trace: AccessTrace = field(default_factory=AccessTrace)
    overflow_events: int = 0

    def cluster_signature(self) -> frozenset:
        return self.cs.signature()


def new_pipeline_state(graph: DecodingGraph, stack_capacity: int | None = None) -> PipelineState:
    return PipelineState(ClusterSet(graph), stack_capacity)


def run_grgen(state: PipelineState, syn: Syndrome) -> AccessTrace:
    """Gr-Gen: seed the defects, grow the clusters and count the stage's reads."""
    cs, t = state.cs, state.trace
    cs.seed_defects(syn.defects)
    cs.grow()
    stm_row, eu = cs.graph.stm_row, cs.graph.eu
    nonzero_rows: set[int] = set()
    nv0 = ne0 = 0
    for nv, ne, n_fused in cs.pass_log:
        nonzero_rows.update(map(stm_row, cs.touched_v[nv0:nv]))
        nonzero_rows.update(stm_row(eu[e]) for e in cs.touched_e[ne0:ne])
        nv0, ne0 = nv, ne
        t.stm_row_reads += len(nonzero_rows)
        t.table_reads += nv
        t.fes_pops += n_fused
    t.parity_scans = cs.passes + 1
    t.table_reads += cs.table_reads
    t.grgen = t.parity_scans + t.stm_row_reads + t.table_reads + t.fes_pops
    return t


def run_dfs(state: PipelineState) -> SpanningForest:
    """DFS engine: one spanning tree per cluster, whose edge list is that
    cluster's edge stack."""
    forest = spanning_forest(state.cs.graph, state.cs)
    cap = state.stack_capacity
    for tree in forest.trees:
        state.trace.dfs += tree.n_vertices
        if cap is not None and len(tree.edges) > cap:
            state.overflow_events += 1
    return forest


def run_corr(state: PipelineState, forest: SpanningForest, syn: Syndrome) -> Correction:
    """Corr engine: peel every edge stack, one pop per tree edge."""
    state.trace.corr += sum(len(tree.edges) for tree in forest.trees)
    return peel(forest, syn)


def decode_with_pipeline(
    graph: DecodingGraph, syn: Syndrome, stack_capacity: int | None = None
) -> tuple[Correction, PipelineState, DecodeStats]:
    """Full hardware decode: Gr-Gen, DFS engine, Corr engine in sequence."""
    state = new_pipeline_state(graph, stack_capacity)
    run_grgen(state, syn)
    forest = run_dfs(state)
    corr = run_corr(state, forest, syn)
    return corr, state, cluster_stats(state.cs, forest)


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
    if stack_entries is not None and stack_entries < 0:
        raise ValueError(f"stack_entries must be >= 0, got {stack_entries}")
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
    """Growth-stage read estimate: sum over clusters of 1^2 + ... + g^2."""
    return sum(g * (g + 1) * (2 * g + 1) // 6 for g in stats.growth_steps)


def stage_read_estimate(stats: DecodeStats) -> int:
    """DFS / Corr engine read estimate: total cluster vertex count."""
    return sum(stats.sizes)


CLOCK_HZ = 4e9
READ_LATENCY_CYCLES = 4


def reads_to_seconds(reads: float) -> float:
    """Serial read latency: one read costs READ_LATENCY_CYCLES / CLOCK_HZ."""
    return reads * READ_LATENCY_CYCLES / CLOCK_HZ
