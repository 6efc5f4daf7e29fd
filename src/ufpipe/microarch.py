"""Hardware model of the three-stage decoding pipeline.

The pipeline (Gr-Gen, then the DFS engine, then the Corr engine) runs the
Union-Find algorithm of `uf_core`; only the memory it reads differs. So
each stage runs the `uf_core` engine and counts the reads the hardware
would make, from the state the engine leaves behind. The spanning tree
memory (STM) is `Decoder.edge_state` plus the defect bits; the root
and size tables are `Decoder.parent` and `Decoder.size`; the fusion
edge stack (FES) is each growth pass's stack, whose size the pass log
records; the zero data register (ZDR) flags the STM rows that hold any
nonzero entry. Corrections, statistics and cluster partitions equal the
engine's by construction.

Each stage is one call into the engine's kernel plus a fixed number of
Python operations: Gr-Gen is the oracle's growth call (check, reset, seed,
grow) plus one walk of the engine's logs for its reads, in the same call
(`Decoder.grgen`); the DFS engine writes the decoder's forest record
(`uf_core.spanning_forest`, the oracle's own forest call), and the Corr
engine peels that record with the defects growth seeded, on the decoder's
own scratch (`Decoder.peel_seeded`). The DFS and Corr counts are the
member count and the forest's edge count, and the decode's `DecodeStats`
are one struct read of the record (`uf_core.cluster_stats`), so no Python
code runs per cluster, touched vertex or edge.

State is reused: the model keeps one `uf_core.Decoder` per process, the
one cached for the last graph object a decode named (`_decoder`), and lets
Gr-Gen reset it as it grows, as every growth does; a new one is built only
when a decode names another graph object. So a `PipelineState` and the
`SpanningForest` of `run_dfs`, which view the decoder's buffers, are valid
until the next pipeline decode, and the `Correction` of `run_corr`, which
views the decoder's scratch, until the decoder's next kernel call, a
stage included (copy what must outlive it). Pipeline decodes run on one
thread at a time (single-threaded; one process per worker).

Edge-stack overflows are counted after a decode, for any stack capacity,
from the tree sizes in its `DecodeStats` (`stack_overflows`).

Also evaluates the closed-form memory-cost table (`memory_footprint`, the
bits of each physical memory) and the per-stage read estimates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from ._kernel import check_integer
from .lattice import DecodingGraph, LatticeParams
from .noise import Syndrome
from .uf_core import (Correction, Decoder, DecodeStats, SpanningForest, cluster_stats,
                      spanning_forest)


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
      (`Decoder.table_reads`).
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

    `cs` is the model's shared decoder, whose cluster set the decode left:
    the state is valid until the next pipeline decode, which resets it. Read
    the signature and counts before decoding again, on the same thread."""

    cs: Decoder
    trace: AccessTrace = field(default_factory=AccessTrace)

    def cluster_signature(self) -> frozenset:
        return self.cs.signature()


# the decoder of every pipeline decode; graphs hash by identity, so an equal
# graph that is another object gets a decoder of its own
_decoder = functools.lru_cache(maxsize=1)(Decoder)


def new_pipeline_state(graph: DecodingGraph) -> PipelineState:
    """State on the model's one decoder, built anew when `graph` is not the
    object the decoder was built for; `run_grgen` resets it."""
    return PipelineState(_decoder(graph))


def run_grgen(state: PipelineState, syn: Syndrome) -> AccessTrace:
    """Gr-Gen: reset the decoder, seed the defects, grow the clusters and
    count the stage's reads, in one kernel call that first checks the
    defects (ValueError, as `Decoder.grow`, with the state unchanged)."""
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
    cluster's edge stack: `uf_core.spanning_forest` of the state's decoder,
    one kernel call. The forest is a read-only view of the decoder's
    record, valid until the decoder's next growth, the next pipeline
    decode's Gr-Gen. The engine reads each member vertex once, and the
    clusters' sizes sum to the member count."""
    cs = state.cs
    forest = spanning_forest(cs.graph, cs)
    state.trace.dfs = cs.n_members
    return forest


def run_corr(state: PipelineState, forest: SpanningForest) -> Correction:
    """Corr engine: peel every edge stack of `forest`, the record `run_dfs`
    left in the decoder, one pop per tree edge, with the defects the last
    accepted Gr-Gen seeded as the syndrome, in one kernel call. The
    correction views the decoder's scratch: it is valid until the decoder's
    next kernel call."""
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
    stack_capacity = check_integer(stack_capacity, "stack_capacity", 0, math.inf)
    return sum(n > stack_capacity for n in stats.tree_edges)


# -- memory cost model -----------------------------------------------------


def memory_footprint(d: int, stack_entries: int | None = None) -> dict[str, float]:
    """Bits of each physical memory of one decoder instance, by name: STM
    7d^3, root and size tables 3d^3 log2 d each, parity d^3, ZDR 3d^3, and
    two edge stacks of 3d^3 log2 d each (worst case: a cluster spanning the
    whole graph) or 3 S log2 d each when sized to S entries. The
    instance's budget is the sum of the values."""
    LatticeParams(d)  # raises ValueError for a distance no graph has
    if stack_entries is not None:
        stack_entries = check_integer(stack_entries, "stack_entries", 0, math.inf)
    log2d = math.log2(d)
    cube = float(d**3)
    table = 3 * cube * log2d
    stack = table if stack_entries is None else 3 * stack_entries * log2d
    return {"stm": 7 * cube, "root_table": table, "size_table": table, "parity": cube,
            "zdr": 3 * cube, "edge_stack_0": stack, "edge_stack_1": stack}


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
