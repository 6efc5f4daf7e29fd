"""Union-Find decoder: growth, spanning forest, peeling, assessment.

The only decoding engine in the package. Growth, the spanning forest and
peeling run in one C kernel, `_ufkernel.c` (built and loaded by `_kernel`),
over flat buffers that a `Decoder` owns; `assess` is one call into the
same kernel. This module validates input, owns the buffers and turns the
kernel's output into Python values. One lifetime rule: what a decoder
hands out views its buffers, with no copy, and is valid until its next
accepted growth. That holds for its tables and for a `SpanningForest`, the
read-only view of its record that only `spanning_forest` makes, which
`peel` and `cluster_stats` refuse after that growth. Only `peel_seeded`'s
correction lives shorter: it views the decoder's scratch `scan`, which the
decoder's next kernel call rewrites; `peel` returns a correction of its
own. All iteration orders are fixed (ascending vertex ids, W/E/N/S/D/U
edge order, LIFO fusion stack), so a decode is a deterministic function
of the syndrome; the hardware pipeline model in `microarch` counts memory
reads on top of this engine's state.

Growth policy: every odd, non-boundary cluster grows all of its incident
half-edges by one increment per pass; edges reaching the fully-grown
state are queued and merged after the pass. A cluster freezes as soon as
a grown edge reaches a virtual boundary vertex.
"""

from __future__ import annotations

import ctypes
import functools
import struct
import sys
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from ._kernel import (BAD_EDGE, FOREST_BAD_TREE, FOREST_COLUMNS, FOREST_ODD_CLUSTER, N_COUNTS,
                      N_SEEDED, N_TOUCHED_E, N_TOUCHED_V, NO_MEMORY, PASSES, PEEL_BAD_DEFECT,
                      RESIDUAL_SYNDROME, TABLE_READS, K, addr, check_integer, int64_ids,
                      integer_ids)
from .lattice import DecodingGraph, reject_off_graph
from .noise import ErrorPattern, Syndrome

# The buffers of a Decoder, in the order of their fields in `uf_ctx`:
# (name, dtype, length as a function of n_internal and n_edges, the Decoder
# attribute that views it, or None for the kernel's own buffers). Wider types
# come first, so that one block holds them all, each aligned.
_INT64, _UINT64, _INT32, _UINT8 = map(np.dtype, (np.int64, np.uint64, np.int32, np.uint8))
_BUFFERS = (
    ("counts", _INT64, lambda n, n_e: N_COUNTS, "_counts"),
    # one id more than there are internal vertices: n + 1 ids cannot all be distinct
    # internal vertices, so the staged ones hold the first bad id of a longer list
    ("defects", _INT64, lambda n, n_e: n + 1, "_defects"),
    ("scan", _INT64, lambda n, n_e: n, "_scan"),
    # the vertex and the edge bitmap, each then its summary: a bit per bitmap word
    ("bits", _UINT64, lambda n, n_e: (n + 63) // 64 + (n + 4095) // 4096, None),
    ("chosen", _UINT64, lambda n, n_e: (n_e + 63) // 64 + (n_e + 4095) // 4096, None),
    ("parent", _INT32, lambda n, n_e: n, "parent"),
    ("size", _INT32, lambda n, n_e: n, "size"),
    ("growth_steps", _INT32, lambda n, n_e: n, "growth_steps"),
    ("low", _INT32, lambda n, n_e: n, "low"),
    ("touched_v", _INT32, lambda n, n_e: n, "_tv"),
    # one entry more than there are edges: growth's scan writes one beyond the last kept one
    ("touched_e", _INT32, lambda n, n_e: n_e + 1, "_te"),
    ("pass_log", _INT32, lambda n, n_e: 6 * n_e, "_log"),
    ("fused_boundary", _INT32, lambda n, n_e: n, None),
    ("fes", _INT32, lambda n, n_e: n_e + 1, None),
    ("entry", _INT32, lambda n, n_e: n, None),
    ("stack", _INT32, lambda n, n_e: 2 * n, None),
    ("forest", _INT32, lambda n, n_e: 9 * n + 2, "_forest"),
    ("parity", _UINT8, lambda n, n_e: n, "parity"),
    ("boundary_sides", _UINT8, lambda n, n_e: n, "boundary_sides"),
    ("member", _UINT8, lambda n, n_e: n, None),
    ("visited", _UINT8, lambda n, n_e: n, None),
    ("grown", _UINT8, lambda n, n_e: n, "grown"),
    ("held", _UINT8, lambda n, n_e: n, None),
    ("edge_state", _UINT8, lambda n, n_e: n_e, "edge_state"),
)


class _Ctx(ctypes.Structure):
    """`uf_ctx` of `_ufkernel.c`, field for field: the address of the graph's
    `GraphView`, then every buffer's address."""

    _fields_ = [("g", ctypes.c_void_p)] + [(name, ctypes.c_void_p) for name, *_ in _BUFFERS]


class InvariantViolation(RuntimeError):
    """A decoder-internal invariant was broken (decoder bug)."""


class Decoder:
    """Reusable decoder of one graph (single-threaded; one per worker): the
    union-find partition with per-root size, parity, boundary flag and growth
    count, plus the half-edge growth counters. `grow` returns the decoder
    itself, whose state the forest, the statistics and the tests read.

    All state lives in one numpy block, cut into the buffers `_BUFFERS`
    lists, which the kernel reads and writes. The decoder's kernel context,
    `_Ctx`, holds the address of the graph's `GraphView` and of each buffer,
    nothing else; the buffers Python reads are numpy views, made once in
    `__init__` as plain attributes, read-only but for the staged ids and
    the scratch `scan`: the kernel trusts its tables, so a value written
    into one from Python could send it out of its buffers. Tests of
    hand-built tables set a view's `flags.writeable` themselves. The views:

    - per internal vertex: the root and size tables `parent` and `size`,
      `growth_steps` (int32), `parity` and `boundary_sides` (uint8), and a
      member flag. The parent table is the only record of which vertices
      form a cluster: `members` groups `touched_v` by root.
    - per edge: `edge_state` (uint8: 0 untouched, 1 half grown, 2 fully
      grown).
    - what growth records for the forest, so that the forest rescans
      nothing: `low` (int32), at each root its cluster's smallest vertex,
      which orders the trees; `grown` (uint8), per internal vertex a bit per
      CSR slot (`DecodingGraph.edge_slot`) whose edge to an internal vertex
      is fully grown, which the DFS follows; and the kernel's list of fused
      boundary edges, in fusion order, from which a boundary cluster takes
      its entry edge.
    - what a read-count model needs, kept at O(1) cost per find and per
      pass: `touched_v` (member vertices in the order they joined),
      `touched_e` (edges with nonzero growth state, in the order they were
      first touched), `table_reads` (parent-table reads by `find` plus two
      size-table reads per union of distinct roots, all made during growth:
      the forest makes no finds) and `pass_log`, one `(len(touched_v),
      len(touched_e), len(fes))` per growth pass, the first two taken at the
      start of the pass and the last the size of the pass's fusion edge
      stack. These read int32 buffers as lists of plain ints.
      `grgen` derives the Gr-Gen read counts from them in the kernel.
    - the forest record and the kernel's scratch, peeling's marks and edge
      bitmap among it. Every buffer is sized for the worst case from
      `n_internal` and `n_edges`: each holds at most one entry per vertex
      or per edge (an internal vertex has at most one boundary edge, and a
      forest one edge per vertex), and there are at most 2 * n_edges growth
      passes, since each pass advances an edge state. `touched_e` and the
      fusion edge stack hold one entry more, which growth's branch-free
      scan writes and does not keep. The staged ids hold n_internal + 1,
      which cannot all be distinct internal vertices: the kernel finds the
      first bad id of a longer list among them.

    State is reusable across decodes: `grow` starts by restoring the
    initial state over the entries the last growth touched, as `uf_init`
    does over every entry, and empties the forest record; the growths it
    accepts are counted, to date a forest. A refused growth changes no
    state but the staged ids, where `peel` stages its defects too:
    `peel_seeded` peels the ids the last accepted growth seeded, which
    `touched_v` starts with.
    """

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        n, n_e = graph.n_internal, graph.n_edges
        firsts, off = [], 0  # the first byte of every buffer in the block
        for _, dtype, length, _ in _BUFFERS:
            firsts.append(off)
            off += dtype.itemsize * length(n, n_e)
        self._block = block = np.empty(off, np.uint8)  # uf_init sets what is read before written
        for (_, dtype, length, attr), first in zip(_BUFFERS, firsts):
            if attr:
                view = np.frombuffer(block, dtype, length(n, n_e), first)
                # the kernel trusts what it reads: Python writes only the staged ids
                # and may write the scratch, which the kernel writes before it reads
                view.flags.writeable = attr in ("_defects", "_scan")
                setattr(self, attr, view)
        base = addr(block)
        self._ctx = _Ctx(graph.kernel_view, *[base + first for first in firsts])
        self._c = ctypes.addressof(self._ctx)
        self._growths = 0  # accepted growths, by which a forest is dated
        K.uf_init(self._c)

    @property
    def passes(self) -> int:
        return self._counts.item(PASSES)

    @property
    def table_reads(self) -> int:
        return self._counts.item(TABLE_READS)

    @property
    def n_members(self) -> int:
        return self._counts.item(N_TOUCHED_V)

    @property
    def touched_v(self) -> list[int]:
        return self._tv[:self._counts[N_TOUCHED_V]].tolist()

    @property
    def touched_e(self) -> list[int]:
        return self._te[:self._counts[N_TOUCHED_E]].tolist()

    @property
    def pass_log(self) -> list[tuple[int, int, int]]:
        return list(map(tuple, self._log[:3 * self._counts[PASSES]].reshape(-1, 3).tolist()))

    @property
    def members(self) -> dict[int, list[int]]:
        """Cluster root -> member vertices in ascending order, for every
        cluster, the clusters in the order of their smallest members. A
        read-only walk of the parent table: no find, no table read."""
        parent, vs = self.parent, np.sort(self._tv[:self._counts[N_TOUCHED_V]])
        roots = parent[vs]
        while ((up := parent[roots]) != roots).any():
            roots = up
        out: dict[int, list[int]] = {}
        for r, v in zip(roots.tolist(), vs.tolist()):
            out.setdefault(r, []).append(v)
        return out

    # -- core union-find ------------------------------------------------
    # Growth makes its finds and unions in the kernel; these wrappers stay as the tests'
    # only handle on the find compression cap, its reads and the union tie rule.

    def find(self, v: int) -> int:
        """Root of v's cluster; repoints at most the last 5 visited vertices.
        ValueError unless v is an integer in [0, n_internal), as for `union`."""
        return K.uf_find(self._c, check_integer(v, "vertex", 0, self.graph.n_internal))

    def union(self, u: int, v: int) -> int:
        """Make u and v members, then merge their clusters; returns the
        surviving root.

        Weighted by vertex count; on a size tie the smaller root id wins.
        Parity XORs, boundary flags OR, growth counts take the max.
        """
        n = self.graph.n_internal
        return K.uf_union(self._c, check_integer(u, "vertex", 0, n),
                          check_integer(v, "vertex", 0, n))

    def signature(self) -> frozenset:
        """Canonical cluster-set value for engine-equivalence checks.

        Captures the partition plus every per-cluster attribute (size,
        parity, boundary sides, growth count). Parent forests are an
        implementation detail and deliberately excluded. A cluster's
        members are its ascending vertex ids as int32 bytes, a compact
        canonical form: checks keep one signature per decode.
        """
        return frozenset(
            (np.array(ms, dtype=np.int32).tobytes(), int(self.size[r]),
             int(self.parity[r]), int(self.boundary_sides[r]), int(self.growth_steps[r]))
            for r, ms in self.members.items())

    # -- growth ----------------------------------------------------------

    def grow(self, defects) -> Decoder:
        """One decode's growth in one kernel call: reset over the entries the
        last growth touched, make every defect a one-vertex odd cluster, then
        run growth passes until every cluster is even or frozen. Returns the
        decoder.

        `defects` must be strictly ascending integer vertex ids in
        [0, n_internal). Anything else raises ValueError before any state
        changes: a negative id would make growth loop forever, and a
        repeated id would silently decode as a single defect.
        """
        ids = self._stage(defects)
        if K.uf_grow(self._c, ids.size):
            self._refuse(ids)
        self._growths += 1
        return self

    def decode(self, syn: Syndrome) -> tuple[Correction, DecodeStats]:
        forest = spanning_forest(self.graph, self.grow(syn.defects))
        return peel(forest, syn), cluster_stats(self, forest)

    def _stage(self, defects) -> np.ndarray:
        """Copy integer defect ids, the first n_internal + 1 of them, to the
        buffer the kernel seeds and peels from, where uint64 ids from 2**63 on
        wrap negative; returns them all as an array. The caller's ids are
        only read."""
        ids = integer_ids(defects, "defect")
        self._defects[:ids.size] = ids[:self._defects.size]  # both slices stop at n_internal + 1
        return ids

    def _refuse(self, ids: np.ndarray) -> NoReturn:
        """Raise the ValueError for defect ids `ids`, never empty, that the
        kernel refused to seed, naming the first rule they break."""
        if (ids[1:] <= ids[:-1]).any():
            raise ValueError("defect ids must be strictly ascending")
        if ids[0] < 0 or ids[-1] >= self.graph.n_internal:
            raise ValueError(
                f"defect ids must lie in [0, {self.graph.n_internal}), got {ids[0]}..{ids[-1]}")
        raise InvariantViolation(f"the kernel refused to seed the defects {ids.tolist()}")

    # -- one kernel call per pipeline stage ------------------------------

    def grgen(self, defects) -> list[int]:
        """`grow` and the Gr-Gen read counts in one kernel call. Returns the
        counts [PASSES:N_SEEDED]: passes, table_reads, and the stm_row_reads,
        member scans and fes_pops that `microarch.AccessTrace` defines,
        summed over the passes. Refuses as `grow`."""
        ids = self._stage(defects)
        if K.uf_run_grgen(self._c, ids.size):
            self._refuse(ids)
        self._growths += 1
        return self._counts[PASSES:N_SEEDED].tolist()

    def peel_seeded(self) -> Correction:
        """`peel` of the decoder's forest record with the defects the last
        accepted growth seeded as the syndrome, in one kernel call. Growth
        empties the record, so before that growth's `spanning_forest` every
        seeded defect lies in no tree. The correction's int64 ids view the
        decoder's scratch `scan`, which its next kernel call rewrites."""
        n = K.uf_run_corr(self._c)
        if n < 0:
            _check_peeled(n, self._defects[:self._counts[N_SEEDED]], self._scan.item(0))
        return Correction(self._scan[:n])


@dataclass
class ClusterTree:
    """Spanning tree of one cluster: edges in DFS visit order.

    Each entry is (edge_id, leafward_vertex, rootward_vertex). For a
    boundary-touching cluster the traversal starts at the virtual vertex
    and the tree has exactly size(cluster) edges; otherwise size - 1.
    """

    root: int
    start_vertex: int
    edges: list[tuple[int, int, int]]
    n_vertices: int
    boundary: bool
    growth_steps: int


class SpanningForest:
    """Spanning trees of one decode: a read-only view, with no copy, of its
    decoder's int32 forest record, which only `spanning_forest` makes:

    `[m, k, root × m, start vertex × m, n_vertices × m, boundary × m,
    tree edge count × m, growth steps × m, (edge, leafward, rootward) × k]`

    `m` and `k` are plain ints, read from the header with `ndarray.item`;
    `columns` is the (6, m) per-tree part and `edges` the (k, 3) rest, both
    views of the record; `trees` gives the same as `ClusterTree` objects
    holding plain ints. The forest keeps its decoder and is valid until the
    decoder's next accepted growth, which empties the record.
    """

    def __init__(self, dec: Decoder, n: int):
        """The forest of the first `n` entries of `dec`'s record, which
        `uf_forest` has just written."""
        self.record = record = dec._forest[:n]
        self.m, self.k = record.item(0), record.item(1)
        self._dec, self._growth = dec, dec._growths

    def _current(self) -> Decoder:
        """The forest's decoder; ValueError if it has grown since the forest."""
        if self._growth != self._dec._growths:
            raise ValueError("the forest is of an earlier growth of its decoder: a forest is "
                             "valid until its decoder's next growth")
        return self._dec

    columns = functools.cached_property(
        lambda self: self.record[2:2 + FOREST_COLUMNS * self.m].reshape(FOREST_COLUMNS, self.m))
    edges = functools.cached_property(
        lambda self: self.record[2 + FOREST_COLUMNS * self.m:].reshape(self.k, 3))

    @property
    def trees(self) -> list[ClusterTree]:
        edges = list(map(tuple, self.edges.tolist()))
        out, i = [], 0
        for root, start, nv, bnd, ne, gs in zip(*self.columns.tolist()):
            out.append(ClusterTree(root=root, start_vertex=start, edges=edges[i:i + ne],
                                   n_vertices=nv, boundary=bool(bnd), growth_steps=gs))
            i += ne
        return out


@dataclass
class Correction:
    edge_ids: np.ndarray

    @property
    def weight(self) -> int:
        return int(self.edge_ids.size)


@dataclass
class DecodeStats:
    """Per-decode cluster statistics, ordered by smallest member vertex."""

    m: int
    sizes: tuple
    growth_steps: tuple
    boundary: tuple
    tree_edges: tuple
    passes: int


@dataclass
class DecodeOutcome:
    success: bool
    stats: DecodeStats | None = None


def spanning_forest(graph: DecodingGraph, dec: Decoder) -> SpanningForest:
    """DFS spanning tree per cluster over fully grown edges.

    Trees are ordered by the smallest vertex id of their cluster, which
    its root keeps, and that vertex is the traversal root. A
    boundary-touching cluster is instead entered from its virtual boundary
    vertex (LEFT preferred when both sides are touched) through the fully
    grown edge to that vertex from its smallest member that has one; its
    fully grown internal edges connect the cluster, so the tree needs no
    other entry. Half-grown edges are ignored. Clusters are disjoint and a
    fully grown internal edge never leaves its cluster, so one visited flag
    per vertex serves the whole forest. No `find` is made, so the parent
    table and `table_reads` stay as growth left them.

    The forest is a read-only view of the decoder's record, with no copy,
    valid until the decoder's next accepted growth. A forest that raises
    leaves the record empty.
    """
    if graph is not dec.graph:
        raise ValueError("the decoder was grown on another graph")
    n = K.uf_forest(dec._c)
    detail = dec._scan
    if n == FOREST_ODD_CLUSTER:
        raise InvariantViolation(f"cluster at root {detail[0]} is odd and not on a boundary")
    if n == FOREST_BAD_TREE:
        raise InvariantViolation(
            f"spanning tree of cluster {detail[0]} has {detail[1]} edges, expected {detail[2]}")
    return SpanningForest(dec, n)


def peel(forest: SpanningForest, syn: Syndrome) -> Correction:
    """Reverse-order peeling: pop tree edges leaf-first; an edge whose
    leafward endpoint holds a defect joins the correction and flips the
    rootward endpoint's held bit. Boundary entry points absorb flips.

    One kernel call on the forest's decoder, which peels its record with
    the decoder's own scratch, the defects staged in its `defects` buffer
    as `grow` stages them (uint64 ids from 2**63 on wrap negative: rejected
    too). Every defect must be a distinct vertex of a tree of the forest,
    which excludes the virtual entry points; anything else raises
    ValueError, as does a forest of an earlier growth of its decoder. The
    correction's ids are int64, as the kernel writes them and as `assess`
    reads them without a copy, in an array of their own.
    """
    dec = forest._current()
    ids = dec._stage(syn.defects)
    # the staged ids, min(ids.size, n_internal + 1): a conditional costs less than a call
    n = K.uf_peel(dec._c, ids.size if ids.size < dec._defects.size else dec._defects.size)
    if n < 0:
        _check_peeled(n, ids, dec._scan.item(0))
    return Correction(edge_ids=dec._scan[:n].copy())


def _check_peeled(n: int, ids: np.ndarray, detail: int) -> NoReturn:
    """Raise for the error `n` < 0 that the peeling kernel returned with
    `detail` in the decoder's scan; `ids` are the defects it peeled."""
    if n == PEEL_BAD_DEFECT:
        v = ids[detail].item()
        why = ("repeats an earlier one" if v in ids[:detail].tolist()
               else "lies in no tree of the forest")
        raise ValueError(f"defect {detail} of the syndrome, {v}, {why}")
    raise InvariantViolation(f"leftover defect at non-boundary root {detail}")


# an int32 boundary flag, 0 or 1, read as the bool of its low-order byte
_FLAG = "?3x" if sys.byteorder == "little" else "3x?"


@functools.lru_cache(maxsize=64)  # a format's size grows with m, and m reaches thousands
def _stats_struct(m: int) -> struct.Struct:
    """The native int32 columns sizes, boundary flags, tree edge counts and
    growth counts of a forest record of m trees, the flags as bools."""
    return struct.Struct(f"={m}i{_FLAG * m}{2 * m}i")


def cluster_stats(dec: Decoder, forest: SpanningForest) -> DecodeStats:
    """The statistics of the clusters of `forest`, grown in `dec`: one
    struct unpack of the forest record's four per-tree columns, straight
    out of the decoder's `forest` buffer, gives their ints and bools.
    ValueError for a forest of another decoder or of an earlier growth of
    `dec`, whose statistics would mix two decodes."""
    if forest._current() is not dec:
        raise ValueError("the forest is of another decoder")
    m = forest.m
    # after the header and the root and start columns
    c = _stats_struct(m).unpack_from(dec._forest, 4 * (2 + 2 * m))
    return DecodeStats(m, c[:m], c[3 * m:], c[m:2 * m], c[2 * m:3 * m], dec.passes)


def assess(
    graph: DecodingGraph,
    err: ErrorPattern,
    corr: Correction,
    stats: DecodeStats | None = None,
) -> DecodeOutcome:
    """Check the residual error err XOR corr for logical failure.

    The residual is the symmetric difference of the two edge-id multisets:
    ids may come in any order, and an id given twice, in one set or across
    both, cancels. It fails when an odd number of its edges end on LEFT,
    i.e. when it runs between the two boundaries. One kernel call: the
    residual's syndrome is the XOR of the two syndromes and its LEFT count
    the sum of theirs. Non-integer ids and ids outside [0, n_edges) raise
    ValueError; a residual with a nonzero syndrome, a correction that does
    not cancel the error's syndrome, raises InvariantViolation.
    """
    e, e_at = int64_ids(err.edge_ids, "edge")
    c, c_at = int64_ids(corr.edge_ids, "edge")
    bit = K.uf_assess(graph.kernel_view, e_at, e.size, c_at, c.size)
    if bit == RESIDUAL_SYNDROME:
        raise InvariantViolation("correction does not cancel the syndrome")
    if bit == BAD_EDGE:
        reject_off_graph(graph, err.edge_ids, corr.edge_ids)
    if bit == NO_MEMORY:
        raise MemoryError("no memory for the assessment kernel's scratch bits")
    return DecodeOutcome(success=(bit == 0), stats=stats)
