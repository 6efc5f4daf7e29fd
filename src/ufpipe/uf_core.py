"""Union-Find decoder: growth, spanning forest, peeling, assessment.

The only decoding engine in the package. Growth, the spanning forest and
peeling run in one C kernel, `_ufkernel.c` (built and loaded by `_kernel`),
over flat buffers that a `ClusterSet` owns; `assess` is one call into the
same kernel. This module validates input, owns the buffers and turns the
kernel's output into Python values. All iteration orders are fixed
(ascending vertex ids, W/E/N/S/D/U edge order, LIFO fusion stack), so a
decode is a deterministic function of the syndrome; the hardware pipeline
model in `microarch` counts memory reads on top of this engine's state.

Growth policy: every odd, non-boundary cluster grows all of its incident
half-edges by one increment per pass; edges reaching the fully-grown
state are queued and merged after the pass. A cluster freezes as soon as
a grown edge reaches a virtual boundary vertex.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from ._kernel import (BAD_EDGE, FOREST_BAD_TREE, FOREST_COLUMNS, FOREST_ODD_CLUSTER, N_COUNTS,
                      N_SEEDED, N_TOUCHED_E, N_TOUCHED_V, NO_MEMORY, PASSES, PEEL_BAD_DEFECT,
                      RESIDUAL_SYNDROME, TABLE_READS, K, addr, int64_ids, integer_ids)
from .lattice import DecodingGraph, reject_off_graph
from .noise import ErrorPattern, Syndrome

# The buffers of a ClusterSet, in the order of their fields in `uf_ctx`:
# (name, dtype, length as a function of n_internal and n_edges, the ClusterSet
# attribute that views it, or None for the kernel's own buffers). Wider types
# come first, so that one block holds them all, each aligned.
_INT64, _UINT64, _INT32, _UINT8 = map(np.dtype, (np.int64, np.uint64, np.int32, np.uint8))
_BUFFERS = (
    ("counts", _INT64, lambda n, n_e: N_COUNTS, "_counts"),
    ("defects", _INT64, lambda n, n_e: n, "_defects"),
    ("scan", _INT64, lambda n, n_e: n, "_scan"),
    ("bits", _UINT64, lambda n, n_e: (n + 63) // 64, None),
    ("parent", _INT32, lambda n, n_e: n, "parent"),
    ("size", _INT32, lambda n, n_e: n, "size"),
    ("growth_steps", _INT32, lambda n, n_e: n, "growth_steps"),
    ("next", _INT32, lambda n, n_e: n, "_next"),
    ("tail", _INT32, lambda n, n_e: n, None),
    ("low", _INT32, lambda n, n_e: n, "low"),
    ("touched_v", _INT32, lambda n, n_e: n, "_tv"),
    # one entry more than there are edges: growth's scan writes past the last kept one
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
    ("edge_state", _UINT8, lambda n, n_e: n_e, "edge_state"),
)


class _Ctx(ctypes.Structure):
    """`uf_ctx` of `_ufkernel.c`, field for field: the address of the graph's
    `GraphView`, then every buffer's address."""

    _fields_ = [("g", ctypes.c_void_p)] + [(name, ctypes.c_void_p) for name, *_ in _BUFFERS]


class InvariantViolation(RuntimeError):
    """A decoder-internal invariant was broken (decoder bug)."""


class ClusterSet:
    """Union-find partition with per-root size, parity, boundary flag and
    growth count, plus the half-edge growth counters.

    All state lives in one numpy block, cut into the buffers `_BUFFERS`
    lists, which the kernel reads and writes. The set's kernel context,
    `_Ctx`, holds the address of the graph's `GraphView` and of each buffer,
    nothing else; the buffers Python reads are numpy views, made once in
    `__init__` as plain attributes:

    - per internal vertex: the root and size tables `parent` and `size`,
      `growth_steps` (int32), `parity` and `boundary_sides` (uint8), a
      member flag, and each cluster's member list, in join order, as a
      linked list that starts at the cluster's root (the kernel's `next`
      and `tail`). `members` reads the lists as a dict keyed by root.
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
    - scratch for the kernel and the forest record. Every buffer is sized
      for the worst case from `n_internal` and `n_edges`: each holds at
      most one entry per vertex or per edge (an internal vertex has at most
      one boundary edge), and there are at most 2 * n_edges growth passes,
      since each pass advances an edge state. `touched_e` and the fusion
      edge stack hold one entry more, which growth's branch-free scan
      writes and does not keep.

    State is reusable across decodes: `grow` starts by restoring the
    initial state over the entries the last growth touched. A refused growth
    changes no state, the defects `peel_seeded` peels included.
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
                setattr(self, attr, np.frombuffer(block, dtype, length(n, n_e), first))
        base = addr(block)
        self._ctx = _Ctx(graph.kernel_view, *[base + first for first in firsts])
        self._c = ctypes.addressof(self._ctx)
        K.uf_init(self._c)

    @property
    def passes(self) -> int:
        return int(self._counts[PASSES])

    @property
    def table_reads(self) -> int:
        return int(self._counts[TABLE_READS])

    @property
    def n_members(self) -> int:
        return int(self._counts[N_TOUCHED_V])

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
        """Cluster root -> member vertices in join order, for every cluster."""
        parent, nxt = self.parent, self._next
        out = {}
        for r in self.touched_v:
            if parent[r] == r:
                ms = out[r] = [r]
                while (x := int(nxt[ms[-1]])) >= 0:
                    ms.append(x)
        return out

    # -- core union-find ------------------------------------------------
    # Growth makes its finds and unions in the kernel; these wrappers stay as the tests'
    # only handle on the find compression cap, its reads and the union tie rule.

    def _check(self, v: int) -> int:
        if not 0 <= v < self.graph.n_internal:
            raise IndexError(f"vertex {v} is not an internal vertex")
        return v

    def find(self, v: int) -> int:
        """Root of v's cluster; repoints at most the last 5 visited vertices."""
        return K.uf_find(self._c, self._check(v))

    def union(self, u: int, v: int) -> int:
        """Make u and v members, then merge their clusters; returns the
        surviving root.

        Weighted by vertex count; on a size tie the smaller root id wins.
        Parity XORs, boundary flags OR, growth counts take the max. The
        loser's member list is appended to the winner's.
        """
        return K.uf_union(self._c, self._check(u), self._check(v))

    def signature(self) -> frozenset:
        """Canonical cluster-set value for engine-equivalence checks.

        Captures the partition plus every per-cluster attribute (size,
        parity, boundary sides, growth count). Parent forests are an
        implementation detail and deliberately excluded. A cluster's
        members are its ascending vertex ids as int32 bytes, a compact
        canonical form: checks keep one signature per decode.
        """
        return frozenset(
            (np.sort(np.array(ms, dtype=np.int32)).tobytes(), int(self.size[r]),
             int(self.parity[r]), int(self.boundary_sides[r]), int(self.growth_steps[r]))
            for r, ms in self.members.items())

    # -- growth ----------------------------------------------------------

    def grow(self, defects) -> None:
        """One decode's growth in one kernel call: reset over the entries the
        last growth touched, make every defect a one-vertex odd cluster, then
        run growth passes until every cluster is even or frozen.

        `defects` must be strictly ascending integer vertex ids in
        [0, n_internal). Anything else raises ValueError before any state
        changes: a negative id would make growth loop forever, and a
        repeated id would silently decode as a single defect.
        """
        ids = self._stage(defects)
        if K.uf_grow(self._c, ids.size):
            self._refuse(ids)

    def _stage(self, defects) -> np.ndarray:
        """Copy integer defect ids to the buffer the kernel seeds from, where
        uint64 ids past 2**63 wrap negative; returns them as an array."""
        ids = integer_ids(defects, "defect")
        if ids.size > self.graph.n_internal:  # so many cannot be valid, and do not fit
            self._refuse(ids)
        self._defects[:ids.size] = ids
        return ids

    def _refuse(self, ids: np.ndarray) -> NoReturn:
        """Raise the ValueError for defect ids `ids`, never empty, that the
        kernel refused to seed, naming the first rule they break, after putting
        back the last growth's staged defects (`touched_v` starts with them)."""
        seeded = self._counts[N_SEEDED]
        self._defects[:seeded] = self._tv[:seeded]
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
        return self._counts[PASSES:N_SEEDED].tolist()

    def forest_view(self) -> SpanningForest:
        """`spanning_forest` of this set without the copy: the forest views
        the set's record, so it is valid until the set is grown again."""
        return SpanningForest._unchecked(_forest_record(self))

    def peel_seeded(self) -> Correction:
        """`peel` of the record that `forest_view` left, with the seeded
        defects as the syndrome, in one kernel call. The correction's int64
        ids view a buffer of the set, valid until the set is grown again."""
        n = K.uf_run_corr(self._c)
        if n < 0:
            _check_peeled(n, self._defects[:self._counts[N_SEEDED]])
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
    growth_steps: int = 0


class SpanningForest:
    """Spanning trees of one decode, as the kernel's int32 record:

    `[m, k, root × m, start vertex × m, n_vertices × m, boundary × m,
    tree edge count × m, growth steps × m, (edge, leafward, rootward) × k]`

    `m` and `k` are plain ints; `columns` is the (6, m) per-tree part and
    `edges` the (k, 3) rest, both views of the record; `trees` gives the
    same as `ClusterTree` objects holding plain ints.
    """

    def __init__(self, record: np.ndarray):
        """ValueError unless `record` has this layout, no negative entry and
        tree edge counts that sum to k: `peel` reads no other within bounds."""
        if record.ndim != 1 or record.dtype != _INT32 or record.size < 2:
            raise ValueError("a forest record is a 1-D int32 array of at least 2 entries, "
                             f"got {record.dtype} of shape {record.shape}")
        m, k = int(record[0]), int(record[1])
        if record.size != 2 + FOREST_COLUMNS * m + 3 * k:
            raise ValueError(f"a forest record of {m} trees and {k} edges has "
                             f"{2 + FOREST_COLUMNS * m + 3 * k} int32 entries, got {record.size}")
        if record.min() < 0 or record[2 + 4 * m:2 + 5 * m].sum() != k:
            raise ValueError("a forest record's entries must be >= 0 and its tree edge "
                             f"counts must sum to its edge count k = {k}")
        self.record, self.m, self.k = record, m, k

    @classmethod
    def _unchecked(cls, record: np.ndarray) -> SpanningForest:
        """The forest of a record that `uf_forest` wrote, taken as valid."""
        self = cls.__new__(cls)
        self.record = record
        self.m, self.k = record[:2].tolist()
        return self

    columns = functools.cached_property(
        lambda self: self.record[2:2 + FOREST_COLUMNS * self.m].reshape(FOREST_COLUMNS, self.m))
    edges = functools.cached_property(
        lambda self: self.record[2 + FOREST_COLUMNS * self.m:].reshape(self.k, 3))
    tree_edges = property(lambda self: self.columns[4])

    @classmethod
    def of_trees(cls, trees: list[ClusterTree]) -> SpanningForest:
        """The record of hand-built trees; every id must fit int32 and be >= 0."""
        cols = [(t.root, t.start_vertex, t.n_vertices, t.boundary, len(t.edges), t.growth_steps)
                for t in trees]
        edges = [x for t in trees for x in t.edges]
        record = np.array([len(trees), len(edges), *np.ravel(np.transpose(cols)), *np.ravel(edges)],
                          dtype=np.int64)
        if record.min() < 0 or record.max() > np.iinfo(np.int32).max:
            raise ValueError("forest ids must lie in [0, 2**31)")
        return cls(record.astype(np.int32))

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


def spanning_forest(graph: DecodingGraph, cs: ClusterSet) -> SpanningForest:
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
    """
    if graph is not cs.graph:
        raise ValueError("the cluster set was grown on another graph")
    return SpanningForest._unchecked(_forest_record(cs).copy())


def _forest_record(cs: ClusterSet) -> np.ndarray:
    """Run `uf_forest` on `cs` and return the record it wrote, a view."""
    n = K.uf_forest(cs._c)
    rec = cs._forest
    if n == FOREST_ODD_CLUSTER:
        raise InvariantViolation(f"cluster at root {rec[0]} is odd and not on a boundary")
    if n == FOREST_BAD_TREE:
        raise InvariantViolation(
            f"spanning tree of cluster {rec[0]} has {rec[1]} edges, expected {rec[2]}")
    return rec[:n]


def peel(forest: SpanningForest, syn: Syndrome) -> Correction:
    """Reverse-order peeling: pop tree edges leaf-first; an edge whose
    leafward endpoint holds a defect joins the correction and flips the
    rootward endpoint's held bit. Boundary entry points absorb flips.

    Every defect must be a distinct vertex of a tree of the forest, which
    excludes the virtual entry points; anything else raises ValueError. The
    correction's ids are int64, as the kernel writes them and as `assess`
    reads them without a copy.
    """
    defects, at = int64_ids(syn.defects, "defect")  # uint64 past 2**63 wraps: rejected too
    out = np.empty(forest.k, dtype=np.int64)
    n = K.uf_peel(addr(forest.record), at, defects.size, addr(out))
    if n < 0:
        _check_peeled(n, np.asarray(syn.defects))
    # a copy: a kept correction does not hold the forest-sized buffer
    return Correction(edge_ids=out[:n].copy())


def _check_peeled(n: int, ids: np.ndarray) -> NoReturn:
    """Raise for the error `n` < 0 that the peeling kernel returned; `ids`
    are the defects it peeled."""
    if n == NO_MEMORY:
        raise MemoryError("no memory for the peeling kernel's scratch bits")
    if n <= PEEL_BAD_DEFECT:
        i = PEEL_BAD_DEFECT - n
        v = ids[i].item()
        why = "repeats an earlier one" if v in ids[:i].tolist() else "lies in no tree of the forest"
        raise ValueError(f"defect {i} of the syndrome, {v}, {why}")
    raise InvariantViolation(f"leftover defect at non-boundary root {-1 - n}")


class Decoder:
    """Reusable decoder instance (single-threaded; one per worker)."""

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        self.cs = ClusterSet(graph)

    def grow(self, defects) -> ClusterSet:
        self.cs.grow(defects)
        return self.cs

    def decode(self, syn: Syndrome) -> tuple[Correction, DecodeStats]:
        cs = self.grow(syn.defects)
        forest = spanning_forest(self.graph, cs)
        return peel(forest, syn), cluster_stats(cs, forest)


def cluster_stats(cs: ClusterSet, forest: SpanningForest) -> DecodeStats:
    """The statistics of the clusters of `forest`, grown in `cs`: one read
    of the forest record's per-tree columns."""
    m = forest.m
    c = forest.record[2 + 2 * m:2 + FOREST_COLUMNS * m].tolist()  # sizes, boundary, edges, growth
    return DecodeStats(m, tuple(c[:m]), tuple(c[3 * m:]), tuple(map(bool, c[m:2 * m])),
                       tuple(c[2 * m:3 * m]), cs.passes)


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
