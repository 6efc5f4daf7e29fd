"""Union-Find decoder: growth, spanning forest, peeling.

The only decoding engine in the package. All iteration orders are fixed
(ascending vertex ids, W/E/N/S/D/U edge order, LIFO fusion stack), so a
decode is a deterministic function of the syndrome; the hardware pipeline
model in `microarch` counts memory reads on top of this engine's state.

Growth policy: every odd, non-boundary cluster grows all of its incident
half-edges by one increment per pass; edges reaching the fully-grown
state are queued and merged after the pass. A cluster freezes as soon as
a grown edge reaches a virtual boundary vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import DecodingGraph, syndrome_indices_of_edges
from .noise import ErrorPattern, Syndrome

LEFT_SIDE = 1
RIGHT_SIDE = 2

# hardware tree-traversal register file holds this many vertices per find
FIND_COMPRESSION_CAP = 5


class InvariantViolation(RuntimeError):
    """A decoder-internal invariant was broken (decoder bug)."""


class ClusterSet:
    """Union-find partition with per-root size, parity, boundary flag and
    growth count, plus the half-edge growth counters.

    `members` maps each cluster root to its member vertices, in the order
    they joined; its keys are the cluster roots and nothing else lists them.
    A cluster's smallest vertex is taken from its member list when the
    spanning forest needs it.

    State is reusable across decodes: `reset()` restores only the entries
    touched by the previous run.

    Besides the decoding state it keeps, at O(1) cost per find and per
    pass, what a read-count model needs: `touched_v` (member vertices in the
    order they joined), `touched_e` (edges with nonzero growth state, in the
    order they were first touched), `table_reads` (parent-table reads by
    `find` plus two size-table reads per union of distinct roots, all made
    during growth: the forest makes no finds) and `pass_log`, one
    `(len(touched_v), len(touched_e), len(fes))` per growth pass, the first
    two taken at the start of the pass and the last the size of the pass's
    fusion edge stack.
    """

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        n = graph.n_internal
        self.parent = list(graph.vertex_ids)
        self.size = [1] * n
        self.parity = bytearray(n)
        self.boundary_sides = bytearray(n)
        self.growth_steps = [0] * n
        self.member = bytearray(n)
        self.edge_state = bytearray(graph.n_edges)
        self.members: dict[int, list[int]] = {}
        self.passes = 0
        self.touched_v: list[int] = []
        self.touched_e: list[int] = []
        self.table_reads = 0
        self.pass_log: list[tuple[int, int, int]] = []

    def reset(self) -> None:
        parent, size, parity = self.parent, self.size, self.parity
        bnd, gst, mem = self.boundary_sides, self.growth_steps, self.member
        for v in self.touched_v:
            parent[v] = v
            size[v] = 1
            parity[v] = 0
            bnd[v] = 0
            gst[v] = 0
            mem[v] = 0
        estate = self.edge_state
        for e in self.touched_e:
            estate[e] = 0
        self.touched_v.clear()
        self.touched_e.clear()
        self.members.clear()
        self.passes = 0
        self.table_reads = 0
        self.pass_log.clear()

    # -- core union-find ------------------------------------------------

    def find(self, v: int) -> int:
        """Root of v's cluster; repoints at most the last 5 visited vertices."""
        parent = self.parent
        r = parent[v]
        if r == v:
            self.table_reads += 1
            return v
        p = parent[r]
        if p == r:
            self.table_reads += 2
            return r
        path = [v, r]
        r = p
        while True:
            p = parent[r]
            if p == r:
                break
            path.append(r)
            r = p
        self.table_reads += len(path) + 1
        for x in path[-FIND_COMPRESSION_CAP:]:
            parent[x] = r
        return r

    def union(self, u: int, v: int) -> int:
        """Merge the clusters of u and v; returns the surviving root.

        Weighted by vertex count; on a size tie the smaller root id wins.
        Parity XORs, boundary flags OR, growth counts take the max. The
        loser's member list, or the loser alone if it has none, is appended
        to the winner's.
        """
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return ru
        self.table_reads += 2
        su, sv = self.size[ru], self.size[rv]
        if sv > su or (sv == su and rv < ru):
            ru, rv = rv, ru
        # ru survives
        self.parent[rv] = ru
        self.size[ru] += self.size[rv]
        self.parity[ru] ^= self.parity[rv]
        self.boundary_sides[ru] |= self.boundary_sides[rv]
        if self.growth_steps[rv] > self.growth_steps[ru]:
            self.growth_steps[ru] = self.growth_steps[rv]
        members = self.members
        mu = members.get(ru)
        if mu is None:
            mu = members[ru] = [ru]
        mv = members.pop(rv, None)
        if mv is None:
            mu.append(rv)
        else:
            mu.extend(mv)
        return ru

    def signature(self) -> frozenset:
        """Canonical cluster-set value for engine-equivalence checks.

        Captures the partition plus every per-cluster attribute (size,
        parity, boundary sides, growth count). Parent forests are an
        implementation detail and deliberately excluded.
        """
        out = []
        for r, ms in self.members.items():
            out.append((
                tuple(sorted(ms)),
                self.size[r],
                self.parity[r],
                self.boundary_sides[r],
                self.growth_steps[r],
            ))
        return frozenset(out)

    # -- growth ----------------------------------------------------------

    def seed_defects(self, defects) -> None:
        """Make every defect a one-vertex odd cluster.

        `defects` must be strictly ascending integer vertex ids in
        [0, n_internal). Anything else raises ValueError before any state
        changes: a negative id would make growth loop forever, and a
        repeated id would silently decode as a single defect.
        """
        ids = np.asarray(defects)
        if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
            raise ValueError(
                f"defect ids must be a 1-D integer sequence, got {ids.dtype} of shape {ids.shape}")
        vs = ids.tolist()
        if any(a >= b for a, b in zip(vs, vs[1:])):
            raise ValueError("defect ids must be strictly ascending")
        if vs and (vs[0] < 0 or vs[-1] >= self.graph.n_internal):
            raise ValueError(
                f"defect ids must lie in [0, {self.graph.n_internal}), got {vs[0]}..{vs[-1]}")
        member, parity = self.member, self.parity
        for v in vs:
            member[v] = 1
            parity[v] = 1
            self.members[v] = [v]
            self.touched_v.append(v)

    def grow(self) -> None:
        """Run growth passes until every cluster is even or frozen."""
        g = self.graph
        adj, eu, ev, n_int, left = g.adjacency, g.eu, g.ev, g.n_internal, g.left
        estate, member = self.edge_state, self.member
        parity, bnd = self.parity, self.boundary_sides
        touched_v, touched_e = self.touched_v, self.touched_e
        while True:
            grow_roots = [r for r in self.members if parity[r] and not bnd[r]]
            if not grow_roots:
                return
            self.passes += 1
            gst = self.growth_steps
            for r in grow_roots:
                gst[r] += 1
            scan = []
            for r in grow_roots:
                scan.extend(self.members[r])
            scan.sort()
            n_touched_e = len(touched_e)
            fes = []
            for v in scan:
                for e, _w in adj[v]:
                    s = estate[e]
                    if s >= 2:
                        continue
                    if s == 0:
                        estate[e] = 1
                        touched_e.append(e)
                    else:
                        estate[e] = 2
                        fes.append(e)
            self.pass_log.append((len(touched_v), n_touched_e, len(fes)))
            # fusion edge stack drains last-in first-out
            for i in range(len(fes) - 1, -1, -1):
                e = fes[i]
                u, w = eu[e], ev[e]
                if w >= n_int:
                    bnd[self.find(u)] |= LEFT_SIDE if w == left else RIGHT_SIDE
                else:
                    # a new member has no member list; `union` files it under its root
                    if not member[u]:
                        member[u] = 1
                        touched_v.append(u)
                    if not member[w]:
                        member[w] = 1
                        touched_v.append(w)
                    self.union(u, w)


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


@dataclass
class SpanningForest:
    trees: list[ClusterTree] = field(default_factory=list)


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

    Trees are ordered by the smallest vertex id of their cluster, taken
    from its member list, and that vertex is the traversal root. A
    boundary-touching cluster is instead entered from its virtual boundary
    vertex (LEFT preferred when both sides are touched) through the fully
    grown edges from its own members to that vertex, in ascending member
    id, which is ascending edge id. Half-grown edges are ignored. Clusters are
    disjoint and a fully grown internal edge never leaves its cluster, so
    one `visited` set serves the whole forest. No `find` is made, so the
    parent table and `table_reads` stay as growth left them.
    """
    adj = graph.adjacency
    estate = cs.edge_state
    n_int = graph.n_internal
    visited: set[int] = set()
    forest = SpanningForest()
    for low, root in sorted((min(ms), r) for r, ms in cs.members.items()):
        if cs.parity[root] and not cs.boundary_sides[root]:
            raise InvariantViolation(f"cluster at root {root} is odd and not on a boundary")
        edges: list[tuple[int, int, int]] = []
        sides = cs.boundary_sides[root]
        if sides:
            start = graph.left if sides & LEFT_SIDE else graph.right
            entries = sorted(
                (u, e) for u in cs.members[root] for e, w in adj[u] if w == start and estate[e] == 2
            )
            expect = cs.size[root]
        else:
            start = low
            entries = [(start, None)]
            expect = cs.size[root] - 1
        for u, e0 in entries:
            if u in visited:
                continue
            visited.add(u)
            if sides:
                edges.append((e0, u, start))
            # each frame resumes its vertex's adjacency where it left off
            stack = [(u, iter(adj[u]))]
            while stack:
                x, it = stack[-1]
                for e, w in it:
                    if estate[e] == 2 and w < n_int and w not in visited:
                        visited.add(w)
                        edges.append((e, w, x))
                        stack.append((w, iter(adj[w])))
                        break
                else:
                    stack.pop()
        if len(edges) != expect:
            raise InvariantViolation(
                f"spanning tree of cluster {root} has {len(edges)} edges, expected {expect}"
            )
        forest.trees.append(
            ClusterTree(
                root=root,
                start_vertex=start,
                edges=edges,
                n_vertices=cs.size[root],
                boundary=bool(sides),
            )
        )
    return forest


def peel(forest: SpanningForest, syn: Syndrome) -> Correction:
    """Reverse-order peeling: pop tree edges leaf-first; an edge whose
    leafward endpoint holds a defect joins the correction and flips the
    rootward endpoint's held bit. Boundary entry points absorb flips.
    """
    db = {int(v): 1 for v in syn.defects}
    corr: list[int] = []
    for tree in forest.trees:
        hold: dict[int, int] = {}
        for e, child, parent in reversed(tree.edges):
            bit = db.get(child, 0) ^ hold.pop(child, 0)
            if bit:
                corr.append(e)
                if not tree.boundary or parent != tree.start_vertex:
                    hold[parent] = hold.get(parent, 0) ^ 1
        if not tree.boundary:
            leftover = db.get(tree.start_vertex, 0) ^ hold.pop(tree.start_vertex, 0)
            if leftover:
                raise InvariantViolation(
                    f"leftover defect at non-boundary root {tree.start_vertex}"
                )
    corr.sort()
    return Correction(edge_ids=np.asarray(corr, dtype=np.int64))


class Decoder:
    """Reusable decoder instance (single-threaded; one per worker)."""

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        self.cs = ClusterSet(graph)

    def grow(self, defects) -> ClusterSet:
        self.cs.reset()
        self.cs.seed_defects(defects)
        self.cs.grow()
        return self.cs

    def decode(self, syn: Syndrome) -> tuple[Correction, DecodeStats]:
        cs = self.grow(syn.defects)
        forest = spanning_forest(self.graph, cs)
        return peel(forest, syn), cluster_stats(cs, forest)


def cluster_stats(cs: ClusterSet, forest: SpanningForest) -> DecodeStats:
    trees = forest.trees
    return DecodeStats(
        m=len(trees),
        sizes=tuple(t.n_vertices for t in trees),
        growth_steps=tuple(cs.growth_steps[t.root] for t in trees),
        boundary=tuple(t.boundary for t in trees),
        tree_edges=tuple(len(t.edges) for t in trees),
        passes=cs.passes,
    )


def assess(
    graph: DecodingGraph,
    err: ErrorPattern,
    corr: Correction,
    stats: DecodeStats | None = None,
) -> DecodeOutcome:
    """Check the residual error err XOR corr for logical failure. Neither
    may repeat an edge id; `sample_error` and `peel` never do."""
    residual = np.setxor1d(err.edge_ids, corr.edge_ids, assume_unique=True)
    if syndrome_indices_of_edges(graph, residual).size:
        raise InvariantViolation("correction does not cancel the syndrome")
    # crossing parity of the zero-syndrome residual: its LEFT-incident edges;
    # odd means it runs between the two boundaries, a logical operator
    bit = int(np.count_nonzero(graph.edges_v[residual] == graph.left) & 1) if residual.size else 0
    return DecodeOutcome(success=(bit == 0), stats=stats)
