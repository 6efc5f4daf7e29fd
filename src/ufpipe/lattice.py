"""3D decoding graph for a distance-d surface code over d measurement rounds.

One layer per measurement round. Each layer holds a d x (d-1) grid of
syndrome vertices; horizontal (W/E) data-qubit edges terminate on two
virtual boundary vertices shared by all layers. Consecutive layers are
connected by time edges modelling measurement errors. The graph is
immutable after construction and safe to share between workers. It is
built from slices of one grid of vertex ids, indexed [layer, row, col], with
no loop over vertices or edges.

Everything the decoding kernel reads is a flat array: the int32 edge
endpoints `edges_u` / `edges_v`, the int32 CSR adjacency `adj_start`,
`adj_edge`, `adj_far`, which lists every vertex's incident edges in a fixed
order, and the uint8 `edge_slot`, each edge's position in its endpoints'
CSR ranges. `neighbors` reads the CSR arrays. The graph describes itself to
the kernel once, in one `_kernel.GraphView` it owns (sizes, the STM row
stride and the addresses of the six arrays, which are immutable); every
kernel call and every `uf_core.ClusterSet` reads it at `kernel_view`.

Syndrome extraction is one kernel call: it flips one bit per internal
endpoint of each edge, so a vertex's bit ends up set iff it has odd
incidence, and reads the set bits out in ascending order. It costs O(k) in
the number k of edge ids plus O(n_internal / 64) for the bitmap.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from ._kernel import NO_MEMORY, GraphView, K, addr, check_integer, int64_ids


@dataclass(frozen=True)
class LatticeParams:
    """Code distance d; the graph spans d measurement rounds."""

    d: int

    def __post_init__(self):
        try:
            odd = check_integer(self.d, "code distance", 3, math.inf) % 2
        except ValueError:
            odd = 0
        if not odd:
            raise ValueError(f"code distance must be an odd integer >= 3, got {self.d}")


def num_internal_vertices(d: int) -> int:
    return d * d * (d - 1)


def num_space_edges(d: int) -> int:
    # one per data qubit per layer: d horizontal + (d-1)^2 vertical in-plane
    return d * (2 * d * d - 2 * d + 1)


def num_time_edges(d: int) -> int:
    return d * (d - 1) * (d - 1)


def num_edges(d: int) -> int:
    return num_space_edges(d) + num_time_edges(d)


@dataclass
class DecodingGraph:
    d: int
    n_internal: int
    left: int            # virtual boundary vertex id (= n_internal)
    right: int           # virtual boundary vertex id (= n_internal + 1)
    # endpoints as int32 arrays, for the decoding kernel, syndrome extraction
    # and `uf_core.assess`
    edges_u: np.ndarray  # internal endpoint
    edges_v: np.ndarray  # internal or virtual endpoint
    # the only neighbour index, int32 CSR over every vertex including LEFT and
    # RIGHT: vertex v's incident (edge, far vertex) pairs are
    # zip(adj_edge[s:t], adj_far[s:t]) for s, t = adj_start[v], adj_start[v + 1],
    # in the order `neighbors` documents
    adj_start: np.ndarray = field(repr=False)
    adj_edge: np.ndarray = field(repr=False)
    adj_far: np.ndarray = field(repr=False)
    # uint8, two per edge: edge e sits at adj_start[u] + edge_slot[e] in its
    # internal end u's range and at adj_start[v] + edge_slot[n_edges + e] in
    # its other end v's, where v is internal (0xff at LEFT and RIGHT). An
    # internal vertex has at most 6 edges, so growth marks a fully grown edge
    # by its slot's bit in a uint8 mask per vertex.
    edge_slot: np.ndarray = field(repr=False)
    n_space_edges: int = 0  # space edges come first: edge e is a time edge iff e >= this
    n_time_edges: int = 0

    def __post_init__(self):
        # the kernel's view of the graph, d - 1 vertices per STM row; O(1)
        self._view = GraphView(self.n_internal, len(self.edges_u), self.d - 1, *(
            a.ctypes.data for a in (self.adj_start, self.adj_edge, self.adj_far, self.edges_u,
                                    self.edges_v, self.edge_slot)))
        self.kernel_view = ctypes.addressof(self._view)

    @property
    def n_edges(self) -> int:
        return len(self.edges_u)

    def vertex_id(self, layer: int, row: int, col: int) -> int:
        d = self.d
        return layer * d * (d - 1) + row * (d - 1) + col

    # No decoder calls `vertex_coords` or `neighbors`; they stay as the tests' edge lookups.
    def vertex_coords(self, v: int) -> tuple[int, int, int]:
        d = self.d
        layer, rest = divmod(v, d * (d - 1))
        row, col = divmod(rest, d - 1)
        return layer, row, col

    def stm_row(self, v: int) -> int:
        """(layer, row) pair index of an internal vertex; one STM row each."""
        return v // self._view.row_stride

    def neighbors(self, v: int) -> list[tuple[int, int]]:
        """Incident (edge, far-vertex) pairs in fixed W,E,N,S,D,U order.

        For the virtual vertices the incident boundary edges are returned in
        ascending edge-id order.
        """
        if v < 0 or v >= self.n_internal + 2:
            raise IndexError(f"vertex {v} out of range")
        s, t = self.adj_start[v], self.adj_start[v + 1]
        return list(zip(self.adj_edge[s:t].tolist(), self.adj_far[s:t].tolist()))


def build_decoding_graph(params: LatticeParams) -> DecodingGraph:
    """Construct the decoding graph with deterministic vertex/edge numbering.

    Vertex id = layer*d*(d-1) + row*(d-1) + col. Space edges are numbered
    layer by layer (per row: W boundary, interior horizontals, E boundary;
    then in-plane verticals row-major); all time edges follow, gap-major.
    """
    d = params.d
    n_int = num_internal_vertices(d)
    left = n_int
    right = n_int + 1

    vid = np.arange(n_int, dtype=np.int32).reshape(d, d, d - 1)  # [layer, row, col]
    first, last = vid[..., :1], vid[..., -1:]
    # per row: W boundary, interior horizontals, E boundary
    hu = np.concatenate((first, vid[..., :-1], last), axis=2)
    hv = np.concatenate((np.full_like(first, left), vid[..., 1:], np.full_like(last, right)), axis=2)
    # per layer: its rows' horizontals, then its in-plane verticals
    su = np.concatenate((hu.reshape(d, -1), vid[:, :-1].reshape(d, -1)), axis=1)
    sv = np.concatenate((hv.reshape(d, -1), vid[:, 1:].reshape(d, -1)), axis=1)
    n_space = su.size
    # then every time edge
    u = np.concatenate((su.ravel(), vid[:-1].ravel()))
    v = np.concatenate((sv.ravel(), vid[1:].ravel()))

    # W/E/N/S/D/U slot of each edge at each end; LEFT and RIGHT list their
    # edges in ascending edge id, so every boundary edge has slot 0 there
    W, E, N, S, D, U = range(6)
    e = np.arange(u.size, dtype=np.int32)
    time = e >= n_space
    side = v >= n_int
    horiz = ~time & ~side & (v - u == 1)  # u west of v; other in-plane edges: u north of v
    slot_u = np.select([time, side & (v == left), side | horiz], [U, W, E], S)
    slot_v = np.select([time, side, horiz], [D, 0, W], N)
    vert = np.concatenate((u, v))
    # by vertex, then slot, then edge id: one stable sort, since the ends that
    # share a vertex and a slot (at LEFT and RIGHT) come in ascending edge id
    order = np.argsort(8 * vert.astype(np.int64) + np.concatenate((slot_u, slot_v)), kind="stable")
    adj_start = np.zeros(n_int + 3, dtype=np.int32)
    np.cumsum(np.bincount(vert, minlength=n_int + 2), out=adj_start[1:])
    # each end's position in its vertex's CSR range, in the order of `vert`:
    # sorted position less the vertex's first, put back through `order`
    at = np.arange(order.size, dtype=np.int32)
    at -= np.repeat(adj_start[:-1], np.diff(adj_start))
    edge_slot = np.empty(order.size, dtype=np.uint8)
    edge_slot[order] = at
    edge_slot[u.size:][side] = 0xFF

    g = DecodingGraph(
        d=d,
        n_internal=n_int,
        left=left,
        right=right,
        edges_u=u,
        edges_v=v,
        adj_start=adj_start,
        adj_edge=np.concatenate((e, e))[order],
        adj_far=np.concatenate((v, u))[order],
        edge_slot=edge_slot,
        n_space_edges=n_space,
        n_time_edges=u.size - n_space,
    )
    for a in (g.edges_u, g.edges_v, g.adj_start, g.adj_edge, g.adj_far, g.edge_slot):
        a.flags.writeable = False  # the kernel reads them through fixed addresses
    assert g.n_space_edges == num_space_edges(d)
    assert g.n_time_edges == num_time_edges(d)
    return g


def reject_off_graph(graph: DecodingGraph, *id_seqs) -> None:
    """Raise the error for the integer edge ids outside [0, n_edges) in
    `id_seqs`, listing them."""
    bad = [e for ids in map(np.asarray, id_seqs)
           for e in ids[(ids < 0) | (ids >= graph.n_edges)].tolist()]
    raise ValueError(f"edge ids must lie in [0, {graph.n_edges}), got {bad[:5]}")


def syndrome_indices_of_edges(graph: DecodingGraph, edge_ids) -> np.ndarray:
    """Internal vertices with odd incidence in the given edge set, as an
    ascending int64 array, which `uf_core.peel` reads without a copy;
    repeated edge ids cancel in pairs.

    Bit parity in the kernel, see the module docstring. Non-integer ids
    (float or bool) and ids outside [0, n_edges) raise ValueError.
    """
    ids, at = int64_ids(edge_ids, "edge")
    out = np.empty(min(2 * ids.size, graph.n_internal), dtype=np.int64)
    n = K.uf_syndrome(graph.kernel_view, at, ids.size, addr(out))
    if n < 0:
        if n == NO_MEMORY:
            raise MemoryError("no memory for the syndrome kernel's scratch bits")
        reject_off_graph(graph, edge_ids)
    return out[:n]
