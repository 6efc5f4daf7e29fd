"""3D decoding graph for a distance-d surface code over d measurement rounds.

One layer per measurement round. Each layer holds a d x (d-1) grid of
syndrome vertices; horizontal (W/E) data-qubit edges terminate on two
virtual boundary vertices shared by all layers. Consecutive layers are
connected by time edges modelling measurement errors. The graph is
immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SPACE = 0
TIME = 1

# fixed direction order used by every traversal in the package
DIRECTIONS = ("W", "E", "N", "S", "D", "U")


@dataclass(frozen=True)
class LatticeParams:
    """Code distance and number of measurement rounds (rounds == d in v1)."""

    d: int
    rounds: int | None = None

    def __post_init__(self):
        if self.d < 3 or self.d % 2 == 0:
            raise ValueError(f"code distance must be an odd integer >= 3, got {self.d}")
        rounds = self.d if self.rounds is None else self.rounds
        if rounds != self.d:
            raise ValueError("only rounds == d is supported")
        object.__setattr__(self, "rounds", rounds)


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
    edges_u: np.ndarray  # internal endpoint (int32)
    edges_v: np.ndarray  # internal or virtual endpoint (int32)
    edge_kind: np.ndarray
    adj_edges: np.ndarray  # (n_internal, 6) incident edge ids, -1 where absent
    adj_verts: np.ndarray  # (n_internal, 6) far endpoints, -1 where absent
    left_edges: np.ndarray   # edge ids incident to LEFT, ascending
    right_edges: np.ndarray  # edge ids incident to RIGHT, ascending
    # per-vertex ((edge, far), ...) in the order `neighbors` documents, for
    # every vertex including LEFT and RIGHT; the decoder's inner loops read
    # these and the edge endpoints as Python objects, not numpy scalars
    adjacency: tuple = field(repr=False)
    eu: list[int] = field(repr=False)  # edges_u as a list
    ev: list[int] = field(repr=False)  # edges_v as a list
    # tuple(range(n_internal)): a ClusterSet copies it as its root table, which
    # shares these int objects instead of creating one per internal vertex
    vertex_ids: tuple = field(repr=False)
    n_space_edges: int = 0
    n_time_edges: int = 0
    _row_stride: int = field(default=0, repr=False)

    @property
    def n_edges(self) -> int:
        return len(self.edges_u)

    def vertex_id(self, layer: int, row: int, col: int) -> int:
        d = self.d
        return layer * d * (d - 1) + row * (d - 1) + col

    def vertex_coords(self, v: int) -> tuple[int, int, int]:
        d = self.d
        layer, rest = divmod(v, d * (d - 1))
        row, col = divmod(rest, d - 1)
        return layer, row, col

    def stm_row(self, v: int) -> int:
        """(layer, row) pair index of an internal vertex; one STM row each."""
        return v // self._row_stride

    def neighbors(self, v: int) -> list[tuple[int, int]]:
        """Incident (edge, far-vertex) pairs in fixed W,E,N,S,D,U order.

        For the virtual vertices the incident boundary edges are returned in
        ascending edge-id order.
        """
        if v < 0 or v >= self.n_internal + 2:
            raise IndexError(f"vertex {v} out of range")
        return list(self.adjacency[v])


def build_decoding_graph(params: LatticeParams) -> DecodingGraph:
    """Construct the decoding graph with deterministic vertex/edge numbering.

    Vertex id = layer*d*(d-1) + row*(d-1) + col. Space edges are numbered
    layer by layer (per row: W boundary, interior horizontals, E boundary;
    then in-plane verticals row-major); all time edges follow, gap-major.
    """
    d = params.d
    layers = params.rounds
    n_int = num_internal_vertices(d)
    left = n_int
    right = n_int + 1
    cols = d - 1

    eu: list[int] = []
    ev: list[int] = []
    kind: list[int] = []

    def vid(layer, row, col):
        return layer * d * cols + row * cols + col

    for layer in range(layers):
        for row in range(d):
            eu.append(vid(layer, row, 0))
            ev.append(left)
            kind.append(SPACE)
            for col in range(cols - 1):
                eu.append(vid(layer, row, col))
                ev.append(vid(layer, row, col + 1))
                kind.append(SPACE)
            eu.append(vid(layer, row, cols - 1))
            ev.append(right)
            kind.append(SPACE)
        for row in range(d - 1):
            for col in range(cols):
                eu.append(vid(layer, row, col))
                ev.append(vid(layer, row + 1, col))
                kind.append(SPACE)
    for gap in range(layers - 1):
        for row in range(d):
            for col in range(cols):
                eu.append(vid(gap, row, col))
                ev.append(vid(gap + 1, row, col))
                kind.append(TIME)

    edges_u = np.asarray(eu, dtype=np.int32)
    edges_v = np.asarray(ev, dtype=np.int32)
    edge_kind = np.asarray(kind, dtype=np.uint8)

    adj_edges = np.full((n_int, 6), -1, dtype=np.int32)
    adj_verts = np.full((n_int, 6), -1, dtype=np.int32)
    W, E, N, S, D, U = range(6)
    for e in range(len(edges_u)):
        u, v = int(edges_u[e]), int(edges_v[e])
        if edge_kind[e] == TIME:
            adj_edges[u, U] = e
            adj_verts[u, U] = v
            adj_edges[v, D] = e
            adj_verts[v, D] = u
            continue
        if v == left:
            adj_edges[u, W] = e
            adj_verts[u, W] = left
        elif v == right:
            adj_edges[u, E] = e
            adj_verts[u, E] = right
        else:
            du = abs(v - u)
            if du == 1:  # horizontal, u west of v
                adj_edges[u, E] = e
                adj_verts[u, E] = v
                adj_edges[v, W] = e
                adj_verts[v, W] = u
            else:  # in-plane vertical, u north of v
                adj_edges[u, S] = e
                adj_verts[u, S] = v
                adj_edges[v, N] = e
                adj_verts[v, N] = u

    left_edges = np.flatnonzero(edges_v == left).astype(np.int32)
    right_edges = np.flatnonzero(edges_v == right).astype(np.int32)
    adjacency = tuple(
        tuple((e, w) for e, w in zip(es, ws) if e >= 0)
        for es, ws in zip(adj_edges.tolist(), adj_verts.tolist())
    ) + tuple(
        tuple((e, eu[e]) for e in side.tolist()) for side in (left_edges, right_edges)
    )

    g = DecodingGraph(
        d=d,
        n_internal=n_int,
        left=left,
        right=right,
        edges_u=edges_u,
        edges_v=edges_v,
        edge_kind=edge_kind,
        adj_edges=adj_edges,
        adj_verts=adj_verts,
        left_edges=left_edges,
        right_edges=right_edges,
        adjacency=adjacency,
        eu=eu,
        ev=ev,
        vertex_ids=tuple(range(n_int)),
        n_space_edges=int(np.sum(edge_kind == SPACE)),
        n_time_edges=int(np.sum(edge_kind == TIME)),
        _row_stride=cols,
    )
    assert g.n_space_edges == num_space_edges(d)
    assert g.n_time_edges == num_time_edges(d)
    return g


def syndrome_indices_of_edges(graph: DecodingGraph, edge_ids: np.ndarray) -> np.ndarray:
    """Internal vertices with odd incidence in the given edge set, ascending.

    O(k log k) in the number k of edge ids: the endpoints are sorted, the
    virtual ones (the largest ids) cut off, and a vertex is a defect iff its
    run of equal ids is odd, so repeated edge ids cancel in pairs.
    """
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    if edge_ids.size == 0:
        return np.empty(0, dtype=np.int32)
    ends = np.concatenate((graph.edges_u[edge_ids], graph.edges_v[edge_ids]))
    ends.sort()
    ends = ends[: ends.searchsorted(graph.n_internal)]
    first = np.ones(ends.size + 1, dtype=bool)
    np.not_equal(ends[1:], ends[:-1], out=first[1:-1])
    starts = first.nonzero()[0]  # start of every run, then ends.size
    odd = (starts[1:] - starts[:-1]) & 1 == 1
    return ends[starts[:-1][odd]]


def logical_crossing_parity(graph: DecodingGraph, edge_ids) -> int:
    """Parity of LEFT-incident edges in a zero-syndrome edge set.

    1 means the residual chain crosses between the two boundaries, i.e. it
    acts as a logical operator.
    """
    edge_ids = np.asarray(list(edge_ids) if not isinstance(edge_ids, np.ndarray) else edge_ids,
                          dtype=np.int64)
    if syndrome_indices_of_edges(graph, edge_ids).size:
        raise ValueError("edge set has nonzero syndrome; crossing parity undefined")
    if edge_ids.size == 0:
        return 0
    return int(np.sum(graph.edges_v[edge_ids] == graph.left) & 1)
