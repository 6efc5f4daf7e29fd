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


@dataclass(frozen=True)
class LatticeParams:
    """Code distance d; the graph spans d measurement rounds."""

    d: int

    def __post_init__(self):
        if self.d < 3 or self.d % 2 == 0:
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
    # endpoints as numpy arrays, for syndrome extraction and `assess`
    edges_u: np.ndarray  # internal endpoint (int32)
    edges_v: np.ndarray  # internal or virtual endpoint (int32)
    # the only neighbour index: per-vertex ((edge, far), ...) in the order
    # `neighbors` documents, for every vertex including LEFT and RIGHT; the
    # decoder's inner loops read these and the edge endpoints as Python
    # objects, not numpy scalars
    adjacency: tuple = field(repr=False)
    eu: list[int] = field(repr=False)  # edges_u as a list
    ev: list[int] = field(repr=False)  # edges_v as a list
    # tuple(range(n_internal)): a ClusterSet copies it as its root table, which
    # shares these int objects instead of creating one per internal vertex
    vertex_ids: tuple = field(repr=False)
    n_space_edges: int = 0  # space edges come first: edge e is a time edge iff e >= this
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
    layers = d
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

    # W/E/N/S/D/U slots of every internal vertex; LEFT and RIGHT list their
    # edges in ascending edge id
    W, E, N, S, D, U = range(6)
    slots = [[None] * 6 for _ in range(n_int)]
    sides: dict[int, list] = {left: [], right: []}
    for e, (u, v, k) in enumerate(zip(eu, ev, kind)):
        if k == TIME:
            slots[u][U] = (e, v)
            slots[v][D] = (e, u)
        elif v >= n_int:
            slots[u][W if v == left else E] = (e, v)
            sides[v].append((e, u))
        elif v - u == 1:  # horizontal, u west of v
            slots[u][E] = (e, v)
            slots[v][W] = (e, u)
        else:  # in-plane vertical, u north of v
            slots[u][S] = (e, v)
            slots[v][N] = (e, u)
    adjacency = tuple(tuple(x for x in s if x is not None) for s in slots)
    adjacency += (tuple(sides[left]), tuple(sides[right]))

    g = DecodingGraph(
        d=d,
        n_internal=n_int,
        left=left,
        right=right,
        edges_u=np.asarray(eu, dtype=np.int32),
        edges_v=np.asarray(ev, dtype=np.int32),
        adjacency=adjacency,
        eu=eu,
        ev=ev,
        vertex_ids=tuple(range(n_int)),
        n_space_edges=kind.count(SPACE),
        n_time_edges=kind.count(TIME),
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
