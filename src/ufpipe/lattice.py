"""3D decoding graph for a distance-d surface code over d measurement rounds.

One layer per measurement round. Each layer holds a d x (d-1) grid of
syndrome vertices; horizontal (W/E) data-qubit edges terminate on two
virtual boundary vertices shared by all layers. Consecutive layers are
connected by time edges modelling measurement errors. A graph is built
from its `LatticeParams` alone, by `DecodingGraph(params)` (also named
`build_decoding_graph`), from slices of one grid of vertex ids, indexed
[layer, row, col], with no loop over vertices or edges. It is immutable
after construction and safe to share between workers.

Everything the decoding kernel reads is a flat array: the int32 edge
endpoints `edges_u` / `edges_v`, the int32 CSR adjacency `adj_start`,
`adj_edge`, `adj_far`, which lists every vertex's incident edges in a fixed
order, the int32 `stm_rows`, each internal vertex's row of the spanning
tree memory (STM), and the uint8 `edge_slot`, each edge's position in its
endpoints' CSR ranges. The graph describes itself to the kernel once, in
one `_kernel.GraphView` it owns, whose every field holds the graph's
attribute of the same name (sizes, and the addresses of the seven arrays,
which are read-only, as the graph's fields are); every kernel call and
every `uf_core.Decoder` reads it at `kernel_view`. So the numbering of
the vertices, their rows included, is stated here and nowhere else: the
kernel takes internal ids 0 .. n_internal - 1, LEFT n_internal and RIGHT
n_internal + 1, and nothing more of the grid.

Syndrome extraction is one kernel call: it flips one bit per internal
endpoint of each edge, so a vertex's bit ends up set iff it has odd
incidence, and reads the set bits out in ascending order. It costs O(k) in
the number k of edge ids plus O(n_internal / 64) for the bitmap.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from ._kernel import NO_MEMORY, GraphView, K, addr, check_integer, int64_ids


# The largest code distance whose graph fits the kernel's int32 ids and
# offsets: its CSR adjacency holds 2 * n_edges = 2 * (d^3 + 2d(d - 1)^2)
# entries, and every vertex id and STM row is smaller.
MAX_DISTANCE = 709


@dataclass(frozen=True)
class LatticeParams:
    """Code distance d; the graph spans d measurement rounds."""

    d: int

    def __post_init__(self):
        try:
            odd = check_integer(self.d, "code distance", 3, MAX_DISTANCE + 1) % 2
        except ValueError:
            odd = 0
        if not odd:
            raise ValueError(f"code distance must be an odd integer >= 3 and <= {MAX_DISTANCE}, "
                             f"got {self.d}")


@dataclass(frozen=True, init=False, eq=False)
class DecodingGraph:
    """The decoding graph of `LatticeParams(d)`, its only input, with a
    deterministic numbering of vertices and edges.

    Vertex id = layer*d*(d-1) + row*(d-1) + col, in STM row layer*d + row.
    Space edges are numbered layer by layer (per row: W boundary, interior
    horizontals, E boundary; then in-plane verticals row-major); all time
    edges follow, gap-major.

    A graph compares by identity. Its fields cannot be rebound and its
    arrays are read-only: the kernel reads them at the addresses
    `kernel_view` holds."""

    d: int
    n_internal: int
    # endpoints as int32 arrays, for the decoding kernel, syndrome extraction
    # and `uf_core.assess`
    edges_u: np.ndarray  # internal endpoint
    edges_v: np.ndarray  # internal or virtual endpoint
    # the only neighbour index, int32 CSR over every vertex including LEFT and
    # RIGHT: vertex v's incident (edge, far vertex) pairs are
    # zip(adj_edge[s:t], adj_far[s:t]) for s, t = adj_start[v], adj_start[v + 1],
    # in W, E, N, S, D, U order at an internal vertex and in ascending edge id
    # at LEFT and RIGHT
    adj_start: np.ndarray = field(repr=False)
    adj_edge: np.ndarray = field(repr=False)
    adj_far: np.ndarray = field(repr=False)
    # uint8, two per edge: edge e sits at adj_start[u] + edge_slot[e] in its
    # internal end u's range and at adj_start[v] + edge_slot[n_edges + e] in
    # its other end v's, where v is internal (0xff at LEFT and RIGHT). An
    # internal vertex has at most 6 edges, so growth marks a fully grown edge
    # by its slot's bit in a uint8 mask per vertex.
    edge_slot: np.ndarray = field(repr=False)
    # int32, per internal vertex: its (layer, row) pair index layer * d + row,
    # one STM row each, ascending in the vertex id
    stm_rows: np.ndarray = field(repr=False)
    n_space_edges: int  # space edges come first: edge e is a time edge iff e >= this

    def __init__(self, params: LatticeParams):
        if not isinstance(params, LatticeParams):
            raise TypeError(f"a decoding graph is built from a LatticeParams, got {params!r}")
        d = params.d
        n_int = d * d * (d - 1)
        left, right = n_int, n_int + 1

        vid = np.arange(n_int, dtype=np.int32).reshape(d, d, d - 1)  # [layer, row, col]
        stm_rows = np.empty(n_int, dtype=np.int32)
        stm_rows[vid] = np.arange(d * d, dtype=np.int32).reshape(d, d, 1)  # layer * d + row
        first, last = vid[..., :1], vid[..., -1:]
        # per row: W boundary, interior horizontals, E boundary
        hu = np.concatenate((first, vid[..., :-1], last), axis=2)
        hv = np.concatenate((np.full_like(first, left), vid[..., 1:], np.full_like(last, right)),
                            axis=2)
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
        order = np.argsort(8 * vert.astype(np.int64) + np.concatenate((slot_u, slot_v)),
                           kind="stable")
        adj_start = np.zeros(n_int + 3, dtype=np.int32)
        np.cumsum(np.bincount(vert, minlength=n_int + 2), out=adj_start[1:])
        # each end's position in its vertex's CSR range, in the order of `vert`:
        # sorted position less the vertex's first, put back through `order`
        at = np.arange(order.size, dtype=np.int32)
        at -= np.repeat(adj_start[:-1], np.diff(adj_start))
        edge_slot = np.empty(order.size, dtype=np.uint8)
        edge_slot[order] = at
        edge_slot[u.size:][side] = 0xFF

        fields = {"d": d, "n_internal": n_int, "edges_u": u, "edges_v": v,
                  "adj_start": adj_start, "adj_edge": np.concatenate((e, e))[order],
                  "adj_far": np.concatenate((v, u))[order], "edge_slot": edge_slot,
                  "stm_rows": stm_rows, "n_space_edges": n_space}
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False  # the kernel reads it through a fixed address
            object.__setattr__(self, name, value)
        # the kernel's view: each field the attribute of its name, an array by its address
        view = GraphView(*(getattr(self, name) if kind is ctypes.c_int64
                           else getattr(self, name).ctypes.data
                           for name, kind in GraphView._fields_))
        object.__setattr__(self, "_view", view)
        object.__setattr__(self, "kernel_view", ctypes.addressof(view))

    @property
    def n_edges(self) -> int:
        return len(self.edges_u)

    left = property(lambda self: self.n_internal)  # the virtual boundary vertices
    right = property(lambda self: self.n_internal + 1)

    def vertex_id(self, layer: int, row: int, col: int) -> int:
        d = self.d
        return layer * d * (d - 1) + row * (d - 1) + col


build_decoding_graph = DecodingGraph  # the name every caller builds a graph by


def reject_off_graph(graph: DecodingGraph, *id_seqs) -> None:
    """Raise the error for the integer edge ids outside [0, n_edges) in
    `id_seqs`, listing them."""
    bad = [e for ids in map(np.asarray, id_seqs)
           for e in ids[(ids < 0) | (ids >= graph.n_edges)].tolist()]
    raise ValueError(f"edge ids must lie in [0, {graph.n_edges}), got {bad[:5]}")


def syndrome_indices_of_edges(graph: DecodingGraph, edge_ids) -> np.ndarray:
    """Internal vertices with odd incidence in the given edge set, as an
    ascending int64 array; repeated edge ids cancel in pairs.

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
