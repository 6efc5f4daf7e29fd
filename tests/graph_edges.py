"""Edge lookups for the tests, read from a decoding graph's CSR arrays."""


def incident(g, v):
    """Vertex v's (edge, far vertex) pairs in CSR order: W, E, N, S, D, U at an
    internal vertex, ascending edge id at LEFT and RIGHT."""
    s, t = g.adj_start[v], g.adj_start[v + 1]
    return list(zip(g.adj_edge[s:t].tolist(), g.adj_far[s:t].tolist()))


def edge_between(g, u, w):
    """The id of the edge from u to w."""
    for e, far in incident(g, u):
        if far == w:
            return e
    raise AssertionError(f"no edge {u}-{w}")
