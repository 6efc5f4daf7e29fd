import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufpipe.lattice import (
    LatticeParams,
    build_decoding_graph,
    num_edges,
    num_internal_vertices,
    num_space_edges,
    num_time_edges,
    syndrome_indices_of_edges,
)
from ufpipe.noise import ErrorPattern
from ufpipe.uf_core import Correction, assess

SYNDROME_GRAPHS = {d: build_decoding_graph(LatticeParams(d)) for d in (3, 5)}


@pytest.fixture(scope="module")
def g3():
    return build_decoding_graph(LatticeParams(3))


@pytest.fixture(scope="module")
def g5():
    return build_decoding_graph(LatticeParams(5))


def brute_counts(d):
    # count from first principles, independently of the library formulas:
    # per layer, one horizontal edge per (row, horizontal slot) including the
    # two boundary slots, plus an in-plane vertical edge per interior gap.
    verts = sum(1 for _l in range(d) for _r in range(d) for _c in range(d - 1))
    horiz = sum(1 for _l in range(d) for _r in range(d) for _slot in range(d))
    vert = sum(1 for _l in range(d) for _r in range(d - 1) for _c in range(d - 1))
    time = sum(1 for _g in range(d - 1) for _r in range(d) for _c in range(d - 1))
    return verts, horiz + vert, time


def test_d3_counts(g3):
    assert g3.n_internal == 18
    assert g3.n_space_edges == 39
    assert g3.n_time_edges == 12
    assert g3.n_edges == 51


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11])
def test_counts_match_brute_force(d):
    verts, space, time = brute_counts(d)
    assert num_internal_vertices(d) == verts
    assert num_space_edges(d) == space
    assert num_time_edges(d) == time
    g = build_decoding_graph(LatticeParams(d))
    assert g.n_internal == verts
    assert g.n_space_edges == space
    assert g.n_time_edges == time
    assert num_edges(d) == g.n_edges


def test_d11_vertex_count():
    g = build_decoding_graph(LatticeParams(11))
    assert g.n_internal == 1210
    assert g.n_edges == 3531


def test_bulk_degree_six(g3):
    d = g3.d
    for layer in range(1, d - 1):
        for row in range(1, d - 1):
            for col in range(d - 1):
                nb = g3.neighbors(g3.vertex_id(layer, row, col))
                assert len(nb) == 6
                time = [e >= g3.n_space_edges for e, _ in nb]
                assert time.count(False) == 4
                assert time.count(True) == 2


def test_neighbors_boundary_and_top_layer(g5):
    d = g5.d
    v = g5.vertex_id(2, 2, 0)
    far = [w for _, w in g5.neighbors(v)]
    assert far.count(g5.left) == 1
    v_top = g5.vertex_id(d - 1, 2, 2)
    layers = [g5.vertex_coords(w)[0] for _, w in g5.neighbors(v_top) if w < g5.n_internal]
    assert all(l <= d - 1 for l in layers)
    assert len(g5.neighbors(v_top)) == 5  # no Up edge above the last layer


def test_neighbors_involutive(g5):
    for v in range(g5.n_internal):
        for e, w in g5.neighbors(v):
            if w < g5.n_internal:
                assert (e, v) in g5.neighbors(w)


def test_neighbors_bad_vertex(g3):
    with pytest.raises(IndexError):
        g3.neighbors(g3.n_internal + 2)


def test_invalid_distance():
    with pytest.raises(ValueError):
        LatticeParams(4)
    with pytest.raises(ValueError):
        LatticeParams(1)


def test_vertex_indexing(g5):
    d = g5.d
    for v in range(g5.n_internal):
        layer, row, col = g5.vertex_coords(v)
        assert g5.vertex_id(layer, row, col) == v
        assert g5.stm_row(v) == layer * d + row


def row_chain(g, layer, row):
    """Edge ids of the full LEFT-to-RIGHT horizontal chain in one row."""
    d = g.d
    chain = []
    v = g.vertex_id(layer, row, 0)
    for e, w in g.neighbors(v):
        if w == g.left:
            chain.append(e)
    for col in range(d - 2):
        u = g.vertex_id(layer, row, col)
        for e, w in g.neighbors(u):
            if w == g.vertex_id(layer, row, col + 1):
                chain.append(e)
    u = g.vertex_id(layer, row, d - 2)
    for e, w in g.neighbors(u):
        if w == g.right:
            chain.append(e)
    return chain


def square_cycle(g, layer, row, col):
    """4-edge contractible square in one layer."""
    a = g.vertex_id(layer, row, col)
    b = g.vertex_id(layer, row, col + 1)
    c = g.vertex_id(layer, row + 1, col)
    d_ = g.vertex_id(layer, row + 1, col + 1)
    out = []
    for e, w in g.neighbors(a):
        if w in (b, c):
            out.append(e)
    for e, w in g.neighbors(d_):
        if w in (b, c):
            out.append(e)
    assert len(out) == 4
    return out


def crossing_parity(g, edge_ids):
    """Crossing parity of a zero-syndrome edge set, as `assess` finds it
    when the set is the residual: the error, with an empty correction."""
    err = ErrorPattern(edge_ids=np.asarray(sorted(edge_ids), dtype=np.int64), n_edges=g.n_edges)
    return int(not assess(g, err, Correction(edge_ids=np.empty(0, dtype=np.int64))).success)


def test_logical_crossing_parity_basics(g3):
    assert crossing_parity(g3, []) == 0
    chain = row_chain(g3, 1, 1)
    assert len(chain) == 3
    assert crossing_parity(g3, chain) == 1
    assert crossing_parity(g3, square_cycle(g3, 0, 1, 0)) == 0


def test_logical_crossing_parity_linear(g5):
    rng = np.random.default_rng(7)
    cycles = [square_cycle(g5, l, r, c) for l, r, c in
              [(0, 0, 0), (1, 2, 1), (2, 3, 2), (4, 1, 1)]]
    chains = [row_chain(g5, l, r) for l, r in [(0, 0), (2, 2), (4, 4)]]
    pool = cycles + chains
    for _ in range(50):
        picks = [s for s in pool if rng.random() < 0.5]
        acc: set[int] = set()
        parity = 0
        for s in picks:
            acc ^= set(s)
            parity ^= crossing_parity(g5, s)
        assert crossing_parity(g5, acc) == parity


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.sampled_from([3, 5]))
def test_syndrome_matches_bincount_reference(data, d):
    # arbitrary edge-id arrays: empty, repeated ids, and boundary-heavy sets
    g = SYNDROME_GRAPHS[d]
    boundary = [e for e, _ in g.neighbors(g.left) + g.neighbors(g.right)]
    any_edge = st.integers(0, g.n_edges - 1)
    ids = data.draw(st.lists(st.one_of(any_edge, st.sampled_from(boundary)), max_size=80))
    edge_ids = np.asarray(ids, dtype=np.int64)
    ends = np.concatenate((g.edges_u[edge_ids], g.edges_v[edge_ids]))
    ref = np.flatnonzero(np.bincount(ends, minlength=g.n_internal + 2)[: g.n_internal] & 1)
    got = syndrome_indices_of_edges(g, edge_ids)
    assert got.dtype == np.int32
    assert np.array_equal(got, ref)
    assert np.array_equal(syndrome_indices_of_edges(g, ids), ref)  # a plain list too


@pytest.mark.parametrize("bad", [[-1], [51], [0, 2, -7], [2**40]])
def test_syndrome_rejects_edge_ids_off_the_graph(g3, bad):
    # -1 used to read the last edge's endpoints; n_edges raised IndexError
    with pytest.raises(ValueError, match=r"\[0, 51\)"):
        syndrome_indices_of_edges(g3, np.array(bad))
    with pytest.raises(ValueError):
        assess(g3, ErrorPattern(edge_ids=np.array(bad), n_edges=g3.n_edges),
               Correction(edge_ids=np.empty(0, dtype=np.int64)))
