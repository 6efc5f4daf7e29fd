import ctypes
import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_edges import incident
from ufpipe._kernel import GraphView
from ufpipe.lattice import (MAX_DISTANCE, DecodingGraph, LatticeParams, build_decoding_graph,
                            syndrome_indices_of_edges)
from ufpipe.noise import ErrorPattern
from ufpipe.uf_core import Correction, InvariantViolation, assess

# the kernel's bitmaps have 235 words at d=25, more than the 64 bits of one
# word, against at most 19 at d <= 11
SYNDROME_GRAPHS = {d: build_decoding_graph(LatticeParams(d)) for d in (3, 5, 25)}


@pytest.fixture(scope="module")
def g3():
    return build_decoding_graph(LatticeParams(3))


@pytest.fixture(scope="module")
def g5():
    return build_decoding_graph(LatticeParams(5))


def brute_counts(d):
    # count from first principles, independently of the graph build: per
    # layer, one horizontal edge per (row, horizontal slot) including the
    # two boundary slots, plus an in-plane vertical edge per interior gap.
    verts = sum(1 for _l in range(d) for _r in range(d) for _c in range(d - 1))
    horiz = sum(1 for _l in range(d) for _r in range(d) for _slot in range(d))
    vert = sum(1 for _l in range(d) for _r in range(d - 1) for _c in range(d - 1))
    time = sum(1 for _g in range(d - 1) for _r in range(d) for _c in range(d - 1))
    return verts, horiz + vert, time


# sha256 over each array's name, dtype and bytes, in this order: the
# numbering every decode, digest and access count rests on
GRAPH_ARRAYS = ("edges_u", "edges_v", "adj_start", "adj_edge", "adj_far")
GRAPH_DIGESTS = {
    3: "3c6b4ff853fbdf74de16651ba903126ab4eb26e6bd049f3f3f453ca62335fd7e",
    5: "2be9c76448933bb506135ce648b866b99c7b8ecd5a36091cf9087c73f5dc7675",
    11: "0c5accfb95a18a706123789796ee31ab889386bdb91f335d66f9b94af0d2df64",
    25: "3bcaab08e731b1865922589bcc5161869dd5b2436fa92fb35b965ec47e0b4d6b",
}


@pytest.mark.parametrize("d", sorted(GRAPH_DIGESTS))
def test_graph_arrays_are_pinned(d):
    g = build_decoding_graph(LatticeParams(d))
    h = hashlib.sha256()
    for name in GRAPH_ARRAYS:
        a = getattr(g, name)
        h.update(name.encode())
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    assert h.hexdigest() == GRAPH_DIGESTS[d]


def test_d3_counts(g3):
    assert g3.n_internal == 18
    assert g3.n_space_edges == 39
    assert g3.n_edges - g3.n_space_edges == 12
    assert g3.n_edges == 51


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11])
def test_counts_match_brute_force(d):
    verts, space, time = brute_counts(d)
    g = build_decoding_graph(LatticeParams(d))
    assert g.n_internal == verts
    assert g.n_space_edges == space
    assert g.n_edges - g.n_space_edges == time
    assert g.n_edges == space + time


def test_d11_vertex_count():
    g = build_decoding_graph(LatticeParams(11))
    assert g.n_internal == 1210
    assert g.n_edges == 3531


def test_bulk_degree_six(g3):
    d = g3.d
    for layer in range(1, d - 1):
        for row in range(1, d - 1):
            for col in range(d - 1):
                nb = incident(g3, g3.vertex_id(layer, row, col))
                assert len(nb) == 6
                time = [e >= g3.n_space_edges for e, _ in nb]
                assert time.count(False) == 4
                assert time.count(True) == 2


def test_neighbors_boundary_and_top_layer(g5):
    d = g5.d
    v = g5.vertex_id(2, 2, 0)
    far = [w for _, w in incident(g5, v)]
    assert far.count(g5.left) == 1
    v_top = g5.vertex_id(d - 1, 2, 2)
    nb = incident(g5, v_top)
    assert len(nb) == 5  # no Up edge above the last layer
    # W, E, N, S in the last layer, then Down to the layer below
    assert [w for _, w in nb] == [v_top - 1, v_top + 1, v_top - (d - 1), v_top + (d - 1),
                                  g5.vertex_id(d - 2, 2, 2)]


def test_neighbors_involutive(g5):
    # every CSR entry (v, e, w) has its mirror (w, e, v), and each edge has two
    near = np.repeat(np.arange(g5.n_internal + 2), np.diff(g5.adj_start))
    entries = set(zip(near.tolist(), g5.adj_edge.tolist(), g5.adj_far.tolist()))
    assert len(entries) == 2 * g5.n_edges
    assert {(w, e, v) for v, e, w in entries} == entries


@pytest.mark.parametrize("d", [3, 5])
def test_edge_slot_locates_each_edge_in_its_ends_neighbors(d):
    # growth sets bit edge_slot[e] of edges_u[e]'s grown-slot mask and bit
    # edge_slot[n_edges + e] of edges_v[e]'s; the DFS maps a bit back to the CSR slot
    g = SYNDROME_GRAPHS[d]
    assert g.edge_slot.dtype == np.uint8 and g.edge_slot.size == 2 * g.n_edges
    assert not g.edge_slot.flags.writeable
    at_u, at_v = g.edge_slot[:g.n_edges], g.edge_slot[g.n_edges:]
    for e in range(g.n_edges):
        u, v = int(g.edges_u[e]), int(g.edges_v[e])
        assert incident(g, u)[at_u[e]] == (e, v)
        if v < g.n_internal:
            assert incident(g, v)[at_v[e]] == (e, u)
        else:
            assert at_v[e] == 0xFF


@pytest.mark.parametrize("d", [3, 5, 11, 25])
def test_internal_vertices_have_at_most_six_edges_and_one_to_the_boundary(d):
    # a vertex's grown slots fit one uint8 mask, and the forest takes at most
    # one boundary entry per vertex from the list of fused boundary edges
    g = build_decoding_graph(LatticeParams(d))
    n = g.n_internal
    degree = np.diff(g.adj_start[:n + 1])
    assert degree.max() == 6 and degree.min() >= 3
    assert np.bincount(g.edges_u[g.edges_v >= n], minlength=n).max() == 1


def test_graph_fields_cannot_be_rebound(g3):
    # the kernel reads each array at the address the graph's view took when
    # it was built: a rebound array would be freed under that view
    view = g3.kernel_view
    for name in ("edges_u", "edges_v", "adj_start", "adj_edge", "adj_far", "edge_slot",
                 "stm_rows"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g3, name, getattr(g3, name).copy())
    assert g3.kernel_view == view
    # graphs compare and hash by identity
    twin = build_decoding_graph(LatticeParams(3))
    assert g3 == g3 and g3 != twin and len({g3, twin, g3}) == 2


@pytest.mark.parametrize("d", [3, 5])
def test_a_graph_is_built_from_its_lattice_params_alone(d):
    # arrays handed to the graph reached the kernel unchecked: int64 edge
    # endpoints, or `dataclasses.replace` with an int64 adj_start, made the
    # first growths read out of bounds and crash the interpreter
    assert build_decoding_graph is DecodingGraph
    g, built = DecodingGraph(LatticeParams(d)), build_decoding_graph(LatticeParams(d))
    fields = {f.name: getattr(g, f.name) for f in dataclasses.fields(g)}
    for name, a in fields.items():
        b = getattr(built, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable
        else:
            assert type(a) is int and a == b
    # the kernel's view holds every size and the address of every array
    for name, kind in GraphView._fields_:
        a = getattr(g, name)
        assert getattr(g._view, name) == (a if kind is ctypes.c_int64 else a.ctypes.data)
    wide = {"edges_u": g.edges_u.astype(np.int64), "edges_v": g.edges_v.astype(np.int64)}
    with pytest.raises(TypeError):
        DecodingGraph(**{**fields, **wide})
    with pytest.raises(TypeError):
        dataclasses.replace(g, adj_start=g.adj_start.astype(np.int64))
    for params in (d, {"d": d}, None):
        with pytest.raises(TypeError, match="built from a LatticeParams"):
            DecodingGraph(params)


def test_invalid_distance():
    # a float distance used to pass, and fail later in the graph build
    for d in (4, 1, 5.0, 5.5, "5", None):
        with pytest.raises(ValueError, match="odd integer >= 3"):
            LatticeParams(d)


def test_vertex_indexing():
    # ids run over (layer, row, col) in row-major order, one STM row per
    # (layer, row), at every distance tier-1 builds: Gr-Gen files each vertex
    # and each edge under the row this table gives its vertex
    for d in range(3, 27, 2):
        g = build_decoding_graph(LatticeParams(d))
        cells = [(layer, row, col)
                 for layer in range(d) for row in range(d) for col in range(d - 1)]
        assert [g.vertex_id(*cell) for cell in cells] == list(range(g.n_internal))
        assert g.stm_rows.dtype == np.int32 and not g.stm_rows.flags.writeable
        assert g.stm_rows.tolist() == [layer * d + row for layer, row, _ in cells]


def test_max_distance_is_the_largest_whose_csr_fits_int32():
    # the largest graph: its CSR offsets, which exceed every vertex id and
    # STM row, fit int32, and the next distance's would not
    def csr_entries(d):
        return 2 * (d**3 + 2 * d * (d - 1) ** 2)

    assert [csr_entries(d) for d in (3, 5)] == [
        2 * build_decoding_graph(LatticeParams(d)).n_edges for d in (3, 5)]
    assert csr_entries(MAX_DISTANCE) <= 2**31 - 1 < csr_entries(MAX_DISTANCE + 2)
    LatticeParams(MAX_DISTANCE)
    with pytest.raises(ValueError, match=f"<= {MAX_DISTANCE}"):
        LatticeParams(MAX_DISTANCE + 2)


def row_chain(g, layer, row):
    """Edge ids of the full LEFT-to-RIGHT horizontal chain in one row."""
    d = g.d
    chain = []
    v = g.vertex_id(layer, row, 0)
    for e, w in incident(g, v):
        if w == g.left:
            chain.append(e)
    for col in range(d - 2):
        u = g.vertex_id(layer, row, col)
        for e, w in incident(g, u):
            if w == g.vertex_id(layer, row, col + 1):
                chain.append(e)
    u = g.vertex_id(layer, row, d - 2)
    for e, w in incident(g, u):
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
    for e, w in incident(g, a):
        if w in (b, c):
            out.append(e)
    for e, w in incident(g, d_):
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
@given(data=st.data(), d=st.sampled_from([3, 5, 25]))
def test_syndrome_matches_bincount_reference(data, d):
    # arbitrary edge-id arrays: empty, repeated ids, and boundary-heavy sets
    g = SYNDROME_GRAPHS[d]
    boundary = [e for e, _ in incident(g, g.left) + incident(g, g.right)]
    any_edge = st.integers(0, g.n_edges - 1)
    ids = data.draw(st.lists(st.one_of(any_edge, st.sampled_from(boundary)), max_size=80))
    edge_ids = np.asarray(ids, dtype=np.int64)
    ends = np.concatenate((g.edges_u[edge_ids], g.edges_v[edge_ids]))
    ref = np.flatnonzero(np.bincount(ends, minlength=g.n_internal + 2)[: g.n_internal] & 1)
    got = syndrome_indices_of_edges(g, edge_ids)
    assert got.dtype == np.int64
    assert np.array_equal(got, ref)
    assert np.array_equal(syndrome_indices_of_edges(g, ids), ref)  # a plain list too


@pytest.mark.parametrize("bad", [[-1], [51], [0, 2, -7], [2**40], [2**63]])
def test_syndrome_rejects_edge_ids_off_the_graph(g3, bad):
    # -1 used to read the last edge's endpoints; n_edges raised IndexError
    with pytest.raises(ValueError, match=r"\[0, 51\)"):
        syndrome_indices_of_edges(g3, np.array(bad))
    with pytest.raises(ValueError):
        assess(g3, ErrorPattern(edge_ids=np.array(bad), n_edges=g3.n_edges),
               Correction(edge_ids=np.empty(0, dtype=np.int64)))


@pytest.mark.parametrize("bad", [np.array([7.9]), [7.0], np.array([7, 8.5]), np.array([True]),
                                 [False, True], np.array([[7]])])
def test_syndrome_and_assess_reject_non_integer_edge_ids(g3, bad):
    # a float id used to be truncated: [7.9] read as edge 7
    with pytest.raises(ValueError, match="1-D integer sequence"):
        syndrome_indices_of_edges(g3, bad)
    none = np.empty(0, dtype=np.int64)
    for err, corr in ((bad, none), (none, bad)):
        with pytest.raises(ValueError, match="1-D integer sequence"):
            assess(g3, ErrorPattern(edge_ids=err, n_edges=g3.n_edges), Correction(edge_ids=corr))


def boundary_edges(g):
    return [e for e, _ in incident(g, g.left) + incident(g, g.right)]


def zero_syndrome_sets(g):
    """Left-to-right row chains (logical) and square cycles (trivial)."""
    d = g.d
    return ([row_chain(g, l, r) for l in range(d) for r in range(d)]
            + [square_cycle(g, l, r, c) for l in range(d) for r in range(d - 1)
               for c in range(d - 2)])


ZERO_SYNDROME_SETS = {d: zero_syndrome_sets(g) for d, g in SYNDROME_GRAPHS.items()}


def assess_reference(g, err_ids, corr_ids):
    """`assess` as first defined, for duplicate-free id arrays: the residual
    by `setxor1d`, its syndrome by `bincount`, then its LEFT-incident count.
    None when the residual's syndrome is not zero."""
    residual = np.setxor1d(err_ids, corr_ids, assume_unique=True)
    ends = np.concatenate((g.edges_u[residual], g.edges_v[residual]))
    if (np.bincount(ends, minlength=g.n_internal + 2)[: g.n_internal] & 1).any():
        return None
    return int(np.count_nonzero(g.edges_v[residual] == g.left) & 1)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.sampled_from([3, 5, 25]), cancel=st.booleans())
def test_assess_matches_setxor_reference(data, d, cancel):
    # cancelling pairs: corr is err XOR some chains and cycles; otherwise an
    # unrelated set, which almost never cancels; both boundary heavy
    g = SYNDROME_GRAPHS[d]
    edge = st.one_of(st.integers(0, g.n_edges - 1), st.sampled_from(boundary_edges(g)))
    err = data.draw(st.sets(edge, max_size=40))
    if cancel:
        corr = set(err)
        for s in data.draw(st.lists(st.sampled_from(ZERO_SYNDROME_SETS[d]), max_size=4)):
            corr ^= set(s)
    else:
        corr = data.draw(st.sets(edge, max_size=40))
    e, c = (np.array(data.draw(st.permutations(sorted(x))), dtype=np.int64) for x in (err, corr))
    want = assess_reference(g, e, c)
    if cancel:
        assert want is not None
    err_p, corr_p = ErrorPattern(edge_ids=e, n_edges=g.n_edges), Correction(edge_ids=c)
    if want is None:
        with pytest.raises(InvariantViolation):
            assess(g, err_p, corr_p)
    else:
        assert assess(g, err_p, corr_p).success == (want == 0)


def test_syndrome_and_assess_see_defects_that_only_second_endpoints_reach():
    # two edges from one vertex a to two other bitmap words: a cancels, and
    # each defect is reached only as an edge's second endpoint (edges_v)
    g = SYNDROME_GRAPHS[25]
    internal = g.edges_v < g.n_internal
    for a in range(63, g.n_internal, 64):  # the last vertex of each word
        by_word = {int(g.edges_v[e]) >> 6: int(e)
                   for e in np.flatnonzero(internal & (g.edges_u == a))}
        by_word.pop(a >> 6, None)
        if len(by_word) >= 2:
            break
    e1, e2 = list(by_word.values())[:2]
    assert np.array_equal(syndrome_indices_of_edges(g, [e1, e2]),
                          sorted(int(g.edges_v[e]) for e in (e1, e2)))
    with pytest.raises(InvariantViolation):
        assess(g, ErrorPattern(edge_ids=np.array([e1]), n_edges=g.n_edges),
               Correction(edge_ids=np.array([e2], dtype=np.int64)))

def read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


INPUT_FORMS = {
    "list": lambda a: a.tolist(),
    "read-only": read_only,
    "slice": lambda a: np.repeat(a, 2)[::2],  # int64, not C-contiguous
    "int32": lambda a: a.astype(np.int32),
    "uint32": lambda a: a.astype(np.uint32),
}


@pytest.mark.parametrize("form", INPUT_FORMS)
def test_syndrome_and_assess_take_any_integer_form_and_leave_it_unchanged(g5, form):
    # a logical chain, a cycle, a repeated id and three loose edges; the
    # correction cancels the syndrome, and the residual is the chain: a failure
    chain = row_chain(g5, 2, 1)
    loose = [3, 40, boundary_edges(g5)[7]]
    err = np.array(chain + square_cycle(g5, 1, 1, 1) + [40, 40] + loose, dtype=np.int64)
    corr = np.array(loose[::-1] + square_cycle(g5, 1, 1, 1), dtype=np.int64)
    want_syn = syndrome_indices_of_edges(g5, err)
    assert np.array_equal(want_syn, syndrome_indices_of_edges(g5, loose))
    err_f, corr_f = INPUT_FORMS[form](err), INPUT_FORMS[form](corr)
    kept = [np.array(x, copy=True) for x in (err_f, corr_f)]
    got_syn = syndrome_indices_of_edges(g5, err_f)
    assert got_syn.dtype == np.int64 and np.array_equal(got_syn, want_syn)
    out = assess(g5, ErrorPattern(edge_ids=err_f, n_edges=g5.n_edges), Correction(edge_ids=corr_f))
    assert not out.success
    for x, before in zip((err_f, corr_f), kept):
        assert np.array_equal(np.asarray(x), before) and np.asarray(x).dtype == before.dtype
    if form == "read-only":
        assert not err_f.flags.writeable and not corr_f.flags.writeable


def test_two_threads_share_one_graph():
    # scratch memory kept on the graph would mix the two threads' bits; the
    # edge sets are large, so that both threads are often in the kernel at once
    g = build_decoding_graph(LatticeParams(25))
    rng = np.random.default_rng(5)
    chain = np.array(row_chain(g, 3, 4))
    cases = []
    for i, k in enumerate(rng.integers(2000, 20000, 24)):
        err = rng.integers(0, g.n_edges, k)
        corr = (rng.permutation(err), np.concatenate((err, chain)), err[1:])[i % 3]
        cases.append((ErrorPattern(edge_ids=err, n_edges=g.n_edges), Correction(edge_ids=corr)))

    def outcome(err, corr):
        try:
            return assess(g, err, corr).success
        except InvariantViolation:
            return None

    serial = [(syndrome_indices_of_edges(g, e.edge_ids).tolist(), outcome(e, c)) for e, c in cases]
    assert {o for _, o in serial} == {True, False, None}  # every outcome is exercised
    errors = []

    def worker():
        try:
            for _ in range(10):
                for (e, c), want in zip(cases, serial):
                    got = (syndrome_indices_of_edges(g, e.edge_ids).tolist(), outcome(e, c))
                    if got != want:
                        errors.append((e.edge_ids.size, got[1], want[1]))
        except Exception as exc:  # reported below: an exception in a thread is otherwise lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
