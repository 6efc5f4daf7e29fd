import gc
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufpipe.lattice import LatticeParams, build_decoding_graph, syndrome_indices_of_edges
from ufpipe.noise import (
    ErrorPattern,
    NoiseParams,
    Syndrome,
    TrialSampler,
    sample_error,
    syndrome_of,
)
from ufpipe._kernel import LEFT_SIDE, RIGHT_SIDE
from ufpipe.uf_core import (
    ClusterSet,
    ClusterTree,
    Correction,
    Decoder,
    InvariantViolation,
    SpanningForest,
    assess,
    peel,
    spanning_forest,
)


@pytest.fixture(scope="module")
def g3():
    return build_decoding_graph(LatticeParams(3))


@pytest.fixture(scope="module")
def g5():
    return build_decoding_graph(LatticeParams(5))


_GRAPHS = {d: build_decoding_graph(LatticeParams(d)) for d in (3, 5)}


def syn_of(g, defects):
    return Syndrome(defects=np.asarray(sorted(defects), dtype=np.int64), length=g.n_internal)


def edge_between(g, u, w):
    for e, far in g.neighbors(u):
        if far == w:
            return e
    raise AssertionError(f"no edge {u}-{w}")


# -- find ----------------------------------------------------------------


def test_find_singleton(g3):
    cs = ClusterSet(g3)
    assert cs.find(4) == 4


def test_find_compresses_short_chain(g3):
    cs = ClusterSet(g3)
    cs.parent[0] = 1
    cs.parent[1] = 2
    assert cs.find(0) == 2
    assert cs.parent[0] == 2


def test_find_compression_cap_five(g3):
    # chain 0 -> 1 -> ... -> 7; only the last 5 visited vertices repoint
    cs = ClusterSet(g3)
    for i in range(7):
        cs.parent[i] = i + 1
    assert cs.find(0) == 7
    assert cs.parent[0] == 1
    assert cs.parent[1] == 2
    for i in range(2, 7):
        assert cs.parent[i] == 7


def test_find_preserves_partition(g3):
    cs = Decoder(g3).grow([g3.vertex_id(1, 0, 0), g3.vertex_id(1, 2, 1)])
    before = {v: cs.find(v) for v in range(g3.n_internal)}
    after = {v: cs.find(v) for v in range(g3.n_internal)}
    assert before == after


def test_find_table_reads(g3):
    # 1 read at a root, 2 at depth 1 (nothing repointed), len(path) + 1
    # deeper, where only the last 5 path vertices are repointed
    cs = ClusterSet(g3)
    for i in range(8):
        cs.parent[i] = i + 1  # chain 0 -> 1 -> ... -> 8
    assert cs.find(0) == 8 and cs.table_reads == 9
    assert cs.parent[:8].tolist() == [1, 2, 3, 8, 8, 8, 8, 8]
    for v, reads in ((8, 1), (7, 2), (1, 4)):
        before = cs.table_reads
        assert cs.find(v) == 8
        assert cs.table_reads - before == reads
    assert cs.parent[:8].tolist() == [1, 8, 8, 8, 8, 8, 8, 8]


# -- union ---------------------------------------------------------------


def test_union_weighted(g3):
    cs = ClusterSet(g3)
    cs.size[2] = 3
    cs.size[9] = 5
    assert cs.union(2, 9) == 9
    assert cs.find(2) == 9
    assert cs.size[9] == 8


def test_union_tie_smaller_root(g3):
    cs = ClusterSet(g3)
    assert cs.union(4, 9) == 4
    assert cs.union(11, 10) == 10
    # a vertex with no member list wins the tie against a one-vertex odd
    # cluster, as growth seeds a defect
    cs = ClusterSet(g3)
    cs.parity[5] = 1
    cs.union(5, 5)
    assert cs.union(5, 3) == 3
    assert cs.members == {3: [3, 5]}


def test_union_parity_xor(g3):
    cs = ClusterSet(g3)
    cs.parity[4] = 1
    cs.parity[9] = 1
    r = cs.union(4, 9)
    assert cs.parity[r] == 0
    cs2 = ClusterSet(g3)
    cs2.parity[4] = 1
    r = cs2.union(4, 9)
    assert cs2.parity[r] == 1


# -- growth --------------------------------------------------------------


def test_grow_empty(g3):
    cs = Decoder(g3).grow([])
    assert not cs.members
    assert cs.passes == 0


def test_grow_adjacent_pair_one_pass(g3):
    u = g3.vertex_id(1, 1, 0)
    w = g3.vertex_id(1, 1, 1)
    cs = Decoder(g3).grow([u, w])
    assert cs.passes == 1
    (r,) = cs.members
    assert cs.size[r] == 2
    assert cs.parity[r] == 0
    assert cs.growth_steps[r] == 1
    assert cs.edge_state[edge_between(g3, u, w)] == 2
    # surrounding half-edges are half grown, nothing else completed
    assert all(cs.edge_state[e] < 2 for e, _ in g3.neighbors(u) if _ != w)


def test_grow_sparser_pair_two_passes(g5):
    u = g5.vertex_id(2, 0, 1)
    m = g5.vertex_id(2, 1, 1)
    w = g5.vertex_id(2, 2, 1)
    cs = Decoder(g5).grow([u, w])
    (r,) = cs.members
    assert cs.growth_steps[r] == 2
    assert cs.find(m) == r


def test_grow_boundary_single(g3):
    v = g3.vertex_id(1, 1, 0)
    cs = Decoder(g3).grow([v])
    assert cs.passes == 2
    (r,) = cs.members
    assert cs.boundary_sides[r]
    assert cs.parity[r] == 1  # still odd, frozen by the boundary
    assert cs.size[r] == 6    # absorbed its five internal neighbors
    assert cs.growth_steps[r] == 2


def test_grow_invariant_even_or_boundary(g5):
    for t in range(200):
        err = sample_error(g5, NoiseParams(p=0.04, seed=11, trial_index=t))
        cs = Decoder(g5).grow(syndrome_of(g5, err).defects)
        for r in cs.members:
            assert cs.parity[r] == 0 or cs.boundary_sides[r]
        assert set(cs.members) == {cs.find(v) for v in cs.touched_v}
        joined = [v for ms in cs.members.values() for v in ms]
        assert sorted(joined) == sorted(cs.touched_v)
        for r, ms in cs.members.items():
            assert all(cs.find(v) == r for v in ms)


def test_grow_records_each_roots_smallest_member_and_each_vertexs_grown_slots(g5):
    # what the forest reads instead of rescanning: every root's `low`, and a
    # `grown` bit per CSR slot of a fully grown edge between internal
    # vertices, cleared by the next growth (one decoder for all trials)
    dec, n = Decoder(g5), g5.n_internal
    for p, t in itertools.product((0.02, 0.1, 0.45), range(40)):
        err = sample_error(g5, NoiseParams(p=p, seed=5, trial_index=t))
        cs = dec.grow(syndrome_of(g5, err).defects)
        assert {r: cs.low[r] for r in cs.members} == {r: min(ms) for r, ms in cs.members.items()}
        for v in range(n):
            s = g5.adj_start[v]
            want = sum(1 << (j - s) for j in range(s, g5.adj_start[v + 1])
                       if cs.edge_state[g5.adj_edge[j]] == 2 and g5.adj_far[j] < n)
            assert cs.grown[v] == want


# -- spanning forest -----------------------------------------------------


def test_forest_two_vertex_cluster(g3):
    u = g3.vertex_id(1, 1, 0)
    w = g3.vertex_id(1, 1, 1)
    cs = Decoder(g3).grow([u, w])
    forest = spanning_forest(g3, cs)
    assert len(forest.trees) == 1
    assert len(forest.trees[0].edges) == 1


def test_forest_tree_sizes_and_determinism(g5):
    for t in range(100):
        err = sample_error(g5, NoiseParams(p=0.03, seed=3, trial_index=t))
        syn = syndrome_of(g5, err)
        cs = Decoder(g5).grow(syn.defects)
        f1 = spanning_forest(g5, cs)
        for tree in f1.trees:
            assert len(tree.edges) == tree.n_vertices - (0 if tree.boundary else 1)
        cs2 = Decoder(g5).grow(syn.defects)
        f2 = spanning_forest(g5, cs2)
        assert [t1.edges for t1 in f1.trees] == [t2.edges for t2 in f2.trees]


def test_forest_rejects_odd_unfrozen_cluster(g3):
    cs = ClusterSet(g3)
    cs.parity[5] = 1
    cs.union(5, 5)
    with pytest.raises(InvariantViolation):
        spanning_forest(g3, cs)


def test_forest_rejects_boundary_flag_without_grown_boundary_edge(g3):
    # the flags are writable views: a side set by hand has no entry edge
    cs = Decoder(g3).grow([g3.vertex_id(1, 1, 0), g3.vertex_id(1, 1, 1)])
    (root,) = cs.members
    cs.boundary_sides[root] = LEFT_SIDE
    with pytest.raises(InvariantViolation, match="has 0 edges, expected 2"):
        spanning_forest(g3, cs)


def test_forest_enters_two_sided_cluster_from_left_in_edge_order(g3):
    # five defects fill column 0 and both ends of column 1 of layer 1: one
    # cluster of size 5 after the first pass; the second pass grows the
    # LEFT edges of all of column 0 and the RIGHT edges of both corners
    defects = [g3.vertex_id(1, r, 0) for r in range(3)]
    defects += [g3.vertex_id(1, 0, 1), g3.vertex_id(1, 2, 1)]
    cs = Decoder(g3).grow(sorted(defects))
    (root,) = cs.members
    assert cs.boundary_sides[root] == LEFT_SIDE | RIGHT_SIDE
    grown_left = sorted(e for e, _ in g3.neighbors(g3.left) if cs.edge_state[e] == 2)
    assert len(grown_left) == 3
    (tree,) = spanning_forest(g3, cs).trees
    assert tree.start_vertex == g3.left
    assert tree.edges[0] == (grown_left[0], g3.vertex_id(1, 0, 0), g3.left)
    entries = [e for e, _, parent in tree.edges if parent == g3.left]
    assert entries == sorted(entries)
    assert all(w < g3.n_internal for _, w, _ in tree.edges)
    assert len(tree.edges) == cs.size[root]


@pytest.mark.parametrize("d", [5, 11])
def test_boundary_tree_enters_once_from_its_smallest_member_grown_to_its_side(d):
    # reference from the edge states: the smallest member with a fully grown
    # edge to the tree's start vertex; its DFS reaches the whole cluster
    g = _GRAPHS.get(d) or build_decoding_graph(LatticeParams(d))
    dec = Decoder(g)
    for p, t in itertools.product((0.05, 0.2, 0.45), range(15)):
        err = sample_error(g, NoiseParams(p=p, seed=d, trial_index=t))
        cs = dec.grow(syndrome_of(g, err).defects)
        members = cs.members
        for tree in spanning_forest(g, cs).trees:
            if tree.boundary:
                s = tree.start_vertex
                assert s == (g.left if cs.boundary_sides[tree.root] & LEFT_SIDE else g.right)
                u, e = min((u, e) for u in members[tree.root] for e, w in g.neighbors(u)
                           if w == s and cs.edge_state[e] == 2)
                assert [x for x in tree.edges if x[2] == s] == [(e, u, s)] == tree.edges[:1]


def test_forest_leaves_parent_table_and_reads_unchanged(g5):
    boundary_trees = 0
    for t in range(60):
        err = sample_error(g5, NoiseParams(p=0.05, seed=29, trial_index=t))
        cs = Decoder(g5).grow(syndrome_of(g5, err).defects)
        parent, reads = cs.parent.tolist(), cs.table_reads
        forest = spanning_forest(g5, cs)
        assert cs.parent.tolist() == parent and cs.table_reads == reads
        boundary_trees += sum(tree.boundary for tree in forest.trees)
    assert boundary_trees > 0


# -- peeling -------------------------------------------------------------


def test_peel_single_edge(g3):
    # one tree edge whose leafward endpoint is the only defect; the flip is
    # absorbed by the boundary entry point
    v = g3.vertex_id(1, 1, 0)
    e = edge_between(g3, v, g3.left)
    tree = ClusterTree(root=v, start_vertex=g3.left, edges=[(e, v, g3.left)],
                       n_vertices=1, boundary=True)
    corr = peel(SpanningForest.of_trees([tree]), syn_of(g3, [v]))
    assert list(corr.edge_ids) == [e]


def test_peel_path_defects_at_ends(g3):
    # hand-peeled: v1 - v2 - v3 with defects at v1 and v3 yields both edges
    v1 = g3.vertex_id(1, 0, 0)
    v2 = g3.vertex_id(1, 1, 0)
    v3 = g3.vertex_id(1, 2, 0)
    e1 = edge_between(g3, v1, v2)
    e2 = edge_between(g3, v2, v3)
    tree = ClusterTree(root=v1, start_vertex=v1,
                       edges=[(e1, v2, v1), (e2, v3, v2)], n_vertices=3, boundary=False)
    corr = peel(SpanningForest.of_trees([tree]), syn_of(g3, [v1, v3]))
    assert sorted(corr.edge_ids) == sorted([e1, e2])


def test_peel_even_cluster_no_defects(g3):
    v1 = g3.vertex_id(1, 0, 0)
    v2 = g3.vertex_id(1, 1, 0)
    e1 = edge_between(g3, v1, v2)
    tree = ClusterTree(root=v1, start_vertex=v1, edges=[(e1, v2, v1)], n_vertices=2,
                       boundary=False)
    corr = peel(SpanningForest.of_trees([tree]), syn_of(g3, []))
    assert corr.weight == 0


def test_peel_leftover_defect_raises(g3):
    v1 = g3.vertex_id(1, 0, 0)
    v2 = g3.vertex_id(1, 1, 0)
    e1 = edge_between(g3, v1, v2)
    tree = ClusterTree(root=v1, start_vertex=v1, edges=[(e1, v2, v1)], n_vertices=2,
                       boundary=False)
    with pytest.raises(InvariantViolation):
        peel(SpanningForest.of_trees([tree]), syn_of(g3, [v1]))


@pytest.mark.parametrize("defects,message", [
    ([4, 5, 2**32 + 4], "lies in no tree"),  # used to wrap to 4 as int32: decoded as [4, 5]
    ([-1, 4, 5], "lies in no tree"),         # used to be dropped
    ([4, 5, 10**9], "lies in no tree"),      # used to allocate a 1 GB scratch
    ([4, 5, 0], "lies in no tree"),          # a vertex outside every cluster
    ([4, 5, 18], "lies in no tree"),         # LEFT, a virtual entry point
    ([4, 5, 5], "repeats"),
    (np.array([4.0, 5.0]), "integer"),
])
def test_peel_rejects_a_syndrome_that_is_not_the_forests(g3, defects, message):
    forest = spanning_forest(g3, Decoder(g3).grow([4, 5]))
    assert list(peel(forest, Syndrome(defects=[4, 5], length=g3.n_internal)).edge_ids) == [7]
    with pytest.raises(ValueError, match=message):
        peel(forest, Syndrome(defects=defects, length=g3.n_internal))


@pytest.mark.parametrize("record", [
    [1, 0, 0, 0, 1, 0, 1000000, 0],  # tree edge counts past k: peel read past the record
    [1, 1, 0, 0, 2, 0, 2, 1, 7, 1, 0],  # tree edge counts past k, within the record
    [1, 2, 0, 0, 3, 0, 1, 1, 7, 1, 0, 8, 2, 1],  # tree edge counts short of k
    [-1, 2],  # m < 0, of the length m and k give
    [1, -1, 0, 0, 1],  # k < 0, likewise
    [1, 0, 0, -5, 1, 0, 0, 0],  # a negative start vertex: peel wrote before its scratch
    [1, 1, 0, 0, 2, 0, 1, 1, 7, -3, 0],  # a negative leafward vertex
    [1, 1, 0, 0, 2, 0, 1, 1, -7, 1, 0],  # a negative edge id
    [],  # no m or k: raised IndexError
    [[1, 0]],  # 2-D: raised TypeError
])
def test_forest_rejects_a_record_peel_cannot_read(record):
    record = np.array(record, dtype=np.int32)
    message = ("must be >= 0 and its tree edge counts must sum" if record.ndim == 1 and record.size
               else "a forest record is a 1-D int32 array of at least 2 entries")
    with pytest.raises(ValueError, match=message):
        SpanningForest(record)


# -- decode / assess -----------------------------------------------------


def test_decode_zero_syndrome(g3):
    corr, stats = Decoder(g3).decode(syn_of(g3, []))
    assert corr.weight == 0
    assert stats.m == 0


def test_decode_every_single_edge_d3(g3):
    dec = Decoder(g3)
    for e in range(g3.n_edges):
        err = ErrorPattern(edge_ids=np.array([e], dtype=np.int64), n_edges=g3.n_edges)
        corr, stats = dec.decode(syndrome_of(g3, err))
        out = assess(g3, err, corr, stats)
        assert out.success, f"single edge {e} failed"


def test_decode_two_pairs(g5):
    a1, a2 = g5.vertex_id(0, 0, 0), g5.vertex_id(0, 0, 1)
    b1, b2 = g5.vertex_id(4, 4, 3), g5.vertex_id(4, 4, 2)
    corr, stats = Decoder(g5).decode(syn_of(g5, [a1, a2, b1, b2]))
    assert stats.m == 2
    assert sorted(stats.sizes) == [2, 2]


def test_assess_trivial(g3):
    empty = ErrorPattern(edge_ids=np.empty(0, dtype=np.int64), n_edges=g3.n_edges)
    out = assess(g3, empty, Correction(edge_ids=np.empty(0, dtype=np.int64)))
    assert out.success
    e = np.array([edge_between(g3, g3.vertex_id(1, 1, 0), g3.vertex_id(1, 1, 1))])
    err = ErrorPattern(edge_ids=e, n_edges=g3.n_edges)
    out = assess(g3, err, Correction(edge_ids=e.copy()))
    assert out.success


def test_assess_complementary_chain_fails(g3):
    # error on the LEFT boundary edge, corrected through the RIGHT side:
    # the residual closes a full left-right chain, a logical operator
    v0 = g3.vertex_id(1, 1, 0)
    v1 = g3.vertex_id(1, 1, 1)
    e_left = edge_between(g3, v0, g3.left)
    err = ErrorPattern(edge_ids=np.array([e_left], dtype=np.int64), n_edges=g3.n_edges)
    corr = Correction(edge_ids=np.array(sorted([
        edge_between(g3, v0, v1), edge_between(g3, v1, g3.right)]), dtype=np.int64))
    out = assess(g3, err, corr)
    assert not out.success


def test_assess_rejects_uncancelled_syndrome(g3):
    e = np.array([edge_between(g3, g3.vertex_id(1, 1, 0), g3.vertex_id(1, 1, 1))])
    err = ErrorPattern(edge_ids=e, n_edges=g3.n_edges)
    with pytest.raises(InvariantViolation):
        assess(g3, err, Correction(edge_ids=np.empty(0, dtype=np.int64)))


# -- randomized properties ------------------------------------------------


@pytest.mark.parametrize("d,p,trials", [(3, 0.05, 300), (5, 0.05, 200)])
def test_correction_cancels_syndrome(d, p, trials):
    g = build_decoding_graph(LatticeParams(d))
    dec = Decoder(g)
    for t in range(trials):
        err = sample_error(g, NoiseParams(p=p, seed=101, trial_index=t))
        corr, stats = dec.decode(syndrome_of(g, err))
        assess(g, err, corr, stats)  # raises if the syndrome is not cancelled
        # correction lives on fully grown cluster edges
        assert all(dec.cs.edge_state[e] == 2 for e in corr.edge_ids)


def test_low_weight_errors_corrected_d5(g5):
    rng = np.random.default_rng(9)
    dec = Decoder(g5)
    singles = [np.array([e]) for e in range(g5.n_edges)]
    pairs = [np.sort(rng.choice(g5.n_edges, size=2, replace=False)) for _ in range(400)]
    for ids in singles + pairs:
        err = ErrorPattern(edge_ids=ids.astype(np.int64), n_edges=g5.n_edges)
        corr, stats = dec.decode(syndrome_of(g5, err))
        out = assess(g5, err, corr, stats)
        assert out.success, f"weight-{len(ids)} error {ids} failed"


def logical_failures(g, errors):
    """The errors, each a sequence of edge ids, whose decode fails."""
    dec = Decoder(g)
    failed = []
    for ids in errors:
        err = ErrorPattern(edge_ids=np.array(ids, dtype=np.int64), n_edges=g.n_edges)
        corr, _ = dec.decode(syndrome_of(g, err))
        if not assess(g, err, corr).success:
            failed.append(ids)
    return failed


def test_every_error_of_weight_at_most_two_d5_and_sampled_weight_three_d7_is_corrected():
    # all 40,755 errors of weight 1 or 2 at d=5, and about 10,000 seeded
    # weight-3 errors at d=7: none of weight at most (d - 1) / 2 may fail. A
    # growth that lets a cluster touching only RIGHT keep growing still
    # cancels every syndrome, yet fails 6,525 of the d=5 errors.
    n = _GRAPHS[5].n_edges
    errors = [(e,) for e in range(n)] + list(itertools.combinations(range(n), 2))
    assert len(errors) == 40755
    assert logical_failures(_GRAPHS[5], errors) == []
    g7 = build_decoding_graph(LatticeParams(7))
    draws = np.sort(np.random.default_rng(3).integers(0, g7.n_edges, size=(10000, 3)), axis=1)
    triples = draws[(draws[:, 0] < draws[:, 1]) & (draws[:, 1] < draws[:, 2])].tolist()
    assert len(triples) > 9900
    assert logical_failures(g7, triples) == []


def test_decode_deterministic(g5):
    dec = Decoder(g5)
    for t in range(50):
        err = sample_error(g5, NoiseParams(p=0.03, seed=77, trial_index=t))
        syn = syndrome_of(g5, err)
        c1, s1 = dec.decode(syn)
        c2, s2 = dec.decode(syn)
        assert np.array_equal(c1.edge_ids, c2.edge_ids)
        assert s1 == s2


def wilson_interval(k, n, z=1.96):
    """Wilson score interval of a binomial rate k / n (95% at z = 1.96)."""
    centre = (k + z * z / 2) / (n + z * z)
    half = z * math.sqrt(k * (n - k) / n + z * z / 4) / (n + z * z)
    return centre - half, centre + half


def failure_interval(d, p, trials=4000, seed=11):
    g = build_decoding_graph(LatticeParams(d))
    dec, smp = Decoder(g), TrialSampler(g.n_edges, p, seed)
    failures = 0
    for t in range(trials):
        err = ErrorPattern(edge_ids=smp.sample(t), n_edges=g.n_edges)
        corr, _ = dec.decode(syndrome_of(g, err))
        failures += not assess(g, err, corr).success
    return wilson_interval(failures, trials)


def test_larger_distance_wins_below_threshold_and_loses_above():
    # the decoder must decode, not only cancel the syndrome: well below the
    # threshold (near p = 2.4% here) d=7 fails less often than d=3, and well
    # above it more often, each with non-overlapping 95% intervals
    lo3, hi3 = failure_interval(3, 0.01)
    lo7, hi7 = failure_interval(7, 0.01)
    assert hi7 < lo3
    lo3, hi3 = failure_interval(3, 0.03)
    lo7, hi7 = failure_interval(7, 0.03)
    assert hi3 < lo7


# -- input validation and graph ownership of adjacency --------------------


@pytest.mark.parametrize("defects", [
    [-1, 4],                        # negative id: growth used to loop forever
    [3, 3],                         # duplicate: used to decode as one defect
    [4, 3],                         # not ascending
    np.array([1.0, 2.0]),           # float ids
    [0, 18],                        # past the last internal vertex of d=3
    np.array([[1, 2]]),             # not one-dimensional
])
def test_decode_rejects_bad_defects(g3, defects):
    dec = Decoder(g3)
    good = syn_of(g3, [g3.vertex_id(1, 0, 0), g3.vertex_id(2, 2, 1)])
    expect = dec.decode(good)
    with pytest.raises(ValueError):
        dec.decode(Syndrome(defects=defects, length=g3.n_internal))
    with pytest.raises(ValueError):
        Decoder(g3).grow(defects)
    corr, stats = dec.decode(good)
    assert np.array_equal(corr.edge_ids, expect[0].edge_ids) and stats == expect[1]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), d=st.sampled_from([3, 5]))
def test_any_valid_defect_set_is_corrected(data, d):
    g = _GRAPHS[d]
    defects = sorted(data.draw(st.sets(st.integers(0, g.n_internal - 1), max_size=12)))
    syn = syn_of(g, defects)
    fresh_corr, fresh_stats = Decoder(g).decode(syn)
    assert np.array_equal(syndrome_indices_of_edges(g, fresh_corr.edge_ids), syn.defects)
    # a decoder that saw a rejected input decodes like a fresh one
    used = Decoder(g)
    used.decode(syn_of(g, [0, g.n_internal - 1]))
    bad = data.draw(st.sampled_from([[-1] + defects, defects + [g.n_internal], defects * 2]))
    if bad != defects:  # defects * 2 of an empty set is valid
        with pytest.raises(ValueError):
            used.decode(Syndrome(defects=np.asarray(bad, dtype=np.int64), length=g.n_internal))
    corr, stats = used.decode(syn)
    assert np.array_equal(corr.edge_ids, fresh_corr.edge_ids) and stats == fresh_stats


def test_decoding_survives_freed_graphs():
    # adjacency belongs to the graph, so a graph built where a freed one
    # lived never sees the freed graph's adjacency
    for k in range(40):
        g = build_decoding_graph(LatticeParams((3, 7, 5)[k % 3]))
        err = sample_error(g, NoiseParams(p=0.03, seed=k, trial_index=0))
        syn = syndrome_of(g, err)
        corr, _ = Decoder(g).decode(syn)
        assert np.array_equal(syndrome_indices_of_edges(g, corr.edge_ids), syn.defects)
        del g, err, syn, corr
        gc.collect()
