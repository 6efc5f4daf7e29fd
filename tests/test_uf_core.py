import dataclasses
import gc
import itertools
import math
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_edges import edge_between, incident
import ufpipe
from ufpipe import uf_core
from ufpipe.lattice import LatticeParams, build_decoding_graph, syndrome_indices_of_edges
from ufpipe.noise import (
    ErrorPattern,
    NoiseParams,
    Syndrome,
    TrialSampler,
    sample_error,
    syndrome_of,
)
from ufpipe._kernel import LEFT_SIDE, PASSES, RIGHT_SIDE
from ufpipe.uf_core import (
    Correction,
    Decoder,
    DecodeStats,
    InvariantViolation,
    assess,
    cluster_stats,
    peel,
    spanning_forest,
)


@pytest.fixture(scope="module")
def g3():
    return build_decoding_graph(LatticeParams(3))


@pytest.fixture(scope="module")
def g5():
    return build_decoding_graph(LatticeParams(5))


_GRAPHS = {d: build_decoding_graph(LatticeParams(d)) for d in (3, 5, 11, 25)}


def syn_of(g, defects):
    return Syndrome(defects=np.asarray(sorted(defects), dtype=np.int64), length=g.n_internal)


def writable(table: np.ndarray) -> np.ndarray:
    """`table`, one of a decoder's read-only views, made writable: the opt-in
    of a test that builds the decoder's tables by hand."""
    table.flags.writeable = True
    return table


# -- find ----------------------------------------------------------------


def test_find_singleton(g3):
    cs = Decoder(g3)
    assert cs.find(4) == 4


def test_find_compresses_short_chain(g3):
    cs = Decoder(g3)
    writable(cs.parent)[0] = 1
    writable(cs.parent)[1] = 2
    assert cs.find(0) == 2
    assert cs.parent[0] == 2


def test_find_compression_cap_five(g3):
    # chain 0 -> 1 -> ... -> 7; only the last 5 visited vertices repoint
    cs = Decoder(g3)
    for i in range(7):
        writable(cs.parent)[i] = i + 1
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
    cs = Decoder(g3)
    for i in range(8):
        writable(cs.parent)[i] = i + 1  # chain 0 -> 1 -> ... -> 8
    assert cs.find(0) == 8 and cs.table_reads == 9
    assert cs.parent[:8].tolist() == [1, 2, 3, 8, 8, 8, 8, 8]
    for v, reads in ((8, 1), (7, 2), (1, 4)):
        before = cs.table_reads
        assert cs.find(v) == 8
        assert cs.table_reads - before == reads
    assert cs.parent[:8].tolist() == [1, 8, 8, 8, 8, 8, 8, 8]


@pytest.mark.parametrize("v", [True, 2.5, np.float64(3.0), "3", None, -1, _GRAPHS[3].n_internal])
def test_find_and_union_take_only_internal_vertex_integers(g3, v):
    # one integer rule for every id Python passes: a bool is not vertex 1,
    # and a float or a string never reaches ctypes
    cs = Decoder(g3)
    for call in (lambda: cs.find(v), lambda: cs.union(v, 4), lambda: cs.union(4, v)):
        with pytest.raises(ValueError, match=r"vertex must be an integer in \[0, 18\)"):
            call()
    assert cs.n_members == 0 and cs.table_reads == 0
    assert cs.find(np.int64(4)) == 4 and cs.union(np.int64(4), np.int32(9)) == 4


# -- union ---------------------------------------------------------------


def test_union_weighted(g3):
    cs = Decoder(g3)
    writable(cs.size)[2] = 3
    writable(cs.size)[9] = 5
    assert cs.union(2, 9) == 9
    assert cs.find(2) == 9
    assert cs.size[9] == 8


def test_union_tie_smaller_root(g3):
    cs = Decoder(g3)
    assert cs.union(4, 9) == 4
    assert cs.union(11, 10) == 10
    # a vertex that is no member yet wins the tie, by its smaller id,
    # against a one-vertex odd cluster, as growth seeds a defect
    cs = Decoder(g3)
    writable(cs.parity)[5] = 1
    cs.union(5, 5)
    assert cs.union(5, 3) == 3
    assert cs.members == {3: [3, 5]}


def test_union_parity_xor(g3):
    cs = Decoder(g3)
    writable(cs.parity)[4] = 1
    writable(cs.parity)[9] = 1
    r = cs.union(4, 9)
    assert cs.parity[r] == 0
    cs2 = Decoder(g3)
    writable(cs2.parity)[4] = 1
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
    assert all(cs.edge_state[e] < 2 for e, _ in incident(g3, u) if _ != w)


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
        parent, reads = cs.parent.tolist(), cs.table_reads
        members, signature = cs.members, cs.signature()
        # members and signature() make no find
        assert cs.parent.tolist() == parent and cs.table_reads == reads
        for r in members:
            assert cs.parity[r] == 0 or cs.boundary_sides[r]
        assert set(members) == {cs.find(v) for v in cs.touched_v}
        joined = [v for ms in members.values() for v in ms]
        assert sorted(joined) == sorted(cs.touched_v)
        for r, ms in members.items():
            assert ms == sorted(ms)
            assert all(cs.find(v) == r for v in ms)
        assert len(signature) == len(members)


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
    cs = Decoder(g3)
    writable(cs.parity)[5] = 1
    cs.union(5, 5)
    with pytest.raises(InvariantViolation):
        spanning_forest(g3, cs)


def test_forest_rejects_boundary_flag_without_grown_boundary_edge(g3):
    # a side set by hand has no entry edge
    cs = Decoder(g3).grow([g3.vertex_id(1, 1, 0), g3.vertex_id(1, 1, 1)])
    (root,) = cs.members
    writable(cs.boundary_sides)[root] = LEFT_SIDE
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
    grown_left = sorted(e for e, _ in incident(g3, g3.left) if cs.edge_state[e] == 2)
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
                u, e = min((u, e) for u in members[tree.root] for e, w in incident(g, u)
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
    # one defect beside LEFT: its tree enters from LEFT through the defect's
    # own edge, the only tree edge whose leafward endpoint holds a defect;
    # the flip is absorbed by the boundary entry point
    v = g3.vertex_id(1, 1, 0)
    e = edge_between(g3, v, g3.left)
    forest = spanning_forest(g3, Decoder(g3).grow([v]))
    assert forest.trees[0].edges[0] == (e, v, g3.left)
    corr = peel(forest, syn_of(g3, [v]))
    assert list(corr.edge_ids) == [e]


def test_peel_path_defects_at_ends(g3):
    # hand-peeled: v1 - v2 - v3 along time, with defects at v1 and v3, lies
    # in one tree and yields both edges
    v1 = g3.vertex_id(0, 0, 0)
    v2 = g3.vertex_id(1, 0, 0)
    v3 = g3.vertex_id(2, 0, 0)
    e1 = edge_between(g3, v1, v2)
    e2 = edge_between(g3, v2, v3)
    forest = spanning_forest(g3, Decoder(g3).grow([v1, v3]))
    (tree,) = forest.trees
    assert {(e1, v2, v1), (e2, v3, v2)} <= set(tree.edges)
    corr = peel(forest, syn_of(g3, [v1, v3]))
    assert sorted(corr.edge_ids) == sorted([e1, e2])


def test_peel_even_cluster_no_defects(g3):
    forest = spanning_forest(g3, Decoder(g3).grow([4, 5]))
    assert [(t.boundary, t.edges) for t in forest.trees] == [(False, [(7, 5, 4)])]
    corr = peel(forest, syn_of(g3, []))
    assert corr.weight == 0


def test_peel_leftover_defect_raises(g3):
    # the even cluster {4, 5} off the boundary, rooted at 4, with one defect
    forest = spanning_forest(g3, Decoder(g3).grow([4, 5]))
    for defects in ([4], [5]):
        with pytest.raises(InvariantViolation, match="leftover defect at non-boundary root 4"):
            peel(forest, syn_of(g3, defects))


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


def test_peel_refuses_a_forest_that_a_later_forest_of_its_decoder_rewrote(g3):
    # a forest views its decoder's record and is valid until the decoder's
    # next accepted growth: after that, `peel` refuses it, whether or not a
    # later forest rewrote the record, and even where the later forest has
    # the same tree and edge counts, whose record the kernel would peel
    dec = Decoder(g3)
    syn = Syndrome(defects=[4, 5], length=g3.n_internal)
    twin = Syndrome(defects=[10, 11], length=g3.n_internal)  # one edge, off the boundary
    first = spanning_forest(g3, dec.grow(syn.defects))
    assert peel(first, syn).edge_ids.tolist() == [7]
    with pytest.raises(ValueError, match="strictly ascending"):
        dec.grow([5, 4])  # a refused growth leaves the forest valid
    assert peel(first, syn).edge_ids.tolist() == [7]
    dec.grow(twin.defects)
    with pytest.raises(ValueError, match="earlier growth of its decoder"):
        peel(first, syn)
    second = spanning_forest(g3, dec)
    assert (second.m, second.k) == (first.m, first.k)
    assert peel(second, twin).weight == 1
    for s in (syn, twin):
        with pytest.raises(ValueError, match="earlier growth of its decoder"):
            peel(first, s)
    # a later forest of the same growth is the same forest
    assert np.array_equal(spanning_forest(g3, dec).record, second.record)
    assert peel(second, twin).weight == 1


def test_cluster_stats_refuses_a_forest_of_another_decode(g3):
    # the statistics pair the decoder's pass count with the forest's
    # columns, so both must come from one growth of one decoder
    dec, other = Decoder(g3), Decoder(g3)
    forest = spanning_forest(g3, dec.grow([4, 5]))
    assert cluster_stats(dec, forest).sizes == (2,)
    with pytest.raises(ValueError, match="another decoder"):
        cluster_stats(other.grow([4, 5]), forest)
    dec.grow([10, 11])
    with pytest.raises(ValueError, match="earlier growth of its decoder"):
        cluster_stats(dec, forest)


def reference_stats(dec, forest):
    """`cluster_stats` built as it once was, one `tolist` of the forest's
    columns, then list slices and `map(bool, ...)`."""
    _, _, sizes, boundary, tree_edges, growth_steps = forest.columns.tolist()
    return DecodeStats(forest.m, tuple(sizes), tuple(growth_steps), tuple(map(bool, boundary)),
                       tuple(tree_edges), int(dec._counts[PASSES]))


@pytest.mark.parametrize("d", [3, 5, 11, 25])
def test_cluster_stats_equal_a_tolist_reference_field_by_field(d):
    # the statistics are one struct read of the record, whose boundary
    # flags are read as bools from the low-order byte of each int32 flag;
    # the values and their types must be the reference's, from forests of no
    # tree up to hundreds (d=25, p=0.02)
    g, dec = _GRAPHS[d], Decoder(_GRAPHS[d])
    seen = set()
    for p in (0, 1e-3, 0.02, 0.2):
        for t in range(8 if d < 25 else 3):
            syn = syndrome_of(g, sample_error(g, NoiseParams(p=p, seed=d, trial_index=t)))
            forest = spanning_forest(g, dec.grow(syn.defects))
            got, ref = cluster_stats(dec, forest), reference_stats(dec, forest)
            for f in dataclasses.fields(DecodeStats):
                a, b = getattr(got, f.name), getattr(ref, f.name)
                assert type(a) is type(b) and a == b, f.name
                if type(a) is tuple:
                    assert [type(x) for x in a] == [type(x) for x in b], f.name
            assert set(map(type, got.sizes + got.growth_steps + got.tree_edges)) <= {int}
            assert set(map(type, got.boundary)) <= {bool}
            seen.add(forest.m)
    assert 0 in seen
    if d == 25:
        assert max(seen) > 300
    # the formats' cache is bounded: a format's size grows with the tree count
    info = uf_core._stats_struct.cache_info()
    assert info.maxsize is not None and 0 < info.currsize <= info.maxsize < 1000


@pytest.fixture(scope="module")
def staged():
    """A d=5 decoder grown on a seeded syndrome, and its forest and correction."""
    g = _GRAPHS[5]
    syn = syndrome_of(g, sample_error(g, NoiseParams(p=0.05, seed=3, trial_index=0)))
    dec = Decoder(g)
    forest = spanning_forest(g, dec.grow(syn.defects))
    return g, dec, forest, syn.defects.copy(), peel(forest, syn).edge_ids.copy()


def test_peel_stages_any_integer_form_and_leaves_it_unchanged(staged):
    # peel copies its defects to the decoder's staging buffer, as grow does,
    # so every integer form peels alike and the caller's array is only read
    g, dec, forest, defects, corr = staged
    assert defects.size > 3 and corr.size > 0
    read_only = defects.copy()
    read_only.flags.writeable = False
    forms = [defects.tolist(), read_only, np.repeat(defects, 2)[::2], defects.astype(np.int32),
             defects.astype(np.uint32), defects.astype(np.uint64)]
    for ids in forms:
        before = np.array(ids, copy=True)
        got = peel(forest, Syndrome(defects=ids, length=g.n_internal))
        assert got.edge_ids.dtype == np.int64 and np.array_equal(got.edge_ids, corr)
        assert np.array_equal(np.asarray(ids), before)
    for empty in (np.array([], np.int64), np.array([]), []):
        assert peel(forest, Syndrome(defects=empty, length=g.n_internal)).weight == 0


def test_peel_refuses_what_it_stages_with_the_texts_it_had(staged):
    # uint64 ids at or above 2**63 wrap negative when staged, and are named
    # as the caller gave them
    g, dec, forest, defects, corr = staged
    n = defects.size
    big = np.array([*defects, 2**63 + 4], np.uint64)
    with pytest.raises(ValueError, match=f"^defect {n} of the syndrome, {2**63 + 4}, lies in no "):
        peel(forest, Syndrome(defects=big, length=g.n_internal))
    top = np.array([2**63, *defects], np.uint64)
    with pytest.raises(ValueError, match=f"^defect 0 of the syndrome, {2**63}, lies in no "):
        peel(forest, Syndrome(defects=top, length=g.n_internal))
    with pytest.raises(ValueError, match="^defect ids must be a 1-D integer sequence"):
        peel(forest, Syndrome(defects=defects.astype(float), length=g.n_internal))
    assert np.array_equal(peel(forest, Syndrome(defects, g.n_internal)).edge_ids, corr)


def test_peel_names_the_first_bad_id_of_more_ids_than_vertices(g3):
    # more ids than internal vertices cannot all be staged: when the first
    # n_internal are every vertex once, the next is the first bad one
    n = g3.n_internal
    forest = spanning_forest(g3, Decoder(g3).grow(np.arange(n)))
    off, again = "lies in no tree of the forest", "repeats an earlier one"
    cases = [
        (np.arange(n + 1), f"defect {n} of the syndrome, {n}, {off}"),
        ([*range(n), 3], f"defect {n} of the syndrome, 3, {again}"),
        ([*range(n), -1, 0], f"defect {n} of the syndrome, -1, {off}"),
        ([0, 1, 1, *range(2, n)], f"defect 2 of the syndrome, 1, {again}"),
        ([0, n + 2, *range(1, n)], f"defect 1 of the syndrome, {n + 2}, {off}"),
    ]
    for ids, message in cases:
        before = np.array(ids, copy=True)
        with pytest.raises(ValueError, match=f"^{message}$"):
            peel(forest, Syndrome(defects=ids, length=n))
        assert np.array_equal(np.asarray(ids), before)
    assert peel(forest, Syndrome(defects=np.arange(n), length=n)).weight == n // 2


def test_stages_interleaved_on_one_decoder_decode_as_a_fresh_decoder(g5):
    # peel, grow, grgen and peel_seeded share the decoder's staging buffer:
    # whatever one staged, the next gives what a fresh decoder gives
    syns = [syndrome_of(g5, sample_error(g5, NoiseParams(p=0.04, seed=29, trial_index=t)))
            for t in range(12)]
    dec = Decoder(g5)
    for t, syn in enumerate(syns):
        other = syns[t - 1]
        fresh = Decoder(g5)
        counts = fresh.grgen(syn.defects)
        fresh_forest = spanning_forest(g5, fresh)
        corr = peel(fresh_forest, syn).edge_ids
        stats = cluster_stats(fresh, fresh_forest)
        if t % 2:
            assert dec.grgen(syn.defects) == counts
        else:
            dec.grow(syn.defects)
        forest = spanning_forest(g5, dec)
        with pytest.raises(ValueError):  # stages other ids, refused
            peel(forest, Syndrome(defects=[*other.defects, g5.n_internal], length=g5.n_internal))
        assert np.array_equal(dec.peel_seeded().edge_ids, corr)
        with pytest.raises(ValueError, match="strictly ascending"):
            dec.grow(other.defects[::-1] if other.defects.size > 1 else [1, 1])
        assert np.array_equal(peel(forest, syn).edge_ids, corr)
        assert np.array_equal(dec.peel_seeded().edge_ids, corr)
        assert cluster_stats(dec, forest) == stats
        if t % 2:
            assert dec.grgen(syn.defects) == counts


def test_peel_seeded_after_a_growth_without_a_forest_finds_no_tree(g3):
    # growth empties the record: the seeded defects of a growth are never
    # peeled on the last growth's forest, even where they lie in its trees
    dec = Decoder(g3)
    spanning_forest(g3, dec.grow(np.arange(g3.n_internal)))
    dec.grow([0, 1])
    assert dec._forest[:2].tolist() == [0, 0]
    with pytest.raises(ValueError, match="defect 0 of the syndrome, 0, lies in no tree"):
        dec.peel_seeded()
    spanning_forest(g3, dec)
    assert dec.peel_seeded().edge_ids.tolist() == [edge_between(g3, 0, 1)]


def test_a_refused_forest_leaves_an_empty_record(g3):
    # the error's detail goes to the scratch, not over the last record
    dec = Decoder(g3)
    spanning_forest(g3, dec.grow([4, 5]))
    writable(dec.size)[9] = 5
    assert dec.union(2, 9) == 9  # a root that is not its cluster's smallest vertex
    writable(dec.parity)[9] = 1
    with pytest.raises(InvariantViolation, match="cluster at root 9 is odd"):
        spanning_forest(g3, dec)
    assert dec._forest[:2].tolist() == [0, 0]
    with pytest.raises(ValueError, match="lies in no tree"):
        dec.peel_seeded()


def run_child(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this checkout's
    package: a kernel that reads a stale record can kill the interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ufpipe.__file__)))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)


# a fresh decoder takes its block from `np.empty`, here freed memory full
# of 0x7f bytes, in which no record was ever written
CHURNED_DECODER = """
import numpy as np
from ufpipe.lattice import LatticeParams, build_decoding_graph
from ufpipe.uf_core import Decoder, InvariantViolation, spanning_forest
g = build_decoding_graph(LatticeParams(3))
size = Decoder(g)._block.size
for fill in range(0x70, 0x80):
    junk = np.full(size, fill, np.uint8)
    del junk
    dec = Decoder(g)
"""


@pytest.mark.parametrize("then", [
    pytest.param("assert dec.peel_seeded().weight == 0", id="fresh"),
    # a refused forest after a real one and an empty growth: the error's
    # detail used to land on the record's header, over the other forest's body
    pytest.param("""
    spanning_forest(g, dec.grow(np.arange(g.n_internal)))
    dec.grow([])
    dec.parity.flags.writeable = True
    dec.parity[5] = 1
    dec.union(5, 5)
    try:
        spanning_forest(g, dec)
        raise AssertionError("an odd cluster off the boundary was spanned")
    except InvariantViolation:
        pass
    try:
        assert dec.peel_seeded().weight == 0
    except ValueError as exc:
        assert "lies in no tree" in str(exc)
    """, id="refused_forest"),
])
def test_peel_seeded_reads_a_whole_record_in_a_fresh_or_refused_decoder(then):
    loop_body = textwrap.indent(textwrap.dedent(then), "    ")
    out = run_child(CHURNED_DECODER + loop_body + "\nprint('ok')")
    assert out.returncode == 0 and out.stdout == "ok\n", (out.returncode, out.stderr)


def test_refused_peels_leave_no_trace(g5):
    # refused peels of every kind end each growth of one decoder; on the
    # next growth's forest every vertex off its trees is still refused, so
    # no mark survived, and each good peel equals a fresh decoder's
    dec = Decoder(g5)
    cleared = 0
    for t in range(40):
        syn = syndrome_of(g5, sample_error(g5, NoiseParams(p=0.05, seed=13, trial_index=t)))
        forest = spanning_forest(g5, dec.grow(syn.defects))
        trees = forest.trees
        on_trees = {w for tree in trees for _, w, _ in tree.edges}
        on_trees |= {tree.start_vertex for tree in trees if not tree.boundary}
        off = sorted(set(range(g5.n_internal)) - on_trees)
        for v in off:
            with pytest.raises(ValueError, match="lies in no tree"):
                peel(forest, syn_of(g5, [v]))
        fresh_corr, fresh_stats = Decoder(g5).decode(syn)
        assert np.array_equal(peel(forest, syn).edge_ids, fresh_corr.edge_ids)
        assert np.array_equal(dec.peel_seeded().edge_ids, fresh_corr.edge_ids)
        assert cluster_stats(dec, forest) == fresh_stats
        refused = [[*syn.defects, off[t % len(off)]], [*syn.defects, *syn.defects[-1:]]]
        for ids in refused if syn.defects.size else refused[:1]:
            with pytest.raises(ValueError):
                peel(forest, Syndrome(defects=ids, length=g5.n_internal))
        # a defect alone at the root of the first tree off the boundary,
        # whose later trees must still be cleared
        inner = [i for i, tree in enumerate(trees) if not tree.boundary]
        if inner:
            cleared += inner[0] < len(trees) - 1
            with pytest.raises(InvariantViolation, match="leftover"):
                peel(forest, syn_of(g5, [trees[inner[0]].start_vertex]))
    assert cleared > 10


def test_forest_records_are_read_only(g3):
    forest = spanning_forest(g3, Decoder(g3).grow([4, 5]))
    for view in (forest.record, forest.columns, forest.edges):
        with pytest.raises(ValueError, match="read-only"):
            view[(0,) * view.ndim] = 10**6
    assert peel(forest, Syndrome(defects=[4, 5], length=g3.n_internal)).edge_ids.tolist() == [7]


# a write into a decoder's table from Python: at d = 5, growth from [3, 4]
# leaves vertex 10 untouched, so the next growth does not reset the root
# written there, and follows it out of the table
WRITTEN_TABLES = """
import numpy as np
from ufpipe.lattice import LatticeParams, build_decoding_graph
from ufpipe.noise import NoiseParams, sample_error, syndrome_of
from ufpipe.uf_core import Decoder
g = build_decoding_graph(LatticeParams(5))
dec = Decoder(g).grow([3, 4])
tables = ("parent", "size", "growth_steps", "low", "parity", "boundary_sides", "grown",
          "edge_state")
refused = []
for name in tables:
    table = getattr(dec, name)
    try:
        table[10] = np.iinfo(table.dtype).max if table.dtype == np.uint8 else 10**8
    except ValueError as exc:
        assert "read-only" in str(exc)
        refused.append(name)
dec.grow([10])
assert refused == list(tables), refused
assert not any(getattr(dec, name).flags.writeable for name in ("_counts", "_tv", "_te", "_log"))
for t in range(20):
    syn = syndrome_of(g, sample_error(g, NoiseParams(p=0.05, seed=3, trial_index=t)))
    (corr, stats), (fresh_corr, fresh_stats) = dec.decode(syn), Decoder(g).decode(syn)
    assert np.array_equal(corr.edge_ids, fresh_corr.edge_ids) and stats == fresh_stats
print("ok")
"""


def test_a_decoders_tables_refuse_writes_from_python():
    out = run_child(WRITTEN_TABLES)
    assert out.returncode == 0 and out.stdout == "ok\n", (out.returncode, out.stderr)


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
        assert all(dec.edge_state[e] == 2 for e in corr.edge_ids)


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


def test_exactly_99_of_the_weight_two_errors_fail_at_d3():
    # the minimal failures at d = 3, where no weight-1 error fails
    # (`test_decode_every_single_edge_d3`): a changed growth rule that still
    # cancels every syndrome moves this count
    g = _GRAPHS[3]
    pairs = list(itertools.combinations(range(g.n_edges), 2))
    assert len(pairs) == 1275
    assert len(logical_failures(g, pairs)) == 99


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


@pytest.mark.parametrize("p", [1e-3, 0.05])
def test_two_threads_decode_on_one_graph_as_they_do_serially(p):
    # the kernel only reads the graph, and every decoder owns its buffers, so
    # two decoders on one graph, one per thread, decode as they do serially
    g = _GRAPHS[25]
    syns = [[syndrome_of(g, sample_error(g, NoiseParams(p=p, seed=seed, trial_index=t)))
             for t in range(16)] for seed in (1, 2)]

    def decode_all(dec, batch):
        out = []
        for syn in batch:
            cs = dec.grow(syn.defects)
            forest = spanning_forest(g, cs)
            corr = peel(forest, syn)
            out.append((corr.edge_ids.tolist(), cluster_stats(cs, forest), cs.signature(),
                        cs.table_reads))
        return out

    serial = [decode_all(Decoder(g), s) for s in syns]
    assert serial[0] != serial[1]
    errors = []

    def worker(i):
        try:
            dec = Decoder(g)
            for _ in range(5):
                if decode_all(dec, syns[i]) != serial[i]:
                    errors.append(i)
        except Exception as exc:  # reported below: an exception in a thread is otherwise lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
