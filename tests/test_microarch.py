import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_edges import edge_between
from ufpipe.lattice import LatticeParams, build_decoding_graph, syndrome_indices_of_edges
from ufpipe.noise import NoiseParams, Syndrome, sample_error, syndrome_of
from ufpipe.uf_core import Decoder
from ufpipe import microarch
from ufpipe.microarch import (decode_with_pipeline, memory_footprint, stack_overflows,
                              stage_read_estimate)

GRAPHS = {d: build_decoding_graph(LatticeParams(d)) for d in (3, 5, 7, 11, 25)}


def reference_grgen_counts(g, cs):
    """(stm_row_reads, table_reads, fes_pops) as the AccessTrace docstring
    defines them, counted pass by pass from the engine's logs. A vertex's STM
    row is its (layer, row) pair index, computed here from the numbering
    rather than read from the graph's table, which the kernel reads."""
    tv, te, stride = cs.touched_v, cs.touched_e, g.d - 1
    stm_row_reads, table_reads, fes_pops = 0, cs.table_reads, 0
    for n_v, n_e, n_fused in cs.pass_log:
        rows = {v // stride for v in tv[:n_v]} | {int(g.edges_u[e]) // stride for e in te[:n_e]}
        stm_row_reads += len(rows)
        table_reads += n_v
        fes_pops += n_fused
    return stm_row_reads, table_reads, fes_pops


def check_against_oracle(g, syn):
    """Decode with the oracle and the pipeline model; require the same
    correction (ids and dtype), statistics and partition, a correction that
    cancels the syndrome, an access trace that satisfies its defining
    identities, and Gr-Gen counts equal to their Python reference,
    `reference_grgen_counts`.

    Both routes run the same kernel growth, forest and peeling, so this
    checks the read-count bookkeeping, not the decoder: a growth mutant that
    still cancels every syndrome passes it."""
    dec = Decoder(g)
    corr, stats = dec.decode(syn)
    pcorr, state, pstats = decode_with_pipeline(g, syn)
    assert np.array_equal(pcorr.edge_ids, corr.edge_ids)
    assert pcorr.edge_ids.dtype == corr.edge_ids.dtype
    assert pstats == stats
    assert state.cluster_signature() == dec.signature()
    assert np.array_equal(syndrome_indices_of_edges(g, pcorr.edge_ids), syn.defects)
    t = state.trace
    assert t.dfs == sum(stats.sizes)
    assert t.corr == sum(stats.tree_edges)
    assert t.parity_scans == stats.passes + 1
    assert t.grgen == t.parity_scans + t.stm_row_reads + t.table_reads + t.fes_pops
    assert (t.stm_row_reads, t.table_reads, t.fes_pops) == reference_grgen_counts(g, state.cs)
    return state, stats


@pytest.mark.parametrize("d", [3, 5, 7, 11, 25])
@pytest.mark.parametrize("p", [0.001, 0.01, 0.05])
def test_pipeline_matches_oracle_seeded(d, p):
    # at d=25 too, where each STM row holds 24 vertices
    g = GRAPHS[d]
    for t in range(40 if d < 11 else 12 if d < 25 else 4):
        err = sample_error(g, NoiseParams(p=p, seed=2001, trial_index=t))
        check_against_oracle(g, syndrome_of(g, err))


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([3, 5, 7, 11]), p=st.floats(0.0, 0.05),
       seed=st.integers(0, 2**32 - 1), trial=st.integers(0, 2**20))
def test_pipeline_matches_oracle_property(d, p, seed, trial):
    g = GRAPHS[d]
    check_against_oracle(g, syndrome_of(g, sample_error(g, NoiseParams(p, seed, trial))))


@pytest.mark.parametrize("d", [3, 5, 11])
def test_stage_read_estimate_ties_to_dfs_and_corr_traces(d):
    # the DFS engine reads every cluster vertex; the Corr engine pops every
    # tree edge, one fewer than the vertices of a cluster off the boundary
    g = GRAPHS[d]
    for p in (0.001, 0.01, 0.05):
        for t in range(30):
            syn = syndrome_of(g, sample_error(g, NoiseParams(p=p, seed=3003, trial_index=t)))
            _, state, stats = decode_with_pipeline(g, syn)
            est = stage_read_estimate(stats)
            assert state.trace.dfs == est
            assert state.trace.corr == est - sum(not b for b in stats.boundary)


def test_hand_worked_d3_trace():
    # Defects at (layer 1, row 0, col 0) and (layer 1, row 2, col 0), two rows
    # apart; every count below was worked out by hand from the engine state.
    g = GRAPHS[3]
    a, b = g.vertex_id(1, 0, 0), g.vertex_id(1, 2, 0)
    mid = g.vertex_id(1, 1, 0)
    syn = Syndrome(defects=np.array([a, b]), length=g.n_internal)
    corr, state, stats = decode_with_pipeline(g, syn)
    assert sorted(corr.edge_ids) == sorted([edge_between(g, a, mid), edge_between(g, mid, b)])
    # pass 1 half-grows the 5 + 5 edges around the defects; pass 2 completes
    # them, the cluster absorbs 7 vertices and freezes on LEFT
    assert (stats.m, stats.sizes, stats.growth_steps, stats.boundary, stats.tree_edges,
            stats.passes) == (1, (9,), (2,), (True,), (9,), 2)
    t = state.trace
    assert t.parity_scans == 3          # passes + 1
    assert t.stm_row_reads == 2 + 5     # rows {3, 5}, then the edges' filing rows {0, 2, 3, 4, 5}
    assert t.table_reads == (2 + 2) + 37  # 2 members scanned per pass; fusion finds and unions
    assert t.fes_pops == 0 + 10
    assert t.grgen == 3 + 7 + 41 + 10
    assert t.dfs == 9
    assert t.corr == 9
    assert t.reads == 79
    assert stack_overflows(stats, t.corr - 1) == 1  # the one tree pops all 9 edges


def test_overflow_events_at_small_stack_capacity():
    g = GRAPHS[3]
    syn = Syndrome(defects=np.array([g.vertex_id(1, 0, 0), g.vertex_id(1, 2, 0)]),
                   length=g.n_internal)
    stats = decode_with_pipeline(g, syn)[2]
    assert stack_overflows(stats, 9) == 0
    assert stack_overflows(stats, 8) == 1
    g = GRAPHS[7]
    seen = 0
    for t in range(30):
        syn = syndrome_of(g, sample_error(g, NoiseParams(p=0.03, seed=5, trial_index=t)))
        state, stats = check_against_oracle(g, syn)
        # the pipeline's own forest, from the cluster set the decode left
        expect = int(np.count_nonzero(microarch.run_dfs(state).columns[4] > 3))
        assert stack_overflows(stats, 3) == expect
        seen += expect
    assert seen > 0


@pytest.mark.parametrize("capacity", [-1, 2.5, "8", True, False])
def test_pipeline_rejects_a_stack_capacity_no_stack_has(capacity):
    g = GRAPHS[5]
    syn = syndrome_of(g, sample_error(g, NoiseParams(p=0.03, seed=9, trial_index=0)))
    stats = decode_with_pipeline(g, syn)[2]
    with pytest.raises(ValueError, match="stack_capacity must be"):
        stack_overflows(stats, capacity)


@pytest.mark.parametrize("d", [3, 5, 11, 25])
@pytest.mark.parametrize("entries", [None, 0, 64])
def test_memory_footprint_total_is_sum_of_rows(d, entries):
    # one row per physical memory: STM, root and size tables, parity, ZDR
    # and the two edge stacks; their sum is the instance's closed form
    rows = memory_footprint(d, entries)
    assert len(rows) == 7
    log2d = np.log2(d)
    expect = 7 * d**3 + 2 * 3 * d**3 * log2d + d**3 + 3 * d**3 \
        + 2 * 3 * (d**3 if entries is None else entries) * log2d
    assert sum(rows.values()) == pytest.approx(expect)


@pytest.mark.parametrize("d,entries", [(1, None), (2, None), (4, None), (10, 64), (5.0, None),
                                       (5.5, None), (5, -10), (5, 2.5), (5, "8"), (5, True),
                                       (5, False), (True, None)])
def test_memory_footprint_rejects_what_no_decoder_has(d, entries):
    # the distance must be one a decoding graph can have, and a sized stack
    # holds a whole, non-negative number of edges
    with pytest.raises(ValueError):
        memory_footprint(d, entries)


def test_pipeline_stages_are_module_globals():
    # decode_with_pipeline calls its stages through module globals, so a
    # wrapper installed on the module sees every call
    calls = []
    saved = {n: getattr(microarch, n) for n in
             ("new_pipeline_state", "run_grgen", "run_dfs", "run_corr")}

    def wrap(name, fn):
        def inner(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return inner

    try:
        for name, fn in saved.items():
            setattr(microarch, name, wrap(name, fn))
        g = GRAPHS[3]
        decode_with_pipeline(g, Syndrome(defects=np.array([4]), length=g.n_internal))
    finally:
        for name, fn in saved.items():
            setattr(microarch, name, fn)
    assert calls == ["new_pipeline_state", "run_grgen", "run_dfs", "run_corr"]


@pytest.mark.parametrize("d", [3, 5, 11, 25])
def test_worst_case_syndromes_fit_the_kernel_buffers(d):
    # every internal vertex a defect, and at d=11 a p = 0.5 sample: the
    # kernel's fixed-size buffers (fusion edge stack, DFS stack, touched
    # logs, pass log, forest record, bitmaps) are sized for the worst case;
    # at d=25 the vertex bitmap has 235 words, more than 64
    g = GRAPHS[d]
    syns = [Syndrome(defects=np.arange(g.n_internal), length=g.n_internal)]
    if d == 11:
        # the sampler stops below p = 0.5, so draw this one directly
        edges = np.flatnonzero(np.random.default_rng(7).random(g.n_edges) < 0.5)
        syns.append(Syndrome(defects=syndrome_indices_of_edges(g, edges), length=g.n_internal))
    for syn in syns:
        state, stats = check_against_oracle(g, syn)
        assert sum(stats.sizes) == state.trace.dfs


def test_reused_state_matches_a_fresh_decoder_across_graphs():
    # one interleaved sequence over three graphs: every switch of graph
    # builds a new decoder, every repeat resets the reused one
    for k, d in enumerate([3, 11, 5, 5, 3, 11] * 6):
        g = GRAPHS[d]
        syn = syndrome_of(g, sample_error(g, NoiseParams(p=0.03, seed=77, trial_index=k)))
        check_against_oracle(g, syn)


def test_reused_state_after_a_rejected_input():
    # the pipeline refuses what the oracle refuses, with the same text; a
    # refused growth leaves the last accepted decode's state in place, and
    # the reused decoder then decodes as a fresh one does
    g = GRAPHS[5]
    syn = syndrome_of(g, sample_error(g, NoiseParams(p=0.03, seed=9, trial_index=0)))
    dec = Decoder(g)
    pcorr, pstate, _ = decode_with_pipeline(g, syn)
    pcs, pcorr = pstate.cs, pcorr.edge_ids.copy()

    def state(cs):
        return cs.touched_v, cs.pass_log, cs.signature()

    grown = state(dec.grow(syn.defects))
    assert grown[0] and grown[1] and state(pcs) == grown
    n = g.n_internal
    for bad, text in (
        (np.array([1.0, 2.0]), "1-D integer sequence"),
        (np.array([[1, 2]]), "1-D integer sequence"),
        (np.array([-1, 4]), rf"lie in \[0, {n}\), got -1\.\.4"),
        (np.array([3, 3]), "strictly ascending"),
        (np.array([4, 3]), "strictly ascending"),
        (np.array([0, 1, 2, 2]), "strictly ascending"),
        (np.array([0, n]), rf"lie in \[0, {n}\), got 0\.\.{n}"),
        (np.array([5, 2**63 + 1], dtype=np.uint64), r"got 5\.\.9223372036854775809"),
        # more ids than there are vertices, which the kernel refuses unread
        (np.arange(n + 1), rf"lie in \[0, {n}\), got 0\.\.{n}"),
        (np.array([*range(n), n - 1]), "strictly ascending"),
    ):
        with pytest.raises(ValueError, match=text) as oracle:
            Decoder(g).grow(bad)
        with pytest.raises(ValueError, match=text):
            dec.grow(bad)
        assert state(dec) == grown
        with pytest.raises(ValueError) as pipeline:
            decode_with_pipeline(g, Syndrome(defects=bad, length=g.n_internal))
        assert str(pipeline.value) == str(oracle.value)
        assert state(pcs) == grown
        # the Corr engine still peels the last accepted decode's defects
        assert np.array_equal(microarch.run_corr(pstate, microarch.run_dfs(pstate)).edge_ids, pcorr)
        check_against_oracle(g, syn)


def test_pipeline_state_reuses_one_cluster_set_per_graph():
    g3, g5 = GRAPHS[3], GRAPHS[5]
    empty = Syndrome(defects=np.array([], dtype=np.int64), length=0)
    cs = decode_with_pipeline(g3, empty)[1].cs
    assert decode_with_pipeline(g3, empty)[1].cs is cs
    other = decode_with_pipeline(g5, empty)[1].cs
    assert other is not cs and other.graph is g5
    # an equal graph that is another object gets its own decoder
    twin = build_decoding_graph(LatticeParams(5))
    assert decode_with_pipeline(twin, empty)[1].cs.graph is twin
