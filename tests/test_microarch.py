import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufpipe.lattice import LatticeParams, build_decoding_graph, syndrome_indices_of_edges
from ufpipe.noise import NoiseParams, Syndrome, sample_error, syndrome_of
from ufpipe.uf_core import Decoder
from ufpipe import microarch
from ufpipe.microarch import decode_with_pipeline, memory_footprint, stage_read_estimate

GRAPHS = {d: build_decoding_graph(LatticeParams(d)) for d in (3, 5, 7, 11)}


def edge_between(g, u, w):
    for e, far in g.neighbors(u):
        if far == w:
            return e
    raise AssertionError(f"no edge {u}-{w}")


def check_against_oracle(g, syn, stack_capacity=None):
    """Decode with the oracle and the pipeline model; require them to agree
    and the access trace to satisfy its defining identities."""
    dec = Decoder(g)
    corr, stats = dec.decode(syn)
    pcorr, state, pstats = decode_with_pipeline(g, syn, stack_capacity)
    assert np.array_equal(pcorr.edge_ids, corr.edge_ids)
    assert pstats == stats
    assert state.cluster_signature() == dec.cs.signature()
    assert np.array_equal(syndrome_indices_of_edges(g, pcorr.edge_ids), syn.defects)
    t = state.trace
    assert t.dfs == sum(stats.sizes)
    assert t.corr == sum(stats.tree_edges)
    assert t.parity_scans == stats.passes + 1
    assert t.grgen == t.parity_scans + t.stm_row_reads + t.table_reads + t.fes_pops
    return state, stats


@pytest.mark.parametrize("d", [3, 5, 7, 11])
@pytest.mark.parametrize("p", [0.001, 0.01, 0.05])
def test_pipeline_matches_oracle_seeded(d, p):
    g = GRAPHS[d]
    for t in range(40 if d < 11 else 12):
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
    assert state.overflow_events == 0


def test_overflow_events_at_small_stack_capacity():
    g = GRAPHS[3]
    syn = Syndrome(defects=np.array([g.vertex_id(1, 0, 0), g.vertex_id(1, 2, 0)]),
                   length=g.n_internal)
    assert decode_with_pipeline(g, syn, stack_capacity=9)[1].overflow_events == 0
    assert decode_with_pipeline(g, syn, stack_capacity=8)[1].overflow_events == 1
    g = GRAPHS[7]
    seen = 0
    for t in range(30):
        syn = syndrome_of(g, sample_error(g, NoiseParams(p=0.03, seed=5, trial_index=t)))
        state, stats = check_against_oracle(g, syn, stack_capacity=3)
        expect = sum(n > 3 for n in stats.tree_edges)
        assert state.overflow_events == expect
        seen += expect
    assert seen > 0


@pytest.mark.parametrize("d", [3, 5, 11, 25])
@pytest.mark.parametrize("entries", [None, 0, 64])
def test_memory_footprint_total_is_sum_of_rows(d, entries):
    fp = memory_footprint(d, entries)
    rows = fp.rows()
    assert fp.total_bits == sum(bits for _, bits in rows)
    assert fp.total_bytes == fp.total_bits / 8
    names = [name for name, _ in rows]
    assert len(names) == len(set(names)) == 7
    log2d = np.log2(d)
    expect = 7 * d**3 + 2 * 3 * d**3 * log2d + d**3 + 3 * d**3 \
        + 2 * 3 * (d**3 if entries is None else entries) * log2d
    assert fp.total_bits == pytest.approx(expect)


@pytest.mark.parametrize("d,entries", [(1, None), (2, None), (4, None), (10, 64), (5, -10)])
def test_memory_footprint_rejects_what_no_decoder_has(d, entries):
    # the distance must be one a decoding graph can have, and a sized stack
    # cannot hold a negative number of edges
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
