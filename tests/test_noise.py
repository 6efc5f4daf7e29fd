import signal

import numpy as np
import pytest

from ufpipe.lattice import LatticeParams, build_decoding_graph
from ufpipe.noise import (
    NoiseParams,
    TrialSampler,
    sample_edge_ids,
    sample_error,
    syndrome_of,
)


@pytest.fixture(scope="module")
def g3():
    return build_decoding_graph(LatticeParams(3))


@pytest.fixture(scope="module")
def g11():
    return build_decoding_graph(LatticeParams(11))


def test_zero_probability_empty(g3):
    err = sample_error(g3, NoiseParams(p=0.0, seed=1, trial_index=0))
    assert err.weight == 0


def test_determinism(g3):
    a = sample_error(g3, NoiseParams(p=0.1, seed=42, trial_index=7))
    b = sample_error(g3, NoiseParams(p=0.1, seed=42, trial_index=7))
    assert np.array_equal(a.edge_ids, b.edge_ids)
    c = sample_error(g3, NoiseParams(p=0.1, seed=42, trial_index=8))
    d = sample_error(g3, NoiseParams(p=0.1, seed=43, trial_index=7))
    assert not np.array_equal(a.edge_ids, c.edge_ids) or not np.array_equal(a.edge_ids, d.edge_ids)


def test_trial_sampler_matches_sample_error(g11):
    from ufpipe.noise import TrialSampler

    s = TrialSampler(g11.n_edges, 5e-3, seed=99)
    for t in (0, 1, 17, 40000):
        ref = sample_error(g11, NoiseParams(p=5e-3, seed=99, trial_index=t))
        assert np.array_equal(s.sample(t), ref.edge_ids)


def test_mean_weight_matches_binomial(g11):
    # binomial mean with exact edge count: 3531 * 1e-3 = 3.531
    from ufpipe.noise import TrialSampler

    trials = 10**6
    s = TrialSampler(g11.n_edges, 1e-3, seed=2024)
    total = 0
    for t in range(trials):
        total += s.sample(t).size
    mean = total / trials
    assert abs(mean - 3.531) / 3.531 < 0.05


@pytest.mark.parametrize("p", [1e-20, 1e-3, 2e-2, 0.3, 0.49])
def test_trial_sampler_matches_sample_error_at_any_p(g11, p):
    # out of order and repeated, so each sample must reset the whole stream
    s = TrialSampler(g11.n_edges, p, seed=7)
    for t in (5, 0, 2**40 + 3, 5, 1):
        ref = sample_error(g11, NoiseParams(p=p, seed=7, trial_index=t))
        assert np.array_equal(s.sample(t), ref.edge_ids)


def _sampler_hung(signum, frame):
    raise TimeoutError("the sampler did not return within 30 s")


@pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-20])
def test_tiny_p_returns_promptly(p):
    # `geometric` saturates at INT64_MAX for such p; unclipped, the gap sums
    # wrap negative and the sampler never reaches the last edge
    n_edges = 44425  # d = 25
    s = TrialSampler(n_edges, p, seed=3)
    previous = signal.signal(signal.SIGALRM, _sampler_hung)
    signal.alarm(30)
    try:
        for t in range(50):
            for ids in (s.sample(t), sample_edge_ids(n_edges, p, 3, t)):
                assert ids.dtype == np.int64
                assert ids.size == 0 or (
                    np.all(np.diff(ids) > 0) and ids[0] >= 0 and ids[-1] < n_edges)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_p_near_half(g11):
    s = TrialSampler(g11.n_edges, 0.49, seed=11)
    weights = []
    for t in range(200):
        ids = s.sample(t)
        assert ids.dtype == np.int64
        assert np.all(np.diff(ids) > 0) and ids[0] >= 0 and ids[-1] < g11.n_edges
        weights.append(ids.size)
    mean, sd = 0.49 * g11.n_edges, np.sqrt(g11.n_edges * 0.49 * 0.51)
    assert abs(np.mean(weights) - mean) < 5 * sd / np.sqrt(len(weights))


class ConstantGaps:
    """Stands in for a Generator whose geometric draws are all `gap`."""

    def __init__(self, gap):
        self.gap = gap

    def geometric(self, p, size):
        return np.full(size, self.gap, dtype=np.int64)


@pytest.mark.parametrize("gap", [1, 2, 7])
def test_later_gap_batches_continue_from_the_last_failure(gap):
    # the first batch holds 13 gaps here, so every further batch must pick up
    # from the previous batch's last failure
    from ufpipe.noise import _failed_edge_ids

    ids = _failed_edge_ids(ConstantGaps(gap), 100, 0.01)
    assert np.array_equal(ids, np.arange(gap - 1, 100, gap))


def test_first_and_last_edge_fail_at_rate_p(g11):
    # an off-by-one in the gap -> id mapping starves edge 0 or edge |E| - 1
    p, trials = 0.05, 20000
    s = TrialSampler(g11.n_edges, p, seed=13)
    probe = np.array([0, 1, g11.n_edges - 1])
    hits = np.zeros(probe.size, dtype=np.int64)
    for t in range(trials):
        hits += np.isin(probe, s.sample(t))
    sd = np.sqrt(trials * p * (1 - p))
    assert np.all(np.abs(hits - trials * p) < 5 * sd), hits


def test_weight_mean_and_variance_match_binomial(g11):
    p, trials = 2e-2, 20000
    s = TrialSampler(g11.n_edges, p, seed=17)
    w = np.array([s.sample(t).size for t in range(trials)], dtype=np.float64)
    mean, var = g11.n_edges * p, g11.n_edges * p * (1 - p)
    assert abs(w.mean() - mean) < 5 * np.sqrt(var / trials)
    assert abs(w.var(ddof=1) - var) < 5 * var * np.sqrt(2 / (trials - 1))


def test_syndrome_single_edges(g3):
    # bulk space edge: two defects
    v = g3.vertex_id(1, 1, 0)
    e_bulk, w = next((e, w) for e, w in g3.neighbors(v) if w == g3.vertex_id(1, 1, 1))
    err = _pattern(g3, [e_bulk])
    syn = syndrome_of(g3, err)
    assert sorted(syn.defects) == sorted([v, w])
    # left-boundary edge: one defect
    e_left = next(e for e, w in g3.neighbors(v) if w == g3.left)
    syn = syndrome_of(g3, _pattern(g3, [e_left]))
    assert list(syn.defects) == [v]
    # two bulk edges sharing a vertex: shared vertex cancels
    e_north = edge_between_vertices(g3, v, g3.vertex_id(1, 0, 0))
    syn = syndrome_of(g3, _pattern(g3, [e_bulk, e_north]))
    assert syn.weight == 2
    assert v not in syn.defects


def _pattern(g, ids):
    from ufpipe.noise import ErrorPattern

    return ErrorPattern(edge_ids=np.asarray(sorted(ids), dtype=np.int64), n_edges=g.n_edges)


def edge_between_vertices(g, u, w):
    for e, far in g.neighbors(u):
        if far == w:
            return e
    raise AssertionError


def test_syndrome_linearity(g3):
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = np.flatnonzero(rng.random(g3.n_edges) < 0.1)
        b = np.flatnonzero(rng.random(g3.n_edges) < 0.1)
        sa = syndrome_of(g3, _pattern(g3, a)).defects
        sb = syndrome_of(g3, _pattern(g3, b)).defects
        sx = syndrome_of(g3, _pattern(g3, np.setxor1d(a, b))).defects
        assert np.array_equal(sx, np.setxor1d(sa, sb))


def test_syndrome_weight_parity(g3):
    rng = np.random.default_rng(6)
    for _ in range(100):
        ids = np.flatnonzero(rng.random(g3.n_edges) < 0.15)
        syn = syndrome_of(g3, _pattern(g3, ids))
        n_boundary = int(np.sum(g3.edges_v[ids] >= g3.n_internal))
        assert syn.weight % 2 == n_boundary % 2


def test_bad_params():
    with pytest.raises(ValueError):
        NoiseParams(p=0.5)
    with pytest.raises(ValueError):
        NoiseParams(p=-0.1)
