import math
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox

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


def reference_edge_ids(n_edges, p, seed, trial_index):
    """The sampler's definition in numpy: geometric gaps from the Philox
    stream keyed by `seed` with counter block `trial_index`."""
    counter = np.array([0, 0, 0, trial_index], dtype=np.uint64)
    return _failed_edge_ids(Generator(Philox(key=seed, counter=counter)), n_edges, p)


def _failed_edge_ids(gen, n_edges, p):
    """Ascending ids of the failed edges among n_edges, from geometric gaps.

    Gaps are drawn in batches sized a few standard deviations above the
    expected failure count, so a second batch is rarely needed.
    """
    if p == 0.0:
        return np.empty(0, dtype=np.int64)
    mean = n_edges * p
    batch = int(mean + 4.0 * math.sqrt(mean)) + 8
    gaps = gen.geometric(p, batch)
    # A gap beyond the last edge ends the pattern, so clip it there: for tiny p
    # `geometric` saturates at INT64_MAX and the cumulative sum would wrap.
    np.minimum(gaps, n_edges + 1, out=gaps)
    gaps[0] -= 1  # the first gap counts from edge -1
    ids = gaps.cumsum()
    while ids[-1] < n_edges:  # the batch ended before the last edge
        gaps = gen.geometric(p, batch)
        np.minimum(gaps, n_edges + 1, out=gaps)
        gaps[0] += ids[-1]
        ids = np.concatenate((ids, gaps.cumsum()))
    return ids[: ids.searchsorted(n_edges)]


@pytest.mark.parametrize("d", [3, 11, 25])
@pytest.mark.parametrize("p", [0.0, 5e-324, 1e-20, 1e-3, 0.02, 0.2, 1 / 3, 0.34, 0.45, 0.49])
def test_kernel_sampler_draws_numpys_stream(d, p):
    # p = 0 draws nothing, 5e-324 and 1e-20 saturate the gap, p < 1/3 takes
    # numpy's inversion branch and p >= 1/3 its search branch; the seeds and
    # trial indices cover the key's second word and the counter's top bit
    n_edges = build_decoding_graph(LatticeParams(d)).n_edges
    for seed in (0, 7, 2**64 + 9, 2**128 - 1):
        s = TrialSampler(n_edges, p, seed)
        for t in (0, 1, 2**32 + 5, 2**63 + 1, 2**64 - 1):
            ref = reference_edge_ids(n_edges, p, seed, t)
            assert np.array_equal(s.sample(t), ref), (seed, t)
            assert np.array_equal(sample_edge_ids(n_edges, p, seed, t), ref), (seed, t)


def test_importing_ufpipe_leaves_numpy_random_unimported():
    # numpy.random costs every process that imports it about 3 MiB
    code = ("import sys, ufpipe.lattice, ufpipe.noise, ufpipe.uf_core, ufpipe.microarch; "
            "print('numpy.random' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


def test_two_threads_sample_as_they_do_serially(g11):
    samplers = [TrialSampler(g11.n_edges, 0.02, seed) for seed in (1, 2)]
    trials = range(2000)
    serial = [[s.sample(t) for t in trials] for s in samplers]
    threaded = [None, None]

    def run(i):
        threaded[i] = [samplers[i].sample(t) for t in trials]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
        assert not th.is_alive()
    for a, b in zip(serial, threaded):
        assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


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
    # binomial mean with exact edge count: 3531 * 1e-3 = 3.531, and variance
    # below that mean, so the bound is five standard errors (about 1.2%)
    trials = 5 * 10**4
    s = TrialSampler(g11.n_edges, 1e-3, seed=2024)
    mean = sum(s.sample(t).size for t in range(trials)) / trials
    assert abs(mean - 3.531) < 5 * np.sqrt(3.531 / trials)


@pytest.mark.parametrize("t", [2**63 + 5, 2**64 - 1])
def test_both_sampling_paths_agree_on_trial_indices_past_2_63(g11, t):
    ref = sample_edge_ids(g11.n_edges, 0.3, 7, t)
    assert np.array_equal(TrialSampler(g11.n_edges, 0.3, seed=7).sample(t), ref)
    assert np.array_equal(sample_error(g11, NoiseParams(p=0.3, seed=7, trial_index=t)).edge_ids,
                          ref)
    # neighbouring counter blocks draw other patterns
    assert not np.array_equal(sample_edge_ids(g11.n_edges, 0.3, 7, t - 1), ref)


@pytest.mark.parametrize("t", [-1, 2**64, 1.5])
def test_every_sampling_entry_rejects_a_trial_index_off_the_counter(g11, t):
    s = TrialSampler(g11.n_edges, 0.01, seed=7)
    for sample in (lambda: NoiseParams(p=0.01, seed=7, trial_index=t),
                   lambda: sample_edge_ids(g11.n_edges, 0.01, 7, t),
                   lambda: s.sample(t)):
        with pytest.raises(ValueError, match="trial_index must"):
            sample()


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5, 1.9, "1", None])
def test_every_sampling_entry_rejects_a_seed_off_the_key(g11, seed):
    # a float or string seed used to draw another seed's stream
    for sample in (lambda: NoiseParams(p=0.01, seed=seed),
                   lambda: sample_edge_ids(g11.n_edges, 0.01, seed, 0),
                   lambda: TrialSampler(g11.n_edges, 0.01, seed)):
        with pytest.raises(ValueError, match="seed must"):
            sample()


@pytest.mark.parametrize("p", [-0.1, 0.5, 0.7, 1.0, float("nan"), float("inf"), "0.1", None,
                               0.1 + 0j])
def test_every_sampling_entry_rejects_a_p_off_its_range(g11, p):
    for sample in (lambda: NoiseParams(p=p, seed=7),
                   lambda: sample_edge_ids(g11.n_edges, p, 7, 0),
                   lambda: TrialSampler(g11.n_edges, p, 7)):
        with pytest.raises(ValueError, match=r"edge error probability must be in \[0, 0.5\)"):
            sample()


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
    # the reference's first batch holds 13 gaps here, so every further batch
    # must pick up from the previous batch's last failure
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
