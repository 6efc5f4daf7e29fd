"""Phenomenological noise sampling.

Every edge of the decoding graph fails independently with probability p.
A trial draws the gaps between consecutive failed edges rather than one
number per edge: each gap is geometric with parameter p (the memoryless
distribution of the number of edges up to and including the next failure),
and their cumulative sums are the ascending failed-edge ids. A trial thus
costs O(|E| p) draws instead of O(|E|), as in Stim's sparse sampling
(Gidney, arXiv:2103.02202).

Sampling is counter based: trial t of a run draws from a Philox stream
keyed by the 64-bit seed with counter block t, so (seed, trial_index)
fully determines the pattern and trials can be farmed out to workers in
any order. A trial index is an integer in [0, 2**64), the counter block's
range; anything else raises ValueError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .lattice import DecodingGraph, syndrome_indices_of_edges


@dataclass(frozen=True)
class NoiseParams:
    p: float
    seed: int = 0
    trial_index: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p < 0.5:
            raise ValueError(f"edge error probability must be in [0, 0.5), got {self.p}")
        _check_trial_index(self.trial_index)


def _check_trial_index(trial_index) -> int:
    """`trial_index` as an int; ValueError unless it is an integer in [0, 2**64)."""
    try:
        trial_index = operator.index(trial_index)
    except TypeError:
        raise ValueError(f"trial_index must be an integer, got {trial_index!r}") from None
    if not 0 <= trial_index < 2**64:
        raise ValueError(f"trial_index must lie in [0, 2**64), got {trial_index}")
    return trial_index


@dataclass
class ErrorPattern:
    """Set of failed edges, stored as an ascending id array."""

    edge_ids: np.ndarray
    n_edges: int

    @property
    def weight(self) -> int:
        return int(self.edge_ids.size)


@dataclass
class Syndrome:
    """Defect vertices (ascending ids) over the internal vertex range."""

    defects: np.ndarray
    length: int

    @property
    def weight(self) -> int:
        return int(self.defects.size)


def trial_generator(seed: int, trial_index: int) -> Generator:
    """Independent generator for one trial; streams are 2^192 apart."""
    counter = np.array([0, 0, 0, _check_trial_index(trial_index)], dtype=np.uint64)
    return Generator(Philox(key=seed, counter=counter))


def sample_error(graph: DecodingGraph, noise: NoiseParams) -> ErrorPattern:
    ids = sample_edge_ids(graph.n_edges, noise.p, noise.seed, noise.trial_index)
    return ErrorPattern(edge_ids=ids, n_edges=graph.n_edges)


def sample_edge_ids(n_edges: int, p: float, seed: int, trial_index: int) -> np.ndarray:
    return _failed_edge_ids(trial_generator(seed, trial_index), n_edges, p)


def _failed_edge_ids(gen: Generator, n_edges: int, p: float) -> np.ndarray:
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


class TrialSampler:
    """Fast path for trial loops: one Philox instance, counter reset per trial.

    Produces exactly the same failed-edge ids as `sample_error` for the same
    (seed, trial_index): both draw geometric gaps through `_failed_edge_ids`
    from the stream with counter block trial_index. Reusing the generator
    saves building a Philox instance per trial.
    """

    def __init__(self, n_edges: int, p: float, seed: int):
        if not 0.0 <= p < 0.5:
            raise ValueError(f"edge error probability must be in [0, 0.5), got {p}")
        self.n_edges = n_edges
        self.p = p
        self.seed = seed
        self._bg = Philox(key=seed)
        self._gen = Generator(self._bg)
        self._start = self._bg.state  # fresh state: empty buffer, no cached word

    def sample(self, trial_index: int) -> np.ndarray:
        self._start["state"]["counter"][:] = (0, 0, 0, _check_trial_index(trial_index))
        self._bg.state = self._start
        return _failed_edge_ids(self._gen, self.n_edges, self.p)


def syndrome_of(graph: DecodingGraph, err: ErrorPattern) -> Syndrome:
    defects = syndrome_indices_of_edges(graph, err.edge_ids)
    return Syndrome(defects=defects, length=graph.n_internal)
