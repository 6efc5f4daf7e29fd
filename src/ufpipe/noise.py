"""Phenomenological noise sampling.

Every edge of the decoding graph fails independently with probability p.
A trial draws the gaps between consecutive failed edges rather than one
number per edge: each gap is geometric with parameter p (the memoryless
distribution of the number of edges up to and including the next failure),
and their cumulative sums are the ascending failed-edge ids. A trial thus
costs O(|E| p) draws instead of O(|E|), as in Stim's sparse sampling
(Gidney, arXiv:2103.02202).

Sampling is counter based: trial t of a run draws from a Philox4x64-10
stream keyed by the seed with counter block t, so (seed, trial_index)
fully determines the pattern and trials can be farmed out to workers in
any order. The kernel draws a trial in one call (`uf_sample`), and its
stream is numpy's: the draws equal `numpy.random.Generator(Philox(key=seed,
counter=(0, 0, 0, t))).geometric(p)`, through numpy's own geometric
distribution code, so this module never imports `numpy.random`. A seed is an
integer in [0, 2**128), the key's range, a trial index an integer in
[0, 2**64), the counter block's range, an edge count an integer in
[1, 2**63 - 1), and p lies in [0, 0.5); anything else, a bool included,
raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernel import K, addr, check_integer
from .lattice import DecodingGraph, syndrome_indices_of_edges

_KEYS, _COUNTERS = 2**128, 2**64  # seeds and trial indices lie in [0, these)


@dataclass(frozen=True)
class NoiseParams:
    p: float
    seed: int = 0
    trial_index: int = 0

    def __post_init__(self):
        _check_p(self.p)
        check_integer(self.seed, "seed", 0, _KEYS)
        check_integer(self.trial_index, "trial_index", 0, _COUNTERS)


def _check_p(p) -> float:
    """`p` as a float; ValueError unless it lies in [0, 0.5), NaN and bools excluded."""
    try:
        in_range = not isinstance(p, (bool, np.bool_)) and 0.0 <= p < 0.5
    except TypeError:  # a string, None, a complex number: no order with floats
        in_range = False
    if not in_range:
        raise ValueError(f"edge error probability must be in [0, 0.5), got {p}")
    return float(p)


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


def sample_error(graph: DecodingGraph, noise: NoiseParams) -> ErrorPattern:
    ids = TrialSampler(graph.n_edges, noise.p, noise.seed).sample(noise.trial_index)
    return ErrorPattern(edge_ids=ids, n_edges=graph.n_edges)


class TrialSampler:
    """The failed-edge ids of trial after trial of one (n_edges, p, seed).

    `sample(t)` is one kernel call that writes the ascending ids into a
    scratch buffer of n_edges entries that the sampler owns, and returns a
    copy of them. It gives exactly what `sample_error` gives for the same
    (seed, trial_index), which samples through a sampler of its own. Two
    threads may sample at once with a sampler each, not with one.
    """

    def __init__(self, n_edges: int, p: float, seed: int):
        # below 2**63 - 1, so that the kernel's gap clip n_edges + 1 fits int64
        self.n_edges = check_integer(n_edges, "n_edges", 1, 2**63 - 1)
        self.p = _check_p(p)
        self.seed = check_integer(seed, "seed", 0, _KEYS)
        self._key = (self.seed & (2**64 - 1), self.seed >> 64)
        self._buf = np.empty(self.n_edges, dtype=np.int64)
        self._addr = addr(self._buf)

    def sample(self, trial_index: int) -> np.ndarray:
        n = K.uf_sample(*self._key, check_integer(trial_index, "trial_index", 0, _COUNTERS),
                        self.p, self.n_edges, self._addr)
        return self._buf[:n].copy()


def syndrome_of(graph: DecodingGraph, err: ErrorPattern) -> Syndrome:
    defects = syndrome_indices_of_edges(graph, err.edge_ids)
    return Syndrome(defects=defects, length=graph.n_internal)
