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
[0, 2**64), the counter block's range, and p lies in [0, 0.5); anything else
raises ValueError.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from ._kernel import K, addr
from .lattice import DecodingGraph, syndrome_indices_of_edges


@dataclass(frozen=True)
class NoiseParams:
    p: float
    seed: int = 0
    trial_index: int = 0

    def __post_init__(self):
        _check_p(self.p)
        _check_seed(self.seed)
        _check_trial_index(self.trial_index)


def _check_p(p) -> float:
    """`p` as a float; ValueError unless it lies in [0, 0.5), NaN excluded."""
    if not 0.0 <= p < 0.5:
        raise ValueError(f"edge error probability must be in [0, 0.5), got {p}")
    return float(p)


def _check_integer(value, name: str, bits: int) -> int:
    """`value` as an int; ValueError unless it is an integer in [0, 2**bits)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not 0 <= value < 2**bits:
        raise ValueError(f"{name} must lie in [0, 2**{bits}), got {value}")
    return value


def _check_seed(seed) -> int:
    """`seed` as an int; ValueError unless it is an integer in [0, 2**128)."""
    return _check_integer(seed, "seed", 128)


def _check_trial_index(trial_index) -> int:
    """`trial_index` as an int; ValueError unless it is an integer in [0, 2**64)."""
    return _check_integer(trial_index, "trial_index", 64)


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
    ids = sample_edge_ids(graph.n_edges, noise.p, noise.seed, noise.trial_index)
    return ErrorPattern(edge_ids=ids, n_edges=graph.n_edges)


def sample_edge_ids(n_edges: int, p: float, seed: int, trial_index: int) -> np.ndarray:
    return TrialSampler(n_edges, p, seed).sample(trial_index)


class TrialSampler:
    """The failed-edge ids of trial after trial of one (n_edges, p, seed).

    `sample(t)` is one kernel call that writes the ascending ids into a
    scratch buffer of n_edges entries that the sampler owns, and returns a
    copy of them. It gives exactly what `sample_error` gives for the same
    (seed, trial_index), which samples through a sampler of its own. Two
    threads may sample at once with a sampler each, not with one.
    """

    def __init__(self, n_edges: int, p: float, seed: int):
        self.n_edges = operator.index(n_edges)
        self.p = _check_p(p)
        self.seed = _check_seed(seed)
        self._key = (self.seed & (2**64 - 1), self.seed >> 64)
        self._buf = np.empty(self.n_edges, dtype=np.int64)
        self._addr = addr(self._buf)

    def sample(self, trial_index: int) -> np.ndarray:
        n = K.uf_sample(*self._key, _check_trial_index(trial_index), self.p, self.n_edges,
                        self._addr)
        return self._buf[:n].copy()


def syndrome_of(graph: DecodingGraph, err: ErrorPattern) -> Syndrome:
    defects = syndrome_indices_of_edges(graph, err.edge_ids)
    return Syndrome(defects=defects, length=graph.n_internal)
