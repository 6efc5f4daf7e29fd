"""Growth checked against an order-free specification of what it computes.

After every pass, growth's state depends on no scan or union order: the
clusters are the components of the member vertices (the defects and the
internal ends of fully grown edges) over fully grown internal edges; a
cluster's parity is its defect count mod 2, its boundary sides are the
virtual vertices its fully grown edges reach, and its growth count is the
largest of the clusters it absorbed. `grow_spec` recomputes exactly that
from sets after each pass. It keeps no order, no trees and no union-find
counts, so it pins what growth computes and leaves the kernel free to
reorder its scans and unions.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ufpipe._kernel import LEFT_SIDE, RIGHT_SIDE
from ufpipe.lattice import LatticeParams, build_decoding_graph
from ufpipe.noise import NoiseParams, sample_error, syndrome_of
from ufpipe.uf_core import Decoder

_D = (3, 5, 7, 11)
_GRAPHS = {d: build_decoding_graph(LatticeParams(d)) for d in _D}
_DECODERS = {d: Decoder(g) for d, g in _GRAPHS.items()}
_INCIDENT = {d: np.split(g.adj_edge, g.adj_start[1:-1])[:g.n_internal] for d, g in _GRAPHS.items()}


def grow_spec(d, defects):
    """Growth from the defect vertices `defects` on the graph of distance d,
    as (`Decoder.signature()`, `edge_state`, `passes`).

    Each pass, every odd cluster that reaches no boundary grows each
    incident edge of each of its vertices by one step, an edge between two
    such vertices by two, up to fully grown; then the clusters are
    recomputed from the edge states."""
    g, incident = _GRAPHS[d], _INCIDENT[d]
    n, eu, ev = g.n_internal, g.edges_u.tolist(), g.edges_v.tolist()
    defects = frozenset(defects)
    state = np.zeros(g.n_edges, dtype=np.uint8)
    clusters = {frozenset([v]): (1, 0, 0) for v in defects}  # -> parity, sides, growth count
    passes = 0
    while active := {c for c, (parity, sides, _) in clusters.items() if parity and not sides}:
        passes += 1
        for v in set().union(*active):
            state[incident[v]] += 1
        np.minimum(state, 2, out=state)
        grown = {c: growth + (c in active) for c, (_, _, growth) in clusters.items()}
        links = {v: set() for c in clusters for v in c}
        sides_of = dict.fromkeys(links, 0)
        for e in {int(e) for v in links.copy() for e in incident[v] if state[e] == 2}:
            u, w = eu[e], ev[e]
            if w < n:
                links.setdefault(u, set()).add(w)
                links.setdefault(w, set()).add(u)
            else:
                sides_of[u] |= LEFT_SIDE if w == g.left else RIGHT_SIDE
        clusters, unseen = {}, set(links)
        while unseen:
            comp, frontier = set(), [unseen.pop()]
            while frontier:
                v = frontier.pop()
                comp.add(v)
                frontier += links[v] - comp
            comp = frozenset(comp)
            unseen -= comp
            sides = 0
            for v in comp & sides_of.keys():
                sides |= sides_of[v]
            clusters[comp] = (len(comp & defects) % 2, sides,
                              max((s for c, s in grown.items() if c <= comp), default=0))
    signature = frozenset(
        (np.array(sorted(c), dtype=np.int32).tobytes(), len(c), parity, sides, growth)
        for c, (parity, sides, growth) in clusters.items())
    return signature, state, passes


def check_against_spec(d, defects):
    cs = _DECODERS[d].grow(defects)
    signature, state, passes = grow_spec(d, defects)
    assert cs.passes == passes
    assert np.array_equal(cs.edge_state, state)
    assert cs.signature() == signature


def test_growth_matches_the_order_free_specification_on_seeded_decodes():
    # d = 3 .. 11 and p from sparse to past threshold: isolated defects,
    # merging chains and boundary-frozen clusters
    trials = {3: 60, 5: 50, 7: 30, 11: 15}
    for d, p in itertools.product(_D, (0.005, 0.02, 0.05, 0.1)):
        g = _GRAPHS[d]
        for t in range(trials[d]):
            err = sample_error(g, NoiseParams(p=p, seed=13, trial_index=t))
            check_against_spec(d, syndrome_of(g, err).defects)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), d=st.sampled_from(_D))
def test_growth_matches_the_order_free_specification_on_any_defect_set(data, d):
    n = _GRAPHS[d].n_internal
    check_against_spec(d, sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=20))))
