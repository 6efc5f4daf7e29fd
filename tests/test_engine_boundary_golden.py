"""Golden regression test for boundary-heavy decodes.

`test_engine_golden.py` stops at d <= 11 and p <= 0.05, where few clusters
reach a boundary and none spans the lattice. This test pins the decodes
where the spanning forest's boundary entries, its smallest-vertex order
and its DFS over long fully grown paths do most of the work: d in {5, 25}
and p in {0.05, 0.2, 0.45}. Per decode it digests the whole forest record,
the correction, the `DecodeStats` and `table_reads` taken after the forest
(which makes no find). The correction is digested as plain ints, so its id
dtype is free.
"""

import hashlib
from dataclasses import astuple

import pytest

from ufpipe.lattice import LatticeParams, build_decoding_graph
from ufpipe.noise import NoiseParams, sample_error, syndrome_of
from ufpipe.uf_core import Decoder, cluster_stats, peel, spanning_forest

SEED = 20261019
P_VALUES = (0.05, 0.2, 0.45)
TRIALS = {5: 100, 25: 10}  # per p value
GOLDEN = {
    5: "99ae3b4f63f773035f6ae91c4d57543a766c4d34e74c1f2062c791f5f60e2f24",
    25: "78bf525b85310794fc3614e78f16cd1f61de68eb5eadefdb075392803b3540cd",
}


def boundary_digest(d: int) -> str:
    g = build_decoding_graph(LatticeParams(d))
    dec = Decoder(g)
    h = hashlib.sha256()
    for p in P_VALUES:
        for t in range(TRIALS[d]):
            syn = syndrome_of(g, sample_error(g, NoiseParams(p=p, seed=SEED, trial_index=t)))
            cs = dec.grow(syn.defects)
            forest = spanning_forest(g, cs)
            corr = peel(forest, syn)
            h.update(forest.record.tobytes())
            h.update(repr((corr.edge_ids.tolist(), astuple(cluster_stats(cs, forest)),
                           cs.table_reads)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("d", sorted(TRIALS))
def test_boundary_heavy_decodes_match_golden_digest(d):
    assert boundary_digest(d) == GOLDEN[d]
