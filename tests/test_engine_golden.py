"""Golden regression test for the Union-Find engine.

The differential tests compare the pipeline model with the engine it runs
on, so a change in the engine's own iteration order (DFS order, boundary
entry order, find/union read counts) passes them unnoticed. This test pins
every output of seeded decodes to a sha256 digest: the correction, the
`DecodeStats`, each tree's root, start vertex and edge list, the growth
`pass_log`, `touched_v`, `touched_e`, and `table_reads` taken right after
`grow`. The inputs come from `sample_error`, so a change of the sampled
stream changes the digests too.
"""

import hashlib
from dataclasses import astuple

import pytest

from ufpipe.lattice import LatticeParams, build_decoding_graph
from ufpipe.noise import NoiseParams, sample_error, syndrome_of
from ufpipe.uf_core import Decoder, cluster_stats, peel, spanning_forest

SEED = 20260418
P_VALUES = (1e-3, 2e-2, 5e-2)
TRIALS = {3: 100, 5: 60, 7: 40, 11: 25}  # per p value
GOLDEN = {
    3: "e59509a3a6c3b6302aaed7ba1a575ba651358cd4959191c81283b94e4bf3c2e6",
    5: "64452700f07e39956af070353733834394f7491e3e67dae91e6271b0df72ae29",
    7: "5f52b30474072ddb931cde9c17999700c55cf1c6be241322fed18a9e81a1a2eb",
    11: "bbce0a4c6a5923be19507451aacb4e4cfd9298ec8f21cefdeb8f47d47cab8490",
}


def engine_digest(d: int) -> str:
    g = build_decoding_graph(LatticeParams(d))
    dec = Decoder(g)
    h = hashlib.sha256()
    for p in P_VALUES:
        for t in range(TRIALS[d]):
            syn = syndrome_of(g, sample_error(g, NoiseParams(p=p, seed=SEED, trial_index=t)))
            cs = dec.grow(syn.defects)
            grow_reads = cs.table_reads
            forest = spanning_forest(g, cs)
            corr = peel(forest, syn)
            record = (
                corr.edge_ids.tolist(),
                astuple(cluster_stats(cs, forest)),
                [(t.root, t.start_vertex, t.edges) for t in forest.trees],
                cs.pass_log,
                cs.touched_v,
                cs.touched_e,
                grow_reads,
            )
            h.update(repr(record).encode())
    return h.hexdigest()


@pytest.mark.parametrize("d", sorted(TRIALS))
def test_engine_outputs_match_golden_digest(d):
    assert engine_digest(d) == GOLDEN[d]
