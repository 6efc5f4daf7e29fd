"""Dumps for the standalone kernel driver `kernel_driver.c`, and its output.

    PYTHONPATH=src python tests/kernel_driver.py --d 11 --p 0.02 --seed 1 --trials 2000 DUMP

writes the decoding graph of distance d and the syndromes of trials
0 .. trials - 1 at (p, seed) to DUMP. To profile the kernel with gprof:

    cc -O2 -pg -fno-inline -o kernel_driver tests/kernel_driver.c <link args>
    ./kernel_driver DUMP OUT 20
    gprof -b kernel_driver gmon.out

where the link args are `ufpipe._kernel.link_args()`. The dump takes every
size from the package itself: the graph's arrays in the order of
`GraphView`'s pointer fields, and the offsets of a `ClusterSet`'s buffers
in its block, in the order of `_Ctx`'s.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

import numpy as np

from ufpipe._kernel import GraphView, addr
from ufpipe.lattice import DecodingGraph, LatticeParams, build_decoding_graph
from ufpipe.noise import NoiseParams, sample_error, syndrome_of
from ufpipe.uf_core import ClusterSet

# GraphView's pointer fields that DecodingGraph names otherwise
_GRAPH_ATTRS = {"eu": "edges_u", "ev": "edges_v"}


def _array(a: np.ndarray) -> bytes:
    return np.array([a.itemsize, a.size], dtype=np.int64).tobytes() + a.tobytes()


def write_dump(path, graph: DecodingGraph, defect_lists) -> None:
    """Write `graph` and the decodes of `defect_lists` to `path`."""
    pointers = [name for name, kind in GraphView._fields_ if kind is ctypes.c_void_p]
    cs = ClusterSet(graph)
    base = addr(cs._block)
    buffers = [name for name, kind in cs._ctx._fields_ if name != "g"]
    words = [graph.n_internal, graph.n_edges, graph._view.row_stride, len(pointers)]
    with open(path, "wb") as f:
        f.write(np.array(words, dtype=np.int64).tobytes())
        for name in pointers:
            f.write(_array(getattr(graph, _GRAPH_ATTRS.get(name, name))))
        offsets = [getattr(cs._ctx, name) - base for name in buffers]
        f.write(np.array([len(buffers), cs._block.size, *offsets], dtype=np.int64).tobytes())
        f.write(np.array([len(defect_lists)], dtype=np.int64).tobytes())
        for ids in defect_lists:
            f.write(_array(np.asarray(ids, dtype=np.int64)))


def read_output(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """(forest record, correction) of every decode in the driver's output."""
    data, out, i = Path(path).read_bytes(), [], 0
    while i < len(data):
        (n,) = np.frombuffer(data, np.int64, 1, i)
        record = np.frombuffer(data, np.int32, n, i + 8)
        i += 8 + 4 * int(n)
        (n,) = np.frombuffer(data, np.int64, 1, i)
        out.append((record, np.frombuffer(data, np.int64, n, i + 8)))
        i += 8 + 8 * int(n)
    return out


def trial_defects(graph: DecodingGraph, p: float, seed: int, trials: int) -> list[np.ndarray]:
    noise = (NoiseParams(p=p, seed=seed, trial_index=t) for t in range(trials))
    return [syndrome_of(graph, sample_error(graph, n)).defects for n in noise]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--d", type=int, required=True)
    ap.add_argument("--p", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trials", type=int, required=True)
    ap.add_argument("dump")
    args = ap.parse_args(argv)
    g = build_decoding_graph(LatticeParams(args.d))
    write_dump(args.dump, g, trial_defects(g, args.p, args.seed, args.trials))
    return 0


if __name__ == "__main__":
    sys.exit(main())
