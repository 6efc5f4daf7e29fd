"""The boundary between Python and the compiled kernel `_ufkernel.c`, stated
once: the build (`K`, `CC_FLAGS`, `link_args`, `cache_path`), `BINDINGS`,
`GraphView` (the kernel's `uf_graph`, whose fields are named as the graph's
attributes), the kernel's numbers under its own names (`LEFT_SIDE`,
`RIGHT_SIDE`, the counts slots `N_TOUCHED_V` to `N_COUNTS`,
`FOREST_COLUMNS`, `FOREST_ODD_CLUSTER`, `FOREST_BAD_TREE`,
`PEEL_BAD_DEFECT`, `PEEL_LEFTOVER`, `BAD_EDGE`, `RESIDUAL_SYNDROME`,
`NO_MEMORY`), which `tests/test_kernel_build.py` reads from the C source
with the prototypes `BINDINGS` declares, and the checks of what Python
passes (`check_integer`, `integer_ids`, `int64_ids`, `addr`).

Build cache: importing this module compiles the kernel once with
`cc -O2 -shared -fPIC` (`CC_FLAGS`) in a subprocess, linking numpy's static
distribution library `libnpyrandom.a` (see `link_args`), into
`__pycache__/_ufkernel-<sha256 of the source, the library and the build
flags><interpreter's extension suffix>` next to the source, and loads it with
`ctypes`, so a change to the flags builds the kernel anew. Later imports
load the cached file without running `cc`. An import that builds the kernel
then removes the other `_ufkernel-*` builds with the same suffix, which
older versions of the source or flags left. A missing or failing compiler,
or a numpy without the library, raises ImportError.

ctypes releases the interpreter lock for every kernel call, so two threads
may call the kernel at once, each with a `Decoder` of its own: a decoder's
scratch is its own buffers, and `uf_syndrome` and `uf_assess`, which take
only the shared graph, allocate theirs per call.
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_ufkernel.c")
# found from numpy's directory, not through numpy.random, whose import would
# cost every process that imports ufpipe about 3 MiB
_ARCHIVE = os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")
CC_FLAGS = ("-O2", "-shared", "-fPIC")  # of every cached build; `cache_path` hashes them


class GraphView(ctypes.Structure):
    """`uf_graph` of `_ufkernel.c`, field for field: the kernel's only
    description of a decoding graph, owned by the `DecodingGraph` and read by
    every kernel function. Each field holds the graph's attribute of the same
    name: its sizes, then the addresses of its int32 arrays `adj_start`,
    `adj_edge`, `adj_far`, `edges_u`, `edges_v` and `stm_rows` and of its
    uint8 `edge_slot`. LEFT is vertex n_internal and RIGHT vertex
    n_internal + 1."""

    _fields_ = [(name, ctypes.c_int64) for name in ("n_internal", "n_edges")]
    _fields_ += [(name, ctypes.c_void_p) for name in
                 ("adj_start", "adj_edge", "adj_far", "edges_u", "edges_v", "stm_rows",
                  "edge_slot")]


def _archive() -> str:
    """Path of numpy's static distribution library; ImportError if it is missing."""
    if not os.path.isfile(_ARCHIVE):
        raise ImportError(f"cannot build the Union-Find kernel: numpy's static library "
                          f"{_ARCHIVE} is missing")
    return _ARCHIVE


def link_args() -> list[str]:
    """The arguments `cc` takes after the kernel source, for every build of
    the kernel: numpy's static distribution library, whose symbols stay out of
    the kernel's exports, and the maths library it calls."""
    return [_archive(), "-lm", "-Wl,--exclude-libs,ALL"]


def _build(source: str, target: str) -> None:
    """Compile `source` into the shared object `target`, atomically."""
    import subprocess  # only on a cache miss

    os.makedirs(os.path.dirname(target), exist_ok=True)
    tmp = f"{target}.{os.getpid()}.tmp"
    cmd = ["cc", *CC_FLAGS, "-o", tmp, source, *link_args()]
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise ImportError(f"cannot build the Union-Find kernel: `{' '.join(cmd)}` "
                              f"did not run: {exc}") from exc
        if proc.returncode:
            raise ImportError(f"cannot build the Union-Find kernel: `{' '.join(cmd)}` exited "
                              f"with status {proc.returncode}:\n{proc.stderr}")
        os.replace(tmp, target)  # concurrent builds each replace the file whole
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def cache_path(source: str) -> str:
    """Where the build of the kernel source `source` with `CC_FLAGS` and
    `link_args` is cached."""
    h = hashlib.sha256()
    for path in (source, _archive()):
        with open(path, "rb") as f:
            h.update(f.read())
    h.update("\0".join((*CC_FLAGS, *link_args())).encode())
    digest = h.hexdigest()
    return os.path.join(os.path.dirname(source), "__pycache__",
                        f"_ufkernel-{digest[:16]}{EXTENSION_SUFFIXES[0]}")


def _remove_stale_builds(target: str) -> None:
    """Remove every `_ufkernel-*` build beside `target` with its suffix."""
    cache, name = os.path.split(target)
    for other in os.listdir(cache):
        if other != name and other.startswith("_ufkernel-") and other.endswith(EXTENSION_SUFFIXES[0]):
            try:
                os.remove(os.path.join(cache, other))
            except OSError:  # removed by a concurrent import
                pass


_CTX, _I32, _I64, _PTR = ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p
_U64 = ctypes.c_uint64
BINDINGS = (  # (name, restype, argtypes) of every kernel function Python calls
    ("uf_init", None, [_CTX]),
    ("uf_find", _I32, [_CTX, _I32]),
    ("uf_union", _I32, [_CTX, _I32, _I32]),
    ("uf_grow", _I64, [_CTX, _I64]),
    ("uf_forest", _I64, [_CTX]),
    ("uf_peel", _I64, [_CTX, _I64]),
    ("uf_run_grgen", _I64, [_CTX, _I64]),
    ("uf_run_corr", _I64, [_CTX]),
    ("uf_syndrome", _I64, [_PTR, _PTR, _I64, _PTR]),
    ("uf_assess", _I64, [_PTR, _PTR, _I64, _PTR, _I64]),
    ("uf_sample", _I64, [_U64, _U64, _U64, ctypes.c_double, _I64, _PTR]),
)


def _load_kernel() -> ctypes.CDLL:
    target = cache_path(_SOURCE)
    if not os.path.exists(target):
        _build(_SOURCE, target)
        _remove_stale_builds(target)
    lib = ctypes.CDLL(target)
    for name, restype, argtypes in BINDINGS:
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


K = _load_kernel()
LEFT_SIDE, RIGHT_SIDE = 1, 2  # bits of a cluster's boundary_sides
# slots of a decoder's counts; `Decoder.grgen` returns [PASSES:N_SEEDED]
(N_TOUCHED_V, N_TOUCHED_E, PASSES, TABLE_READS, STM_ROW_READS, MEMBER_SCANS, FES_POPS, N_SEEDED,
 N_FUSED_BOUNDARY, N_COUNTS) = range(10)
FOREST_COLUMNS = 6  # per-tree columns of a forest record
FOREST_ODD_CLUSTER, FOREST_BAD_TREE = -1, -2  # error returns of uf_forest and
PEEL_BAD_DEFECT, PEEL_LEFTOVER = -1, -2  # of uf_peel, their detail in the decoder's scan
BAD_EDGE, RESIDUAL_SYNDROME = -1, 2  # returns of uf_syndrome and uf_assess
NO_MEMORY = -(2**63)  # INT64_MIN: uf_syndrome or uf_assess could not allocate its scratch
_BYTES = ctypes.c_char * 0
_INT64 = np.dtype(np.int64)


def addr(a: np.ndarray) -> int:
    """Address of the data of a writable, C-contiguous array."""
    return ctypes.addressof(_BYTES.from_buffer(a))


def check_integer(value, name: str, lo: int, hi: float) -> int:
    """`value` as an int; ValueError unless it is an integer in [lo, hi).
    A bool is not an integer here, as in `integer_ids`."""
    if (isinstance(value, bool) or not hasattr(type(value), "__index__")
            or not lo <= (n := operator.index(value)) < hi):
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")
    return n


def integer_ids(ids, what: str) -> np.ndarray:
    """`ids` as an array; ValueError unless it is a 1-D integer sequence."""
    a = np.asarray(ids)
    if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise ValueError(
            f"{what} ids must be a 1-D integer sequence, got {a.dtype} of shape {a.shape}")
    return a


def int64_ids(ids, what: str) -> tuple[np.ndarray, int]:
    """`ids`, checked by `integer_ids`, as an int64 array the kernel may
    read, and its address: `ids` itself when it is a writable, C-contiguous
    int64 array, otherwise a copy, so that the caller's array is never
    written or made writable. uint64 ids from 2**63 on wrap negative."""
    a = integer_ids(ids, what)
    if a.dtype == _INT64:
        try:
            return a, addr(a)
        except TypeError:  # read-only or not C-contiguous
            pass
    a = a.astype(np.int64)
    return a, addr(a)
