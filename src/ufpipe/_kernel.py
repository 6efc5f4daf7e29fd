"""The compiled kernel `_ufkernel.c`: its build, its ctypes bindings and the
conversion of id arrays for it.

Build cache: importing this module compiles the kernel once with
`cc -O2 -shared -fPIC` in a subprocess, linking numpy's static distribution
library `libnpyrandom.a` (see `link_args`), into
`__pycache__/_ufkernel-<sha256 of the source and the library><interpreter's
extension suffix>` next to the source, and loads it with `ctypes`. Later
imports load the cached file without running `cc`. An import that builds the
kernel then removes the other `_ufkernel-*` builds with the same suffix,
which older versions of the source left. A missing or failing compiler, or a
numpy without the library, raises ImportError.

ctypes releases the interpreter lock for every kernel call, so two threads
may call the kernel at once; every function that allocates scratch memory
allocates its own.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_ufkernel.c")
# found from numpy's directory, not through numpy.random, whose import would
# cost every process that imports ufpipe about 3 MiB
_ARCHIVE = os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")


class GraphView(ctypes.Structure):
    """`uf_graph` of `_ufkernel.c`, field for field: the kernel's only
    description of a decoding graph, owned by the `DecodingGraph` and read by
    every kernel function. `row_stride` is the number of vertices per STM
    row; the pointers are the addresses of the graph's int32 arrays
    `adj_start`, `adj_edge`, `adj_far`, `edges_u` and `edges_v`."""

    _fields_ = [(name, ctypes.c_int64) for name in ("n_internal", "n_edges", "left", "row_stride")]
    _fields_ += [(name, ctypes.c_void_p) for name in ("adj_start", "adj_edge", "adj_far", "eu", "ev")]


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
    cmd = ["cc", "-O2", "-shared", "-fPIC", "-o", tmp, source, *link_args()]
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
    """Where the build of the kernel source `source` is cached."""
    h = hashlib.sha256()
    for path in (source, _archive()):
        with open(path, "rb") as f:
            h.update(f.read())
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
    ("uf_peel", _I64, [_PTR, _PTR, _I64, _PTR]),
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
NO_MEMORY = -(2**63)  # INT64_MIN: a kernel function could not allocate its scratch
_BYTES = ctypes.c_char * 0
_INT64 = np.dtype(np.int64)


def addr(a: np.ndarray) -> int:
    """Address of the data of a writable, C-contiguous array."""
    return ctypes.addressof(_BYTES.from_buffer(a))


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
    written or made writable. uint64 ids past 2**63 wrap negative."""
    a = integer_ids(ids, what)
    if a.dtype == _INT64:
        try:
            return a, addr(a)
        except TypeError:  # read-only or not C-contiguous
            pass
    a = a.astype(np.int64)
    return a, addr(a)
