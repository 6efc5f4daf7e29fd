"""The Union-Find kernel builds itself on first import, once, with `cc`,
linking numpy's static distribution library, keys its build cache on its
flags too, removes the builds of older sources, compiles without warnings,
runs clean under the undefined-behaviour sanitizer, and has ctypes mirrors of
its structs, and a copy of numpy's `bitgen_t`, that declare their fields in
order, and Python mirrors in `_kernel` of its numbers that hold their values.
The standalone driver `kernel_driver.c`, which profiles the kernel outside
Python, builds and decodes as `uf_core` does.

Each import test copies the package to a temporary directory, so that its
build cache starts cold, and imports it in a subprocess. The build must not
pull in setuptools, distutils or cffi: importing those raises the
benchmark's peak RSS by several MiB.
"""

import ctypes
import os
import re
import shutil
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest

from kernel_driver import read_output, trial_defects, write_dump
from ufpipe import _kernel
from ufpipe._kernel import BINDINGS, GraphView, cache_path, link_args
from ufpipe.lattice import LatticeParams, build_decoding_graph
from ufpipe.noise import Syndrome
from ufpipe.uf_core import Decoder, _Ctx, peel, spanning_forest

PKG = Path(__file__).resolve().parents[1] / "src" / "ufpipe"
HEAVY = ("setuptools", "distutils", "cffi")


def cold_copy(tmp_path):
    shutil.copytree(PKG, tmp_path / "ufpipe", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def env_for(root, path=None):
    env = dict(os.environ, PYTHONPATH=str(root))
    if path is not None:
        env["PATH"] = path
    return env


def run_import(root, code="import ufpipe.uf_core", path=None):
    return subprocess.run([sys.executable, "-c", code], env=env_for(root, path),
                          capture_output=True, text=True, timeout=120)


def cache(root):
    return root / "ufpipe" / "__pycache__"


def kernels(root):
    return sorted(cache(root).glob("_ufkernel-*"))


def test_first_import_builds_then_later_imports_reuse_the_kernel(tmp_path):
    root = cold_copy(tmp_path)
    out = run_import(root, "import sys, ufpipe.uf_core; "
                           f"print([m for m in sys.modules if m.split('.')[0] in {HEAVY!r}])")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[-1] == "[]"
    (so,) = kernels(root)
    assert so.name.endswith(".so")
    mtime = so.stat().st_mtime_ns
    # with no compiler on PATH, only a cached kernel can load
    out = run_import(root, "from ufpipe.uf_core import Decoder", path="")
    assert out.returncode == 0, out.stderr
    assert kernels(root) == [so] and so.stat().st_mtime_ns == mtime


def test_concurrent_cold_imports_both_succeed(tmp_path):
    root = cold_copy(tmp_path)
    procs = [subprocess.Popen([sys.executable, "-c", "import ufpipe.uf_core"], env=env_for(root),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    assert len(kernels(root)) == 1
    assert not list(cache(root).glob("*.tmp"))


def test_a_build_removes_stale_builds_with_its_suffix(tmp_path):
    root = cold_copy(tmp_path)
    cache(root).mkdir()
    stale = cache(root) / f"_ufkernel-0123456789abcdef{EXTENSION_SUFFIXES[0]}"
    other = cache(root) / "_ufkernel-0123456789abcdef.cpython-39-x86_64-linux-gnu.so"
    for path in (stale, other):
        path.write_bytes(b"an old build")
    out = run_import(root)
    assert out.returncode == 0, out.stderr
    assert not stale.exists()
    assert other.exists()  # another interpreter's build
    (so,) = (k for k in kernels(root) if k != other)
    # an import that finds its build in the cache removes nothing
    stale.write_bytes(b"an old build")
    out = run_import(root)
    assert out.returncode == 0, out.stderr
    assert stale.exists() and so.exists()


def test_missing_compiler_raises_import_error_naming_the_command(tmp_path):
    root = cold_copy(tmp_path)
    out = run_import(root, path="")
    assert out.returncode != 0
    assert "ImportError: cannot build the Union-Find kernel" in out.stderr
    assert "cc -O2 -shared -fPIC" in out.stderr
    assert not kernels(root) and not list(cache(root).glob("*.tmp"))


def test_compiler_failure_raises_import_error_with_its_stderr(tmp_path):
    root = cold_copy(tmp_path)
    with open(root / "ufpipe" / "_ufkernel.c", "a") as f:
        f.write("\nint32_t not_c = ;\n")
    out = run_import(root)
    assert out.returncode != 0
    assert "ImportError: cannot build the Union-Find kernel" in out.stderr
    assert "cc -O2 -shared -fPIC" in out.stderr
    assert "_ufkernel.c" in out.stderr and "error" in out.stderr  # the compiler's own message
    assert not kernels(root) and not list(cache(root).glob("*.tmp"))


def test_missing_numpy_archive_raises_import_error_naming_it(tmp_path, monkeypatch):
    monkeypatch.setattr(_kernel, "_ARCHIVE", str(tmp_path / "libnpyrandom.a"))
    source = str(PKG / "_ufkernel.c")
    for build in (lambda: cache_path(source), lambda: _kernel._build(source, str(tmp_path / "k.so"))):
        with pytest.raises(ImportError, match="numpy's static library .*libnpyrandom.a is missing"):
            build()
    assert not list(tmp_path.iterdir())


def test_a_changed_flag_list_gives_another_cache_path(tmp_path, monkeypatch):
    # a cached build made with other flags is never loaded in place of this one
    source = str(PKG / "_ufkernel.c")
    paths = {cache_path(source)}
    monkeypatch.setattr(_kernel, "CC_FLAGS", (*_kernel.CC_FLAGS, "-fno-such-flag"))
    paths.add(cache_path(source))
    monkeypatch.setattr(_kernel, "link_args", lambda: [*link_args(), "-lc"])
    paths.add(cache_path(source))
    assert len(paths) == 3
    # and the build runs the flags the path was hashed from
    with pytest.raises(ImportError, match="-fno-such-flag"):
        _kernel._build(source, str(tmp_path / "k.so"))
    assert not list(tmp_path.iterdir())


WARNINGS = ["-Wall", "-Wextra", "-Werror", "-std=c11", "-pedantic", "-Wconversion", "-Wshadow"]


def test_kernel_compiles_without_warnings(tmp_path):
    cmd = ["cc", "-O2", *WARNINGS, "-shared", "-fPIC",
           "-o", str(tmp_path / "kernel.so"), str(PKG / "_ufkernel.c"), *link_args()]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_kernel_driver_decodes_a_dump_as_uf_core_does(tmp_path):
    # the driver lays the dumped graph and buffer offsets into the kernel's
    # structs; a field out of step gives other records or a crash
    driver = tmp_path / "kernel_driver"
    cmd = ["cc", "-O2", *WARNINGS, "-o", str(driver),
           str(Path(__file__).with_name("kernel_driver.c")), *link_args()]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    for d, p in ((3, 0.1), (5, 0.02), (5, 0.2), (5, 0.45)):
        g = build_decoding_graph(LatticeParams(d))
        defects = trial_defects(g, p, seed=d, trials=30)
        write_dump(tmp_path / "dump", g, defects)
        out = subprocess.run([str(driver), str(tmp_path / "dump"), str(tmp_path / "out"), "2"],
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        dec = Decoder(g)
        got = read_output(tmp_path / "out")
        assert len(got) == len(defects)
        for (record, corr), ids in zip(got, defects):
            forest = spanning_forest(g, dec.grow(ids))
            assert np.array_equal(record, forest.record)
            assert np.array_equal(corr, peel(forest, Syndrome(ids, g.n_internal)).edge_ids)


def test_kernel_exports_exactly_the_functions_python_binds():
    # a function no binding names is dead code or should be static, and
    # numpy's distributions, linked in, stay out of the exports
    if shutil.which("nm") is None:
        pytest.skip("nm is not on PATH")
    out = subprocess.run(["nm", "-D", "--defined-only", cache_path(str(PKG / "_ufkernel.c"))],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    exported = {line.split()[-1] for line in out.stdout.splitlines() if line.strip()}
    # names with a leading underscore are the linker's own (_edata, _end, ...)
    assert {name for name in exported if not name.startswith("_")} == {
        name for name, _, _ in BINDINGS}


def c_code(source: str) -> str:
    """The C source `source` without its comments."""
    return re.sub(r"/\*.*?\*/|//[^\n]*", " ", source, flags=re.S)


def c_struct_declarations(source: str, name: str) -> list[str]:
    """The field declarations of the typedef'd struct `name` in the C source
    `source`, in order, each with its white space collapsed."""
    (body,) = re.findall(r"typedef struct (?:\w+ )?\{([^}]*)\}\s*" + name + ";", c_code(source))
    return [" ".join(declaration.split()) for declaration in body.split(";") if declaration.strip()]


def c_struct_fields(source: str, name: str) -> list[tuple[str, bool]]:
    """(field, is a pointer) of every field of the typedef'd struct `name`
    in the C source `source`, in declaration order."""
    return [(re.findall(r"\w+", declarator)[-1], "*" in declarator)
            for declaration in c_struct_declarations(source, name)
            for declarator in declaration.split(",")]


@pytest.mark.parametrize("struct,mirror", [("uf_graph", GraphView), ("uf_ctx", _Ctx)])
def test_ctypes_mirrors_declare_the_c_structs_fields_in_order(struct, mirror):
    # a field out of step shifts every later one: the kernel then reads and
    # writes the wrong memory, with no error
    fields = c_struct_fields((PKG / "_ufkernel.c").read_text(), struct)
    assert fields == [(name, kind is ctypes.c_void_p) for name, kind in mirror._fields_]


def c_defines(source: str) -> dict[str, int]:
    """The value of every `#define NAME <integer expression>` of the C
    source `source`, by name; casts to int64_t are dropped."""
    out = {}
    for name, expr in re.findall(r"^#define (\w+) (.+)$", c_code(source), flags=re.M):
        expr = expr.replace("(int64_t)", "")
        if re.fullmatch(r"[\d\s()<+*-]+", expr):  # integer arithmetic only
            out[name] = eval(expr)
    return out


def c_enum(source: str, member: str) -> list[str]:
    """The names of the anonymous C enum of `source` that has `member`, in order."""
    enums = [[name.strip() for name in body.split(",")]
             for body in re.findall(r"enum \{([^}]*)\}", c_code(source))]
    (names,) = [names for names in enums if member in names]
    return names


def test_kernel_mirrors_hold_the_c_numbers():
    # a slot inserted into the counts enum shifts every count Python reads,
    # and a changed error return is taken for a result, with no error
    source = (PKG / "_ufkernel.c").read_text()
    counts = c_enum(source, "N_COUNTS")
    assert {name: getattr(_kernel, name, None) for name in counts} == {
        name: slot for slot, name in enumerate(counts)}
    defines = c_defines(source)
    names = ("LEFT_SIDE", "RIGHT_SIDE", "FOREST_COLUMNS", "FOREST_ODD_CLUSTER", "FOREST_BAD_TREE",
             "BAD_EDGE", "RESIDUAL_SYNDROME", "PEEL_BAD_DEFECT")
    assert {name: getattr(_kernel, name) for name in names} == {
        name: defines[name] for name in names}


def test_kernel_declares_the_fields_of_numpys_bitgen_t_in_order():
    # numpy's random_geometric calls through the kernel's own bitgen_t
    header = Path(np.get_include()) / "numpy" / "random" / "bitgen.h"
    assert c_struct_declarations((PKG / "_ufkernel.c").read_text(), "bitgen_t") == \
        c_struct_declarations(header.read_text(), "bitgen_t")


UBSAN_WORKLOAD = """
import os
import numpy as np
from ufpipe.lattice import LatticeParams, build_decoding_graph, syndrome_indices_of_edges
from ufpipe.microarch import decode_with_pipeline
from ufpipe.noise import ErrorPattern, NoiseParams, Syndrome, TrialSampler, sample_error, syndrome_of
from ufpipe.uf_core import Decoder, assess

if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as f:
        assert "ubsan" in f.read(), "the sanitizer runtime is not loaded"
for d in (3, 5, 11, 25):
    g = build_decoding_graph(LatticeParams(d))
    dec = Decoder(g)
    errs = [sample_error(g, NoiseParams(p=p, seed=d, trial_index=t))
            for p in (1e-3, 0.02, 0.05, 0.2, 0.45) for t in range(4)]
    syns = [syndrome_of(g, err) for err in errs]
    syns.append(Syndrome(defects=np.arange(g.n_internal), length=g.n_internal))
    for syn in syns:
        corr, stats = dec.decode(syn)
        pcorr, state, pstats = decode_with_pipeline(g, syn)
        assert np.array_equal(corr.edge_ids, pcorr.edge_ids) and stats == pstats
        assert np.array_equal(syndrome_indices_of_edges(g, corr.edge_ids), syn.defects)
    for err in errs:
        assess(g, err, dec.decode(syndrome_of(g, err))[0])
    for p in (5e-324, 1e-3, 0.34, 0.45):
        sampler = TrialSampler(g.n_edges, p, 2**64 + d)
        for t in (0, 2**63 + 1, 2**64 - 1):
            ids = sampler.sample(t)
            assert ids.size == 0 or (np.all(np.diff(ids) > 0) and ids[0] >= 0
                                     and ids[-1] < g.n_edges)
    for bad in ([-1], [0, 0], np.array([5, 2**63 + 1], dtype=np.uint64), [g.n_internal]):
        for decode in (dec.grow, lambda ids: decode_with_pipeline(g, Syndrome(ids, g.n_internal))):
            try:
                decode(bad)
            except ValueError:
                continue
            raise AssertionError(f"defects {bad} were accepted")
    for bad in ([-1], [g.n_edges]):
        try:
            syndrome_indices_of_edges(g, bad)
        except ValueError:
            continue
        raise AssertionError(f"edge ids {bad} were accepted")
"""


def test_kernel_runs_clean_under_the_undefined_behaviour_sanitizer(tmp_path):
    # a sanitized build in the cache of a cold copy, loaded with no compiler
    # on PATH, so that no other build can take its place
    probe = subprocess.run(["cc", "-fsanitize=undefined", "-x", "c", "-o", str(tmp_path / "probe"),
                            "-"], input="int main(void) { return 0; }\n",
                           capture_output=True, text=True, timeout=120)
    if probe.returncode:
        pytest.skip(f"cc cannot link libubsan: {probe.stderr.strip()}")
    root = cold_copy(tmp_path)
    source = root / "ufpipe" / "_ufkernel.c"
    target = Path(cache_path(str(source)))
    target.parent.mkdir()
    cmd = ["cc", "-O1", "-g", "-fsanitize=undefined", "-fno-sanitize-recover=undefined",
           "-shared", "-fPIC", "-o", str(target), str(source), *link_args()]
    build = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr
    out = run_import(root, UBSAN_WORKLOAD, path="")
    assert out.returncode == 0, out.stderr
    assert kernels(root) == [target]
