"""The Union-Find kernel builds itself on first import, once, with `cc`,
and compiles without warnings.

Each import test copies the package to a temporary directory, so that its
build cache starts cold, and imports it in a subprocess. The build must not
pull in setuptools, distutils or cffi: importing those raises the
benchmark's peak RSS by several MiB.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

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


def test_kernel_compiles_without_warnings(tmp_path):
    cmd = ["cc", "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
           "-o", str(tmp_path / "kernel.so"), str(PKG / "_ufkernel.c")]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
