"""Import budget: ``mgsw align --backend process`` loads only what an
align run uses, and the lazily re-exported package names still resolve.

Every check runs in a fresh interpreter, because the test session itself
has imported everything long before.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import repro

#: Subsystems an align run never touches.
NOT_LOADED = ("repro.obs.exporter", "http.server", "repro.serve",
              "repro.baselines.cpu", "repro.multigpu.autotune",
              "repro.stats", "repro.device.engine", "repro.device.gpu",
              "repro.device.smmodel", "repro.multigpu.chain")

#: Most ``repro`` modules a process align may load.  A change that adds a
#: module to the align path raises this number on purpose.
MAX_REPRO_MODULES = 51


def _python(code: str, *args: str, cwd=None) -> str:
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=120, check=True).stdout


_ALIGN = """
import json, os, sys
from repro.cli import main
from repro.multigpu import pool

def traced_worker(*args, _run=pool._pool_worker):
    # Modules a worker imports itself, after the fork.
    start = set(sys.modules)
    try:
        _run(*args)
    finally:
        with open(f"worker{os.getpid()}.json", "w") as fh:
            json.dump(sorted(set(sys.modules) - start), fh)

pool._pool_worker = traced_worker
assert main(["align", "a.fa", "b.fa", "--backend", "process",
             "--workers", "2", "--start-method", "fork"]) == 0
print(json.dumps(sorted(sys.modules)))
"""


def test_process_align_loads_no_unused_subsystem(tmp_path):
    (tmp_path / "a.fa").write_text(">a\nACGTTGCAACGTAGGCTTAC\n")
    (tmp_path / "b.fa").write_text(">b\nACGTTGCTACGTAGGCATAC\n")
    out = _python(_ALIGN, cwd=tmp_path)
    modules = json.loads(out.strip().splitlines()[-1])
    assert "best score: " in out
    assert [m for m in NOT_LOADED if m in modules] == []
    loaded = [m for m in modules if m == "repro" or m.startswith("repro.")]
    assert len(loaded) <= MAX_REPRO_MODULES, sorted(loaded)
    # The workers inherit every module the engine needs from the parent.
    worker_files = sorted(tmp_path.glob("worker*.json"))
    assert len(worker_files) == 2
    for path in worker_files:
        assert json.loads(path.read_text()) == []


def test_lazy_package_names_resolve():
    out = _python("""
import repro
assert "repro.workloads" not in __import__("sys").modules
print(repro.sw.sw_score is repro.sw_score,
      repro.workloads.get_pair("chr22").name,
      repro.align_multi_gpu.__module__,
      repro.WorkerPool.__module__)
""")
    assert out.split() == ["True", "chr22", "repro.multigpu.chain",
                           "repro.multigpu.pool"]


def test_a_reexport_beats_its_namesake_submodule():
    """``multigpu.autotune`` is a module and the function it defines;
    importing the module first must not shadow the package's function."""
    out = _python("""
import repro.multigpu.autotune
from repro.multigpu import autotune
from repro.obs import StatusServer
import repro.obs
print(callable(autotune), autotune.__name__, StatusServer.__name__,
      "StatusServer" in dir(repro.obs))
""")
    assert out.split() == ["True", "autotune", "StatusServer", "True"]
