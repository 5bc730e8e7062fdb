"""Every ``pdf_oxide_ray`` module imports cleanly as the FIRST package
module a process loads — a Ray worker that unpickles a family's UDF
imports that family first, so a family must never read a sibling's
registrations while the registry import it triggers is still running.

One subprocess pre-loads the third-party stack, then forks one child
per module; each child starts with no ``pdf_oxide_ray`` module loaded
and imports exactly one."""

import pathlib
import subprocess
import sys

_CHILD = r"""
import importlib, os, sys, threading, traceback
import duckdb, numpy, pandas, pyarrow, ray.data  # noqa: F401 (warm)

assert threading.active_count() == 1, "fork needs a single-threaded parent"
failed = []
for name in sys.argv[1:]:
    pid = os.fork()
    if pid == 0:
        try:
            importlib.import_module(name)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    if status != 0:
        failed.append(name)
print("FAILED:" + ",".join(failed))
"""


def _modules() -> list[str]:
    root = pathlib.Path(__file__).resolve().parents[1]
    out = []
    for p in sorted((root / "pdf_oxide_ray").rglob("*.py")):
        parts = p.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out.append(".".join(parts))
    return out


def test_every_module_imports_first():
    root = pathlib.Path(__file__).resolve().parents[1]
    mods = _modules()
    assert "pdf_oxide_ray.queries_curation8" in mods
    r = subprocess.run([sys.executable, "-c", _CHILD, *mods], cwd=root,
                       capture_output=True, text=True, timeout=900)
    assert r.returncode == 0, r.stderr[-4000:]
    failed = r.stdout.strip().rsplit("FAILED:", 1)[-1]
    assert failed == "", f"first import fails for: {failed}\n" \
        + r.stderr[-4000:]
