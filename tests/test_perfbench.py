"""Smoke test of the benchmark harness in perfbench/."""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_smoke_run():
    out = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr


def test_tracer_finds_every_target(monkeypatch):
    # install raises AttributeError or KeyError when a wrapped name is gone
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import qplab.cli  # noqa: F401  (loads every qplab module the tracer wraps)
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        assert t._saved
    finally:
        t.uninstall()
