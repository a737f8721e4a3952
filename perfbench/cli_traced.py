"""`python -m qplab.cli` with the layers traced, for the traced cli-cold pass.

    python3 perfbench/cli_traced.py SPANS.npz LAUNCHED ARGV...

LAUNCHED is the launcher's time.perf_counter() before it started this
process; the span cli.start runs from there until qplab.cli is imported.
The spans are written to SPANS.npz when the command returns.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qplab.cli  # noqa: E402

started = time.perf_counter()

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402

spans = tracing.Tracer()
spans.record("cli.start", float(sys.argv[2]), started)
spans.install()
code = qplab.cli.main(sys.argv[3:])
spans.uninstall()
np.savez(sys.argv[1], **spans.arrays())
sys.exit(code)
