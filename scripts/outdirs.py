"""Write the out-dirs of the acceptance determinism commands under OUT.

Usage: python scripts/outdirs.py OUT

Runs each argv of DETERMINISM_COMMANDS in tests/test_acceptance.py with
--out-dir OUT/<command>.  Two checkouts give the same artifacts when
`diff -r` of their OUT trees prints nothing.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from qplab.cli import main  # noqa: E402

tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
commands = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "DETERMINISM_COMMANDS")
for argv in commands:
    if main(argv + ["--out-dir", str(Path(sys.argv[1]) / argv[0])]) not in (0, 2):
        sys.exit(f"{argv[0]} failed")
