"""Write the out-dirs of the acceptance determinism commands under OUT.

Usage: python scripts/outdirs.py OUT

Runs each argv of DETERMINISM_COMMANDS in tests/test_acceptance.py with
--out-dir OUT/<command>, and writes OUT/exit_codes.txt with one line
"<command> <exit code>" per argv.  Two checkouts give the same artifacts and
exit codes when `diff -r` of their OUT trees prints nothing.
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
out = Path(sys.argv[1])
codes = [(argv[0], main(argv + ["--out-dir", str(out / argv[0])])) for argv in commands]
(out / "exit_codes.txt").write_text("".join(f"{cmd} {code}\n" for cmd, code in codes))
failed = [cmd for cmd, code in codes if code not in (0, 2)]
if failed:
    sys.exit(f"failed: {' '.join(failed)}")
