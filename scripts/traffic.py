"""Library lines that no production entry runs, counted with the stdlib `trace` module.

Usage: python3 scripts/traffic.py

Under one `trace.Trace(count=1)` it runs the production entries:
  - every argv of DETERMINISM_COMMANDS in tests/test_acceptance.py, in process;
  - one pass of the perfbench workloads spectra-golden and cocycle-dichotomy,
    their checks included;
  - the twelve acceptance criteria, test_c01 .. test_c12.
Then it prints, for each module of src/qplab but the package's
`__init__.py`, the executable lines that none of them ran, and the totals.
Out-dirs go to a temporary directory, so nothing is written inside the repo.
An entry that raises is reported on stderr and the rest still run: the
criteria's time budgets are not meant to hold under the tracer.  Takes under
a minute on 2 cores.
"""

import inspect
import sys
import tempfile
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIB = ROOT / "src" / "qplab"
for d in ("src", "tests", "perfbench"):
    sys.path.insert(0, str(ROOT / d))


def executable_lines(path: Path) -> set:
    """Line numbers that carry bytecode in any code object of the module."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        co = todo.pop()
        lines |= {ln for _, _, ln in co.co_lines() if ln}  # None or 0: no source line
        todo += [c for c in co.co_consts if isinstance(c, types.CodeType)]
    return lines


def _entry(name, fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        print(f"{name}: {type(exc).__name__}: {str(exc)[:200]}", file=sys.stderr)


def run_entries(tmp: Path):
    """Every production entry; imports happen here, so module-level lines are traced too."""
    import test_acceptance
    import workloads
    from qplab.cli import main

    for argv in test_acceptance.DETERMINISM_COMMANDS:
        _entry(argv[0], main, argv + ["--out-dir", str(tmp / "cli" / argv[0])])
    for name in ("spectra-golden", "cocycle-dichotomy"):
        work = workloads.WORKLOADS[name](1, tmp / name)
        results = {}
        for label, fn in work.operations():
            try:
                results[label] = fn(results)
            except Exception as exc:
                results[label] = None
                print(f"{name} {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        _entry(f"{name} check", work.check, results)
    for name, fn in sorted(vars(test_acceptance).items()):
        if name.startswith("test_c"):
            wants_tmp = "tmp_path" in inspect.signature(fn).parameters
            _entry(name, fn, *([tmp / name] if wants_tmp else []))


def main() -> int:
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    with tempfile.TemporaryDirectory() as tmp:
        tracer.runfunc(run_entries, Path(tmp))
    ran = {}
    for (filename, line), _ in tracer.results().counts.items():
        ran.setdefault(Path(filename).resolve(), set()).add(line)
    total = unrun_total = 0
    # `trace` caches its ignore decision by bare module name, so once an __init__ of an ignored
    # package has run, no __init__.py is counted; the package's own holds only its docstring
    for path in sorted(set(LIB.glob("*.py")) - {LIB / "__init__.py"}):
        lines = executable_lines(path)
        unrun = sorted(lines - ran.get(path.resolve(), set()))
        total, unrun_total = total + len(lines), unrun_total + len(unrun)
        print(f"== {path.stem}: {len(unrun)} of {len(lines)} executable lines not run")
        text = path.read_text().splitlines()
        for ln in unrun:
            print(f"{path.stem}:{ln}: {text[ln - 1].strip()}")
    print(f"total: {unrun_total} of {total} executable lines in src/qplab not run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
