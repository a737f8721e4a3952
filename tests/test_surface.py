"""Every keyword default in the library is set by some caller.

A default that no call in `src/`, `tests/`, `perfbench/` or `scripts/` ever
overrides is a configuration nothing exercises; it belongs at its place of
use as a constant.  Calls are matched by bare or attribute name; a method
receives `self`/`cls` as an extra leading positional argument, and a call
with `*args` or `**kwargs` counts as setting every parameter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "tests", "perfbench", "scripts")


def _defaults(tree):
    """(function, parameter, positional index or None, is a method) for each keyword default."""
    out = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                    method = in_class and not static
                    a = child.args
                    pos = a.posonlyargs + a.args
                    for i in range(len(pos) - len(a.defaults), len(pos)):
                        out.append((child.name, pos[i].arg, i, method))
                    for p, d in zip(a.kwonlyargs, a.kw_defaults):
                        if d is not None:
                            out.append((child.name, p.arg, None, method))
            visit(child, isinstance(child, ast.ClassDef))

    visit(tree, False)
    return out


def _calls():
    """Called name -> [(positional count, keyword names, has *args/**kwargs)]."""
    calls = {}
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    star = any(isinstance(a, ast.Starred) for a in node.args) or any(
                        k.arg is None for k in node.keywords)
                    calls.setdefault(name, []).append(
                        (len(node.args), {k.arg for k in node.keywords}, star))
    return calls


def test_every_keyword_default_has_a_caller():
    calls = _calls()
    unset = []
    for path in sorted((ROOT / "src" / "qplab").glob("*.py")):
        for fname, pname, idx, method in _defaults(ast.parse(path.read_text())):
            if not any(star or pname in kws or (idx is not None and n + method > idx)
                       for n, kws, star in calls.get(fname, [])):
                unset.append(f"{path.stem}.{fname}({pname})")
    assert not unset, f"{len(unset)} keyword defaults no caller sets: " + ", ".join(unset)
