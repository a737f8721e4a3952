"""Every keyword default in the library and every CLI flag is set by some caller.

A default that no call in `src/`, `tests/`, `perfbench/` or `scripts/` ever
overrides is a configuration nothing exercises; it belongs at its place of
use as a constant.  Calls are matched by bare or attribute name; a method
receives `self`/`cls` as an extra leading positional argument, and a call
with `*args` or `**kwargs` counts as setting every parameter.

The CLI counterpart: every setting is a parameter of some subcommand, every
subcommand reads each of its parameters, and every flag appears in some
argv of `tests/`, `perfbench/` or `scripts/`: a list literal that starts
with a subcommand name or extends a list named `argv`.
"""

import ast
import inspect
from pathlib import Path

from qplab import cli

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


def test_every_setting_is_a_subcommand_parameter():
    taken = {k for fn in cli.COMMANDS.values() for k in inspect.signature(fn).parameters}
    assert taken == set(cli.SETTINGS)


def test_every_subcommand_parameter_is_read():
    defs = {node.name: node for node in ast.parse(Path(cli.__file__).read_text()).body
            if isinstance(node, ast.FunctionDef)}
    unread = []
    for fn in cli.COMMANDS.values():
        node = defs[fn.__name__]
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{fn.__name__}({a.arg})" for a in node.args.args if a.arg not in read]
    assert not unread, "subcommand parameters never read: " + ", ".join(unread)


def _argv_lists(tree):
    """List literals that are a qplab argv: they start with a subcommand or extend `argv`."""
    for node in ast.walk(tree):
        first = node.elts[0] if isinstance(node, ast.List) and node.elts else None
        if getattr(first, "value", None) in cli.COMMANDS:
            yield node
        elif isinstance(node, ast.BinOp) and isinstance(node.right, ast.List) and any(
                getattr(n, "id", None) == "argv" for n in ast.walk(node.left)):
            yield node.right


def test_every_flag_is_set_by_some_argv():
    given = set()
    for d in CALLER_DIRS[1:]:
        for path in sorted((ROOT / d).rglob("*.py")):
            for argv in _argv_lists(ast.parse(path.read_text())):
                given |= {e.value for e in argv.elts if isinstance(e, ast.Constant)
                          and isinstance(e.value, str) and e.value.startswith("--")}
    flags = {"--" + k.replace("_", "-") for k in cli.SETTINGS}
    assert not flags - given, f"flags no argv sets: {sorted(flags - given)}"
