"""Every keyword default in the library and every CLI flag is set by some caller.

A default that no call in `src/`, `tests/`, `perfbench/` or `scripts/` ever
overrides is a configuration nothing exercises; it belongs at its place of
use as a constant.  Calls are matched by bare or attribute name; a method
receives `self`/`cls` as an extra leading positional argument, and a call
with `*args` or `**kwargs` counts as setting every parameter.

The CLI counterpart: every setting is a parameter of some subcommand, every
subcommand reads each of its parameters, and every flag appears in some
argv of `tests/`, `perfbench/` or `scripts/`: a list literal that starts
with a subcommand name or extends a list named `argv`.  Each flag is also
live: given a second value, it changes an artifact byte or the exit code.

The library counterpart: every public module-level function and class, and
every public method and property of such a class, is used by the program,
its scripts, the benchmark or the acceptance criteria, not only by unit
tests.  A bare name that a function binds itself, as an assignment target or
a parameter, is that function's local and uses no library name.
"""

import ast
import inspect
from pathlib import Path

from qplab import cli
from test_acceptance import DETERMINISM_COMMANDS

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


# a second value per setting: the first candidate that differs from the argv's value
_SECOND = {
    "alpha": ("sqrt2m1",), "depth": ("11",), "lam": ("0.7", "0.3"), "E": ("0.3",),
    "rho": ("0.2",), "gamma": ("0.2",), "tau": ("2.5",), "v": ("0.3",), "K": ("200",),
    "q": ("5", "8"), "p": ("2", "3"), "levels": ("1", "2"), "steps": ("1",),
    "eps": ("2e-3",), "modulus": ("gevrey",), "modulus_param": ("0.5",), "grid": ("64",),
    "n": ("64", "128"),
}

# (subcommand, setting) -> argv additions for both runs, where the argv makes the setting vacuous
_ARGV_FOR = {
    ("norms", "modulus_param"): ["--modulus", "gevrey"],  # the analytic class takes no parameter
    ("kam-step", "modulus_param"): ["--modulus", "gevrey"],
    ("kam-run", "modulus_param"): ["--modulus", "gevrey"],
    # at q = 3 the one other p is 2 = -1, the reflected operator, with the same bands
    ("spectrum", "p"): ["--q", "5"],
    ("sminus", "p"): ["--q", "5"],
    ("ids", "p"): ["--q", "5"],
}

# (subcommand, setting) -> why no second value shows at a determinism argv
_LIVE_EXEMPT = {
    ("seqs", "depth"): "the expansion is at least 250 deep, and more binds only for an alpha "
                       "whose second induction scale lies past 250 quotients (golden's: ~236)",
}


def _run(argv, out):
    code = cli.main(argv + ["--out-dir", str(out)])
    return code, {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else {}


def test_every_flag_changes_an_artifact_or_the_exit_code(tmp_path):
    dead, runs = [], {}
    for argv in DETERMINISM_COMMANDS:
        cmd = argv[0]
        for key in inspect.signature(cli.COMMANDS[cmd]).parameters:
            if key == "out_dir" or (cmd, key) in _LIVE_EXEMPT:
                continue
            flag = "--" + key.replace("_", "-")
            base = argv + _ARGV_FOR.get((cmd, key), [])
            if tuple(base) not in runs:
                runs[tuple(base)] = _run(base, tmp_path / str(len(runs)))
            now = base[base.index(flag) + 1] if flag in base else str(cli.SETTINGS[key][1])
            second = next(v for v in _SECOND[key] if v != now)
            if _run(base + [flag, second], tmp_path / f"{cmd}-{key}") == runs[tuple(base)]:
                dead.append(f"{cmd} {flag} {second}")
    assert not dead, f"flags that change no artifact byte and no exit code: {dead}"


# public names with no caller yet, each with the reason it stays
_UNCALLED_ALLOWED = {
    "strip_log_norm_bound": "ultra-differentiable tool; the ud potential of ROADMAP item 1 calls it",
    "lyapunov_truncation_gap": "ultra-differentiable tool; the ud potential of ROADMAP item 1 "
                               "calls it",
    "periodic_ln_bound": "ultra-differentiable tool; the ud potential of ROADMAP item 1 calls it",
    "lyapunov_det_drift": "the determinant-drift check of the transfer kernel _transfer_grid",
    "check_h1_h2": "the modulus hypotheses of the ud class; ROADMAP item 7 names qplab norms as "
                   "its caller",
}


def _binds(fn):
    """Names a function binds itself: its parameters and its assignment targets."""
    a = fn.args
    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p}
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _references(node, owners=(), bound=frozenset()):
    """(name, owners) for each name, attribute and string constant under node.

    owners are the names of the enclosing definitions.  A bare name that an
    enclosing function binds itself is a local and no reference.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            if child.id not in bound:
                yield child.id, owners
        elif isinstance(child, ast.Attribute):
            yield child.attr, owners
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value, owners
        inner, scope = owners, bound
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = owners + (child.name,)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope = bound | _binds(child)
        yield from _references(child, inner, scope)


def _public_defs(tree):
    """(key, bare name) of each public function and class, and each public method of such a class."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            yield stmt.name, stmt.name
            if isinstance(stmt, ast.ClassDef):
                for node in stmt.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        yield f"{stmt.name}.{node.name}", node.name


def test_every_public_function_and_class_has_a_caller():
    paths = [p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    paths.append(ROOT / "tests" / "test_acceptance.py")
    refs, defs = set(), []
    for path in paths:
        tree = ast.parse(path.read_text())
        lib = path.parent.name == "qplab"
        if lib:
            defs += [(f"{path.stem}.{key}", name) for key, name in _public_defs(tree)]
        # a definition does not call itself into use
        refs |= {name for name, owners in _references(tree) if not (lib and name in owners)}
    uncalled = [key for key, name in defs if name not in refs and name not in _UNCALLED_ALLOWED]
    assert not uncalled, f"public names only unit tests use: {uncalled}"
    stale = sorted(set(_UNCALLED_ALLOWED) & refs)
    assert not stale, f"allow-listed names that now have a caller: {stale}"
