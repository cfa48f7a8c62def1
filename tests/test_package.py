import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

# run in a fresh interpreter so that modules other tests imported do not count
_PROBE = textwrap.dedent("""
    import importlib
    import pkgutil
    import sys

    import nbbm

    # the package import stays light: scipy.stats alone adds most of a second
    assert "scipy.stats" not in sys.modules, "import nbbm loads scipy.stats"
    modules = sorted(m.name for m in pkgutil.iter_modules(nbbm.__path__))
    assert modules, "no submodules found"
    for name in modules:
        mod = importlib.import_module(f"nbbm.{name}")
        stale = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not stale, f"nbbm.{name}.__all__ names missing attributes: {stale}"
    print(" ".join(modules))
""")


def test_import_is_light_and_exports_resolve():
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) >= {"cli", "config", "core", "experiments",
                                        "kernels", "obstacle", "sim"}


_SRC = Path(__file__).resolve().parents[1] / "src" / "nbbm"
_TESTS = Path(__file__).resolve().parent


def _engine_calls(node) -> list[int]:
    """Line numbers of the ``advance_nbbm`` calls inside ``node``."""
    return [c.lineno for c in ast.walk(node) if isinstance(c, ast.Call)
            and "advance_nbbm" in (getattr(c.func, "id", None),
                                   getattr(c.func, "attr", None))]


def _per_iteration(node) -> list:
    """The parts of a loop or comprehension that run once per iteration."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body
    if isinstance(node, ast.While):
        return [node.test, *node.body]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        gens = node.generators
        return [*(getattr(node, f) for f in ("elt", "key", "value") if hasattr(node, f)),
                *(c for g in gens for c in g.ifs), *(g.iter for g in gens[1:])]
    return []


def _looped_engine_calls(source: str) -> list[int]:
    return sorted({line for node in ast.walk(ast.parse(source))
                   for part in _per_iteration(node) for line in _engine_calls(part)})


def test_no_module_outside_sim_loops_over_advance_nbbm():
    # advance_nbbm takes every read window of a particle run, so that the
    # engine knows each read time in advance
    assert _looped_engine_calls("for s in x:\n    sim.advance_nbbm(e, s, r)\n") == [2]
    assert _looped_engine_calls("while go:\n    go = advance_nbbm(e, s, r)\n") == [2]
    assert _looped_engine_calls("m = [x for x in advance_nbbm(e, w, r)[1].reads]") == []
    offenders = [f"{path.name}:{line}" for path in sorted(_SRC.glob("*.py"))
                 if path.name != "sim.py"
                 for line in _looped_engine_calls(path.read_text())]
    assert offenders == []


@pytest.mark.parametrize("module, function", [
    ("cli", "_run_simulate"), ("experiments", "_hydro_replica"),
    ("experiments", "_boundary_replica"), ("experiments", "_selection_replica"),
    ("experiments", "stationarity_report")])
def test_each_particle_run_is_one_engine_call(module, function):
    tree = ast.parse((_SRC / f"{module}.py").read_text())
    [fn] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    assert len(_engine_calls(fn)) == 1


def test_report_row_is_the_only_result_type():
    # every driver returns ReportRow records; no second result type creeps back
    classes = [f"{path.name}:{node.name}" for path in sorted(_SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef) and node.name.endswith(("Report", "Row"))]
    assert classes == ["experiments.py:ReportRow"]


def test_only_coupled_run_takes_sim_params():
    # N and d come from the ensemble; SimParams is coupled_run's input alone
    takers = [f"{path.name}:{node.name}" for path in sorted(_SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and any(a.annotation is not None and "SimParams" in ast.unparse(a.annotation)
                      for a in (*node.args.posonlyargs, *node.args.args,
                                *node.args.kwonlyargs))]
    assert takers == ["sim.py:coupled_run"]


def _callers(name: str, sources: dict[str, str]) -> list[str]:
    """``module:function`` of each call to ``name``, by bare name or as an
    attribute, in the modules ``sources``; ``Class.method`` for a method and
    ``<module>`` outside any function."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        scopes = [(f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef)
                  for f in c.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        scopes += [(f.name, f) for f in tree.body
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and name in (getattr(call.func, "id", None),
                                                       getattr(call.func, "attr", None)):
                where = [q for q, f in scopes if f.lineno <= call.lineno <= f.end_lineno]
                found.append(f"{module}:{where[0] if where else '<module>'}")
    return found


def test_one_call_shape_from_solver_to_kernel():
    # the sandwich step is the lattice kernel's one caller and the solver's
    # advance the step's, so that a second call shape cannot come back
    assert _callers("f", {"a": "f()\nclass C:\n    def m(self):\n        x.f(1)\n"
                               "def g():\n    def h():\n        f()\n"}) == \
        ["a:<module>", "a:C.m", "a:g"]
    sources = {path.stem: path.read_text() for path in sorted(_SRC.glob("*.py"))}
    assert _callers("mixture_node_values", sources) == ["obstacle:_sandwich_step"]
    assert _callers("_sandwich_step", sources) == ["obstacle:SandwichSolver._advance"]


def _unused_imports(source: str) -> list[str]:
    """``line:name`` of each name the module imports and never reads; a name
    listed in ``__all__`` is a re-export and counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{line}:{name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_no_unused_imports():
    # no linter ships with the package, so the check is an AST walk
    assert _unused_imports("import os.path\nimport sys\nfrom a import b as c\n"
                           "print(os.path.sep)\n") == ["2:sys", "3:c"]
    assert _unused_imports("from a import b\n__all__ = ['b']\n") == []
    offenders = [f"{path.parent.name}/{path.name}:{hit}"
                 for path in [*sorted(_SRC.glob("*.py")), *sorted(_TESTS.glob("*.py"))]
                 if path.name != "__init__.py"
                 for hit in _unused_imports(path.read_text())]
    assert offenders == []


def _private_names(tree) -> dict[str, int]:
    """``name: line`` of the module-level private functions, classes and
    constants in ``tree`` and of its classes' private methods."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update({n.id: node.lineno for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Name)})
        if isinstance(node, ast.ClassDef):
            found.update({f.name: f.lineno for f in node.body
                          if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))})
    return {name: line for name, line in found.items()
            if name.startswith("_") and not name.endswith("__")}


def _references(tree) -> set[str]:
    """Every name ``tree`` reads, imports or reaches as an attribute."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    refs = set().union(*map(_references, trees.values()))
    return [f"{name}:{line}:{priv}" for name, tree in trees.items()
            for priv, line in _private_names(tree).items() if priv not in refs]


def test_every_private_name_is_used_in_the_package():
    # a private helper that only tests call is a leftover of deleted code
    assert _unreferenced_private_names({
        "a.py": "_K = 1\n_J: int = 2\ndef _f():\n    return _K\n"
                "class _C:\n    def _m(self):\n        pass\n    def __init__(self):\n"
                "        self._m()\n",
        "b.py": "from a import _C\n"}) == ["a.py:2:_J", "a.py:3:_f"]
    sources = {path.name: path.read_text() for path in sorted(_SRC.glob("*.py"))}
    assert _unreferenced_private_names(sources) == []
