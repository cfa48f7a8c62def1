"""List the statement lines of ``src/nbbm`` that no measured or accepted run executes.

Run from the repository root (takes about a minute):

    python3 tools/paths.py

It traces, with ``sys.settrace`` limited to frames whose file lies in
``src/nbbm``:

* one cycle of each workload of ``bench/workloads.py`` at seed 1, each op
  checked, hashed and observed as the benchmark does;
* the seven CLI subcommands at their defaults and seed 1, with ``solve`` and
  ``kernel-dump`` at d = 1, 2, 3, ``simulate`` also at d = 2 and 3, and
  ``hydro`` and ``selection`` at ``replicas=2``; ``solve`` once more from
  the ``v_profile.csv`` that the ``stationary`` run wrote (``--set
  initial=<path>``), from a ``--config`` file with a ``[solve]`` section,
  with ``initial=uniform`` and with ``two_sided=false``, and at d = 3 from
  a profile file with one jump of 0.1 at r = 0.5, whose mass is small enough
  that the solver's grid and the anchored lattice grow; and ``hydro`` with
  ``sampler=stationary``: nineteen CLI runs;
* ``tests/test_acceptance.py``.

The same traffic (:func:`run_traffic`) is what ``tools/identity.py`` runs on
two trees to compare their outputs.  Then it prints, grouped by module and
function, each statement line that carries bytecode and never ran.  A
function none of whose lines ran is marked "never called".  A listed line is a path that neither the benchmark
nor the acceptance criteria take: it wants a test or a workload, or, if no
supported input reaches it, deletion.  Raise branches for bad input are
expected in the list.  Worker processes (``workers > 1``) are not traced.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nbbm"


class LineCollector:
    """Context manager that records the ``(file, line)`` pairs executed by
    frames whose code lies in a file under ``root``, in every thread started
    while it is active."""

    def __init__(self, root: Path):
        self.prefix = str(Path(root).resolve()) + os.sep
        self.hits: set[tuple[str, int]] = set()

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename.startswith(self.prefix) else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def __enter__(self):
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])


def _code_lines(code: types.CodeType) -> set[int]:
    """Lines that carry bytecode in ``code`` or any code object nested in it."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def function_lines(path: Path) -> dict[str, list[int]]:
    """The statement lines of each function in the module at ``path`` that
    carry bytecode, keyed by the function's qualified name."""
    source = Path(path).read_text()
    live = _code_lines(compile(source, str(path), "exec"))
    out: dict[str, list[int]] = {}

    def visit(node, prefix: str, func: str | None):
        for child in ast.iter_child_nodes(node):
            if func and isinstance(child, ast.stmt) and child.lineno in live:
                out[func].append(child.lineno)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                out.setdefault(name, [])
                visit(child, name + ".", name)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", func)
            else:
                visit(child, prefix, func)

    visit(ast.parse(source), "", None)
    return out


def unreached(path: Path, hits: set[tuple[str, int]]) -> dict[str, tuple[list[int], int]]:
    """Per function of the module at ``path``: its statement lines that never
    ran, and its count of statement lines."""
    name = str(Path(path).resolve())
    return {func: ([ln for ln in lines if (name, ln) not in hits], len(lines))
            for func, lines in function_lines(path).items()}


def report(root: Path, hits: set[tuple[str, int]]) -> str:
    """The listing of unreached lines for every module under ``root``."""
    out, n_missed, n_lines, n_funcs, n_never = [], 0, 0, 0, 0
    for path in sorted(Path(root).resolve().glob("*.py")):
        source = path.read_text().splitlines()
        entries = []
        for func, (missed, total) in unreached(path, hits).items():
            n_lines += total
            if missed:
                never = len(missed) == total
                entries.append(f"  {func}  (" + ("never called" if never else
                                                 f"{len(missed)} of {total} lines") + ")")
                entries.extend(f"    {ln:5d}  {source[ln - 1].strip()}" for ln in missed)
                n_missed += len(missed)
                n_funcs += 1
                n_never += never
        if entries:
            out += [os.path.relpath(path, ROOT), *entries]
    out.append(f"unreached: {n_missed} of {n_lines} statement lines, in {n_funcs} "
               f"functions ({n_never} never called)")
    return "\n".join(out)


def _run_workloads(root: Path) -> dict[str, dict]:
    """One cycle of each workload of ``root``'s ``bench/workloads.py`` at seed 1;
    per op, its digest and its oracle's problems."""
    sys.path.insert(0, str(root / "bench"))
    from workloads import WORKLOADS
    ops = {}
    for cls in WORKLOADS.values():
        wl = cls(1)
        wl.prepare()
        wl.start_cycle()
        for i in range(len(wl.kinds)):
            inp = wl.input(i)
            out = wl.run(i, inp)
            problems = wl.check(i, inp, out)
            label = f"{wl.name}/{wl.kind(i)}"
            ops[label] = {"digest": wl.digest(out), "problems": problems}
            wl.observe(out)
            print(f"workload {label}: {'; '.join(problems) if problems else 'ok'}", flush=True)
    return ops


def _run_cli(out_root: str) -> dict[str, dict | None]:
    """The CLI runs at seed 1; per run, its ``manifest.json`` (None if absent)."""
    from nbbm.cli import main
    profile = os.path.join(out_root, "stationary", "v_profile.csv")
    config = os.path.join(out_root, "solve.cfg")
    jump = os.path.join(out_root, "jump.csv")
    os.makedirs(out_root, exist_ok=True)
    Path(config).write_text("# top-level keys, then the one section\nworkers = 1\n\n"
                            "[solve]\nd = 2\nt = 0.5  # a shorter horizon\n")
    Path(jump).write_text("r,value\n0.5,0.1\n")  # mass 0.1: the solver's grid grows
    # each run's --set values, or a config file read with --config
    runs = [("simulate",), ("stationary",), ("solve", f"initial={profile}"), ("stationarity",),
            ("hydro", "replicas=2"), ("selection", "replicas=2"), ("solve", config),
            ("solve", "initial=uniform"), ("solve", "two_sided=false"),
            ("hydro", "sampler=stationary", "replicas=2")]
    runs += [(sub, f"d={d}") for sub in ("solve", "kernel-dump") for d in (1, 2, 3)]
    runs += [("simulate", "d=2"), ("simulate", "d=3"), ("solve", "d=3", f"initial={jump}")]
    manifests = {}
    for sub, *args in runs:
        label = "-".join((sub, *map(os.path.basename, args))).replace("=", "")
        argv = [sub, "--seed", "1", "--out", os.path.join(out_root, label)]
        for arg in args:
            argv += ["--set", arg] if "=" in arg else ["--config", arg]
        print(f"cli {label}: exit {main(argv)}", flush=True)
        manifest = Path(out_root, label, "manifest.json")
        manifests[label] = json.loads(manifest.read_text()) if manifest.exists() else None
    return manifests


def _run_acceptance(root: Path) -> list[str]:
    """``root``'s ``tests/test_acceptance.py``; its acceptance lines."""
    import pytest
    status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(root),
                          str(root / "tests" / "test_acceptance.py")])
    print(f"acceptance: pytest exit {int(status)}", flush=True)
    return list(getattr(sys.modules.get("test_acceptance"), "ACCEPTANCE_LINES", []))


def run_traffic(root: Path, out_root: str) -> dict:
    """The traffic of this module on the tree at ``root``, with ``nbbm``
    imported from its ``src/`` (see :func:`import_package`) and CLI output
    under ``out_root``: the op digests and problems, the CLI manifests and
    the acceptance lines."""
    return {"ops": _run_workloads(root), "manifests": _run_cli(out_root),
            "acceptance": _run_acceptance(root)}


def import_package(root: Path) -> str | None:
    """Import ``nbbm`` from ``root/src``; an error message if it came from elsewhere."""
    sys.dont_write_bytecode = True  # leave the tree as it is
    sys.path.insert(0, str(root / "src"))
    import nbbm
    if not Path(nbbm.__file__).resolve().is_relative_to(root / "src" / "nbbm"):
        return f"error: nbbm imported from {nbbm.__file__}, not {root / 'src' / 'nbbm'}"
    return None


def main() -> int:
    error = import_package(ROOT)
    if error:
        print(error, file=sys.stderr)
        return 2
    with LineCollector(PACKAGE) as collector, tempfile.TemporaryDirectory() as tmp:
        run_traffic(ROOT, tmp)
    print(report(PACKAGE, collector.hits))
    return 0


if __name__ == "__main__":
    sys.exit(main())
