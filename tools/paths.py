"""List the statement lines of ``src/nbbm`` that no measured or accepted run executes.

Run from the repository root (takes about a minute):

    python3 tools/paths.py

It traces, with ``sys.settrace`` limited to frames whose file lies in
``src/nbbm``:

* one cycle of each workload of ``bench/workloads.py`` at seed 1, each op
  checked, hashed and observed as the benchmark does;
* the seven CLI subcommands at their defaults and seed 1, with ``solve`` and
  ``kernel-dump`` at d = 1, 2, 3 and ``hydro`` and ``selection`` at
  ``replicas=2``;
* ``tests/test_acceptance.py``.

Then it prints, grouped by module and function, each statement line that
carries bytecode and never ran.  A function none of whose lines ran is
marked "never called".  A listed line is a path that neither the benchmark
nor the acceptance criteria take: it wants a test or a workload, or, if no
supported input reaches it, deletion.  Raise branches for bad input are
expected in the list.  Worker processes (``workers > 1``) are not traced.
"""

from __future__ import annotations

import ast
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


def _run_workloads():
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS
    for cls in WORKLOADS.values():
        wl = cls(1)
        wl.prepare()
        wl.start_cycle()
        for i in range(len(wl.kinds)):
            inp = wl.input(i)
            out = wl.run(i, inp)
            problems = wl.check(i, inp, out)
            wl.digest(out)
            wl.observe(out)
            print(f"workload {wl.name}/{wl.kind(i)}: "
                  f"{'; '.join(problems) if problems else 'ok'}", flush=True)


def _run_cli(out_root: str):
    from nbbm.cli import main
    runs = [("simulate",), ("stationary",), ("stationarity",),
            ("hydro", "replicas=2"), ("selection", "replicas=2")]
    runs += [(sub, f"d={d}") for sub in ("solve", "kernel-dump") for d in (1, 2, 3)]
    for sub, *sets in runs:
        label = "-".join((sub, *sets)).replace("=", "")
        argv = [sub, "--seed", "1", "--out", os.path.join(out_root, label)]
        for kv in sets:
            argv += ["--set", kv]
        print(f"cli {label}: exit {main(argv)}", flush=True)


def _run_acceptance():
    import pytest
    status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                          str(ROOT / "tests" / "test_acceptance.py")])
    print(f"acceptance: pytest exit {int(status)}", flush=True)


def main() -> int:
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(ROOT / "src"))
    import nbbm
    if not Path(nbbm.__file__).resolve().is_relative_to(PACKAGE):
        print(f"error: nbbm imported from {nbbm.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    with LineCollector(PACKAGE) as collector, tempfile.TemporaryDirectory() as tmp:
        _run_workloads()
        _run_cli(tmp)
        _run_acceptance()
    print(report(PACKAGE, collector.hits))
    return 0


if __name__ == "__main__":
    sys.exit(main())
