"""Check that two source trees give the same outputs on the traffic of ``tools/paths.py``.

Run from the repository root (takes a few minutes):

    python3 tools/identity.py PARENT_TREE CHANGE_TREE

Each tree runs, in a fresh process with that tree's ``src/`` and
``bench/workloads.py``, the traffic that ``tools/paths.py`` traces
(:func:`paths.run_traffic`): one cycle of each bench workload at seed 1, the
nineteen CLI runs and the tree's ``tests/test_acceptance.py``.  Then it prints,
per output, ``equal`` or the first difference:

* each bench op's digest and its oracle's problems;
* each CLI run's ``manifest.json``, naming the first artifact whose hash
  differs;
* each of the ten acceptance lines, with its timing stripped.

The runs' own output goes to stderr.  The exit status is 1 if any output
differs, else 0.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import paths

_TIMING = re.compile(r", \d+(\.\d+)?s\)$")  # the ", 3.2s)" that closes a timed line


def _collect(tree: Path, runs: Path, out: Path) -> int:
    """Run the traffic on ``tree`` in this process, with CLI output under
    ``runs``, and write its outputs to ``out``."""
    error = paths.import_package(tree)
    if error:
        print(error, file=sys.stderr)
        return 2
    out.write_text(json.dumps(paths.run_traffic(tree, str(runs))))
    return 0


def _keys(a: dict, b: dict) -> list:
    """The keys of a, then those of b that a lacks."""
    return [*a, *(k for k in b if k not in a)]


def _first_difference(a, b) -> str | None:
    """None if a == b, else the first key at which two dicts differ, or "value"."""
    if a == b:
        return None
    if isinstance(a, dict) and isinstance(b, dict):
        for key in _keys(a, b):
            if a.get(key) != b.get(key):
                return str(key)
    return "value"


def _missing(a, b) -> str | None:
    return "missing in parent" if a is None else "missing in change" if b is None else None


def compare(parent: dict, change: dict) -> list[tuple[str, str | None]]:
    """Per output of two collected sets (:func:`paths.run_traffic`): its label
    and None when the sets agree on it, else their first difference."""
    out = []
    ops_a, ops_b = parent["ops"], change["ops"]
    for label in _keys(ops_a, ops_b):
        a, b = ops_a.get(label), ops_b.get(label)
        diff = _missing(a, b)
        if diff is None and a["digest"] != b["digest"]:
            diff = f"digest {a['digest']} != {b['digest']}"
        elif diff is None and a["problems"] != b["problems"]:
            diff = f"oracle problems {a['problems']} != {b['problems']}"
        out.append((f"op {label}", diff))
    man_a, man_b = parent["manifests"], change["manifests"]
    for label in _keys(man_a, man_b):
        a, b = man_a.get(label), man_b.get(label)
        diff = _missing(a, b)
        if diff is None and a != b:
            artifact = _first_difference(a.get("artifacts"), b.get("artifacts"))
            diff = (f"artifact {artifact} differs" if artifact is not None
                    else f"manifest field {_first_difference(a, b)} differs")
        out.append((f"manifest {label}", diff))
    # each line opens with "ACCEPTANCE <criterion>"
    lines_a, lines_b = ({int(line.split()[1]): _TIMING.sub(")", line) for line in lines}
                        for lines in (parent["acceptance"], change["acceptance"]))
    for n in _keys(lines_a, lines_b):
        a, b = lines_a.get(n), lines_b.get(n)
        diff = _missing(a, b)
        if diff is None and a != b:
            diff = f"{a!r} != {b!r}"
        out.append((f"acceptance {n}", diff))
    return out


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--collect":  # the child process of one tree
        return _collect(Path(argv[1]).resolve(), Path(argv[2]), Path(argv[3]))
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    collected = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, tree in enumerate(argv):
            runs, out = Path(tmp, f"runs{i}"), Path(tmp, f"tree{i}.json")
            status = subprocess.run([sys.executable, __file__, "--collect", tree, str(runs),
                                     str(out)], stdout=sys.stderr).returncode
            if status:
                print(f"error: the traffic on {tree} exited {status}", file=sys.stderr)
                return 2
            collected.append(json.loads(out.read_text()))
    results = compare(*collected)
    for label, diff in results:
        print(f"{label}: {diff or 'equal'}")
    n_diff = sum(diff is not None for _, diff in results)
    print(f"identity: {n_diff} of {len(results)} outputs differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
