"""tools/paths.py: its line collector lists a branch that never ran."""

import importlib.util
from pathlib import Path


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


paths = _load("paths", Path(__file__).resolve().parents[1] / "tools" / "paths.py")

PLANTED = '''\
def branchy(x):
    if x > 0:
        return "taken"
    y = -x
    return y


def idle():
    return 0
'''


def test_collector_lists_a_planted_never_taken_branch(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(PLANTED)
    planted = _load("planted", path)
    with paths.LineCollector(tmp_path) as collector:
        assert planted.branchy(1) == "taken"
    missed = paths.unreached(path, collector.hits)
    assert missed["branchy"] == ([4, 5], 4)
    assert missed["idle"] == ([9], 1)
    text = paths.report(tmp_path, collector.hits)
    assert "  branchy  (2 of 4 lines)\n        4  y = -x\n        5  return y" in text
    assert "  idle  (never called)" in text
    assert text.endswith("unreached: 3 of 5 statement lines, in 2 functions (1 never called)")
