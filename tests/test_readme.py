import re
import subprocess
import sys
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    # the README's python block must run against the current API
    blocks = re.findall(r"```python\n(.*?)```", _README.read_text(), re.S)
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
