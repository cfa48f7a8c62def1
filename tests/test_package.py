import subprocess
import sys
import textwrap

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
