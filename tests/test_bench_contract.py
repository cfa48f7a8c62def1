"""The benchmark's workloads still run against the package.

``bench/workloads.py`` and ``bench/tracing.py`` call nbbm's public API and
wrap its module bindings by name; they are loaded here unchanged, and op 0
of each workload runs under the tracer and passes its own oracle.
"""

import importlib.util
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def bench():
    return _load("workloads"), _load("tracing")


@pytest.mark.parametrize("workload, span", [("solve", "kernels.image"),
                                            ("select", "sim.nbbm"),
                                            ("couple", None)])
def test_op_zero_runs_traced_and_passes_its_oracle(bench, workload, span):
    workloads, tracing = bench
    wl = workloads.WORKLOADS[workload](seed=1)
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span(wl.root_span, op=0):
            inp = wl.make_input(0)
            out = wl.run(0, inp)
    assert tracing.wrapped_bindings() == []
    assert wl.check(0, inp, out) == []
    assert len(wl.digest(out)) == 64
    totals = tracer.op_totals(0)
    if span is not None:
        assert totals[span]["calls"] > 0
