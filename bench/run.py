"""Benchmark of nbbm's certified solver and both simulator engines.

Run from the repository root:

    python3 bench/run.py --workload solve|select|couple --seed N --seconds S --trace 0|1

The workload process imports ``nbbm`` from ``src/`` of the same tree, builds
its inputs from the seed, and runs ops one at a time (a closed loop, one
worker) in whole cycles, at least two, until ``--seconds`` have passed.
Before each op it times a fixed reference (``_reference``).  Every op's output
is checked against an exact oracle and hashed; a digest that differs from
the one recorded for the same code, workload, seed and op fails the run.

Output: a table of the workload's figures and a line of machine metadata,
then as the last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones, measured on every other op, which
runs with timing wrappers on the layer bindings (see tracing.py).  The full run
record, spans included, goes to ``bench/out/``.  Exit status: 0 when every
check passed, 1 when one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3  # fresh interpreters that repeat the set-up, besides this one
MIN_CYCLES = 2  # so each solve kind has two samples, and a traced run both sorts
WORKLOAD_NAMES = ("solve", "select", "couple")  # the classes of workloads.py


def _setup(name: str, seed: int):
    """Import nbbm and generate the first cycle's inputs: the timed set-up."""
    t0 = time.perf_counter()
    import nbbm  # noqa: F401  (timed: the package import is part of set-up)
    from workloads import WORKLOADS
    wl = WORKLOADS[name](seed)
    wl.prepare()
    return wl, time.perf_counter() - t0


def _probe_setup(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _reference() -> float:
    """Seconds for a fixed piece of numpy work, run before every op.

    The shared machine's speed drifts by tens of percent over minutes, and
    the drift moves an op and this reference alike, so their ratio is
    steadier than either.  Half of it is FFTs like the image kernel's, half
    a small-array loop like the event simulators'.
    """
    import numpy as np
    from scipy import fft
    x = np.linspace(0.0, 1.0, 1 << 17)
    pos = np.zeros((2000, 1))
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    t0 = time.perf_counter()
    for _ in range(4):
        fft.irfft(fft.rfft(x, 1 << 18) * 0.5, 1 << 18)
    for _ in range(500):
        pos += rng.standard_normal(pos.shape) * 0.01
        int(np.argmax(np.einsum("ij,ij->i", pos, pos)))
    return time.perf_counter() - t0


def _measure(wl, seconds: float, trace: bool, tracer):
    """Run whole cycles, at least two, until ``seconds`` have passed.

    With ``trace``, every other op runs traced, shifted by one each cycle:
    over two cycles each kind runs once traced and once untraced, and the
    traced ops are split between the first cycle and the second."""
    n_kinds = len(wl.kinds)
    ops, pinned = [], True
    t0 = time.perf_counter()
    i = 0
    while True:
        cycle = i // n_kinds
        if i % n_kinds == 0:
            if cycle >= MIN_CYCLES and time.perf_counter() - t0 >= seconds:
                break
            pinned &= wl.start_cycle()
        traced = trace and (cycle + i % n_kinds) % 2 == 1
        inp = wl.input(i)
        rec = {"i": i, "kind": wl.kind(i), "traced": traced, "problems": []}
        rec["ref_s"] = _reference()
        start = time.perf_counter()
        try:
            with tracer.installed() if traced else nullcontext(), \
                    tracer.span(wl.root_span, op=i) if traced else nullcontext():
                out = wl.run(i, inp)
            rec["wall_s"] = time.perf_counter() - start
            rec["problems"] += wl.check(i, inp, out)
            rec["digest"] = wl.digest(out)
            rec.update(wl.observe(out))
        except Exception as exc:  # a failing op is counted, and the loop goes on
            rec.setdefault("wall_s", time.perf_counter() - start)
            rec["problems"].append(f"{type(exc).__name__}: {exc}")
        ops.append(rec)
        i += 1
    return ops, pinned


def _code_id() -> str:
    import numpy
    import scipy
    h = hashlib.sha256(f"{platform.python_version()} {numpy.__version__} "
                       f"{scipy.__version__}".encode())
    for path in sorted((SRC / "nbbm").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_digests(wl, ops):
    """Compare each op's digest with the one recorded for the same code and
    key by earlier runs (and earlier ops of this run), then record new ones."""
    path = OUT / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    code = _code_id()
    for rec in ops:
        if "digest" not in rec:
            continue
        key = f"{code}/{wl.digest_key(rec['i'])}"
        seen = store.setdefault(key, rec["digest"])
        if seen != rec["digest"]:
            rec["problems"].append(f"digest {rec['digest'][:16]} differs from "
                                   f"{seen[:16]} recorded for {key}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(path)


def _machine() -> dict:
    import numpy
    import scipy
    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": platform.processor() or platform.machine()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind == "Unified":
            info[f"l{level}_size"] = size
    return info


def _timing(values: list[float]) -> dict:
    """Median and the highest whole percentile with ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 20:
        p = math.floor(100.0 * (1.0 - 10.0 / len(values)))
        out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return out


def _walls(ops, kind: str, traced: bool) -> list[float]:
    return [r["wall_s"] for r in ops if r["kind"] == kind and r["traced"] == traced]


def _report(wl, ops, setup_s: float, peak_mb: float) -> dict:
    """The figures a user sees, by the names bench/README.md uses."""
    fails = sum(bool(r["problems"]) for r in ops)
    rep = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_mb, "MB"),
           "fail_ratio": (fails / len(ops), "ratio")}
    for kind in wl.kinds:
        rep[wl.op_label.format(kind=kind)] = (_timing(_walls(ops, kind, False)), "s")
        widths = [r["width"] for r in ops if r["kind"] == kind and "width" in r]
        if widths:
            rep[f"width.{kind}"] = (statistics.median(widths), "mass")
    return rep


def _end_to_end(wl, ops, setup_s: float, peak_mb: float) -> dict:
    ratios = [statistics.median(r["wall_s"] / r["ref_s"] for r in ops
                                if r["kind"] == k and not r["traced"]) for k in wl.kinds]
    return {"op_ref": math.exp(statistics.fmean(math.log(m) for m in ratios)),
            "setup_s": setup_s, "peak_rss_mb": peak_mb}


def _per_layer(wl, ops, tracer, names: list[str]) -> dict:
    """Median over the traced ops of each figure.  Solve figures carry the
    kind as a suffix; figures of layers a workload does not exercise are 0."""
    values = dict.fromkeys(names, 0.0)
    overheads = []
    for kind in wl.kinds:
        recs = [r for r in ops if r["kind"] == kind and r["traced"] and not r["problems"]]
        per_op = [wl.layer_values(r, tracer.op_totals(r["i"])) for r in recs]
        suffix = f".{kind}" if wl.name == "solve" else ""
        for key in per_op[0] if per_op else ():
            values[key + suffix] = statistics.median(p[key] for p in per_op)
        overheads.append(statistics.median(_walls(ops, kind, True))
                         - statistics.median(_walls(ops, kind, False)))
    values["trace.overhead_s"] = statistics.fmean(overheads)
    return values


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the set-up and print the seconds")
    args = ap.parse_args(argv)
    if not (SRC / "nbbm" / "__init__.py").is_file():
        print(f"bench: no nbbm package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl, own_setup = _setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    import nbbm
    if Path(nbbm.__file__).resolve().parent != (SRC / "nbbm").resolve():
        print(f"bench: imported nbbm from {nbbm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    declared = _declared()
    # the machine's speed drifts over tens of seconds, so the repeats of the
    # set-up straddle the measured ops
    setup_samples = [own_setup, _probe_setup(args.workload, args.seed)]

    import tracing
    tracer = tracing.Tracer()
    ops, pinned = _measure(wl, args.seconds, bool(args.trace), tracer)
    wrapped_after = tracing.wrapped_bindings()
    setup_samples += [_probe_setup(args.workload, args.seed)
                      for _ in range(SETUP_PROBES - 1)]
    setup_s = statistics.median(setup_samples)
    OUT.mkdir(exist_ok=True)
    _check_digests(wl, ops)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = _report(wl, ops, setup_s, peak_mb)
    if args.trace:
        kind = "per_layer"
        values = _per_layer(wl, ops, tracer, list(declared[kind]))
    else:
        kind = "end_to_end"
        values = _end_to_end(wl, ops, setup_s, peak_mb)
    metrics = {k: (v, declared[kind].get(k)) for k, v in values.items()}
    if set(metrics) != set(declared[kind]) or wrapped_after:
        print(f"bench: metrics {sorted(set(metrics) ^ set(declared[kind]))} disagree "
              f"with BENCHMARK.json, or bindings left wrapped: {wrapped_after}",
              file=sys.stderr)
        return 2

    failed = sum(bool(r["problems"]) for r in ops)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(), "code_id": _code_id(),
        "cache_history_pinned": pinned, "setup_samples_s": setup_samples,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": ops, "spans": tracer.spans,
    }
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for name, (value, unit) in report.items():
        shown = json.dumps(value) if isinstance(value, (dict, list)) else f"{value:.6g}"
        print(f"{name:<20} {shown} {unit}")
    for rec in ops:
        for problem in rec["problems"]:
            print(f"FAIL op {rec['i']} ({rec['kind']}): {problem}")
    print(json.dumps({"machine": record["machine"], "cache_history_pinned": pinned}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
