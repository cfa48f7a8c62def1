"""Command-line entry point: simulate | solve | stationary | hydro |
selection | stationarity | kernel-dump.

Each subcommand is the function of its name (``kernel_dump`` for
``kernel-dump``), called as ``(w, seed, workers, **keys)``: its keyword-only
parameters are its config keys, in order, each with its kind (see
``_KINDS``) and default, which ``nbbm <subcommand> --help`` prints.

A run's configuration is flat key=value text, deliberately diff-friendly:
top-level keys (seed, out, workers), then a single ``[subcommand]`` section
of that subcommand's keys.  Every key has a default, so an empty section is
runnable.  Floats serialize with 17 significant digits so configs
round-trip bit-exactly through parse(serialize(config)).  Every value is
checked before the output directory exists.

Every run writes its artifacts atomically (temp file, then rename) into the
output directory together with a manifest.json listing each artifact's
SHA-256, so reruns of an unchanged config can be compared byte-for-byte.
An input file (``solve``'s ``initial=<path>``) enters the manifest's config
as the SHA-256 of its bytes, not as its path.
A report subcommand returns its rows, which the run writes as report.csv
and summary.json.  Exit status: 0 on success, 1 if any report row failed
its tolerance, 2 on usage or runtime errors.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from .core import _MAX_DIM, ParticleEnsemble, RadialProfile, _integer, _positive, max_radius
from .experiments import (PointMassSampler, ReportRow, StationarySampler, UniformBallSampler,
                          hydrodynamic_report, rows_to_csv, selection_report,
                          stationarity_report)
from .kernels import radial_cdf
from .obstacle import SolveRequest, free_boundary_radius, solve_sandwich, stationary_state
from .sim import advance_nbbm, replica_rng

__all__ = ["RunConfig", "parse_config", "serialize_config", "main", "run"]

# A key's kind is its annotation's text (kept as text by the __future__ import).
# Besides int (a count, at least 1), float (positive and finite), float | None,
# bool and str, these aliases name the kinds whose values are checked otherwise.
Dim = Pairs = int  # 1.._MAX_DIM; at least 2, as windows are compared pairwise
Fraction = float  # in [0, 1]
Sampler = str  # a key of _SAMPLERS
Times = Positives = Nonnegatives = tuple[float, ...]

_SAMPLERS = {"origin": lambda d, radius: PointMassSampler(d),
             "uniform-ball": UniformBallSampler,
             "stationary": lambda d, radius: StationarySampler(d)}


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError


def _optfloat(raw: str) -> float | None:
    return None if raw.lower() in ("none", "") else float(raw)


def _floatlist(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _fraction(name: str, value):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a fraction in [0, 1], got {value}")


def _sampler_name(name: str, value):
    if value not in _SAMPLERS:
        raise ValueError(f"unknown sampler {value!r}")


def _listed(what: str, holds):
    """The check that a list of floats ``holds``, else ``ValueError`` saying
    that it must be ``what``."""
    def check(name: str, values):
        if not holds(values):
            raise ValueError(f"{name} must be {what}, got {list(values)}")
    return check


# kind: (parse its text, check its value), the check naming the key
_KINDS = {
    "int": (int, lambda name, v: _integer(name, v, 1)),
    "Dim": (int, lambda name, v: _integer(name, v, 1, _MAX_DIM)),
    "Pairs": (int, lambda name, v: _integer(name, v, 2)),
    "float": (float, _positive),
    "float | None": (_optfloat, lambda name, v: v is None or _positive(name, v)),
    "Fraction": (float, _fraction),
    "bool": (_bool, lambda name, v: None),
    "str": (str, lambda name, v: None),
    "Sampler": (str, _sampler_name),
    "Times": (_floatlist, _listed("finite, nonnegative and strictly increasing",
                                  lambda v: all(0 <= s < math.inf for s in v)
                                  and all(a < b for a, b in zip(v, v[1:])))),
    "Positives": (_floatlist, _listed("positive and finite",
                                      lambda v: all(0 < s < math.inf for s in v))),
    "Nonnegatives": (_floatlist, _listed("finite and nonnegative",
                                         lambda v: all(0 <= s < math.inf for s in v))),
}


def _parse_value(kind: str, raw: str, key: str):
    raw, parse = raw.strip(), _KINDS[kind][0]
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"config key '{key}' expects {parse.__name__.lstrip('_')}, "
                         f"got {raw!r}") from None


def _keys(subcommand: str) -> dict[str, inspect.Parameter]:
    """The config keys of ``subcommand``: its function's keyword-only parameters."""
    if subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    params = inspect.signature(SUBCOMMANDS[subcommand]).parameters.values()
    return {p.name: p for p in params if p.kind is p.KEYWORD_ONLY}


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(f"{v:.17g}" for v in value)
    return str(value)


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    seed: int = 0
    out: str = ""
    workers: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        keys = _keys(self.subcommand)
        for k in self.params:
            if k not in keys:
                raise ValueError(f"unknown config key '{k}' for [{self.subcommand}]")
        merged = {k: self.params.get(k, p.default) for k, p in keys.items()}
        _integer("workers", self.workers, 1)
        _integer("seed", self.seed, 0, 2**64 - 1)
        for k, value in merged.items():
            _KINDS[keys[k].annotation][1](f"config key '{k}'", value)
        object.__setattr__(self, "params", merged)

    def default_out(self) -> str:
        if self.out:
            return self.out
        root = os.environ.get("NBBM_OUT_ROOT", "runs")
        return os.path.join(root, self.subcommand)


def parse_config(path: str | None, subcommand: str,
                 overrides: dict | None = None) -> RunConfig:
    """Build the RunConfig of ``subcommand`` from a config file (or None) and
    CLI-style overrides.  Unknown keys, a top-level ``subcommand`` among them,
    are rejected by name, as is a section other than ``[subcommand]``; type
    errors name the key and expected type.
    """
    top: dict[str, str] = {}
    section: str | None = None
    section_kv: dict[str, str] = {}
    if path is not None:
        if not os.path.exists(path):
            raise FileNotFoundError(f"config file not found: {path}")
        with open(path) as fh:
            text = fh.read()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                if section is not None:
                    raise ValueError("config may contain only one section")
                section = line[1:-1].strip()
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            (section_kv if section is not None else top)[key] = val
    if section is not None and section != subcommand:
        raise ValueError(f"config section [{section}] does not match subcommand {subcommand}")
    keys = _keys(subcommand)

    seed = _parse_value("int", top.pop("seed", "0"), "seed")
    out = top.pop("out", "")
    workers = _parse_value("int", top.pop("workers", "1"), "workers")
    if top:
        raise ValueError(f"unknown top-level config key '{next(iter(top))}'")

    params = {}
    for key, raw in section_kv.items():
        if key not in keys:
            raise ValueError(f"unknown config key '{key}' for [{subcommand}]")
        params[key] = _parse_value(keys[key].annotation, raw, key)
    for key, val in (overrides or {}).items():
        if key == "seed":
            seed = _parse_value("int", str(val), key)
        elif key == "out":
            out = str(val)
        elif key == "workers":
            workers = _parse_value("int", str(val), key)
        elif key in keys:
            params[key] = _parse_value(keys[key].annotation, val, key) \
                if isinstance(val, str) else val
        else:
            raise ValueError(f"unknown config key '{key}' for [{subcommand}]")
    return RunConfig(subcommand, seed, out, workers, params)


def serialize_config(cfg: RunConfig) -> str:
    lines = [f"seed = {cfg.seed}", f"out = {cfg.out}", f"workers = {cfg.workers}",
             "", f"[{cfg.subcommand}]"]
    lines += [f"{key} = {_fmt(cfg.params[key])}" for key in _keys(cfg.subcommand)]
    return "\n".join(lines) + "\n"


class _ArtifactWriter:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.hashes: dict[str, str] = {}
        self.inputs: dict[str, str] = {}  # config key: content hash of the file it names
        os.makedirs(out_dir, exist_ok=True)

    def read(self, key: str, path: str) -> str:
        """The text of the input file that config key ``key`` names; the
        manifest records the SHA-256 of its bytes in place of the path."""
        with open(path, "rb") as fh:
            payload = fh.read()
        self.inputs[key] = "sha256:" + hashlib.sha256(payload).hexdigest()
        return payload.decode()

    def write(self, name: str, data: str | bytes):
        payload = data.encode() if isinstance(data, str) else data
        target = os.path.join(self.out_dir, name)
        fd, tmp = tempfile.mkstemp(dir=self.out_dir, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.hashes[name] = hashlib.sha256(payload).hexdigest()

    def manifest(self, cfg: RunConfig, exit_status: int):
        # worker count, output location and input paths affect wall time and
        # placement, never results: scrub them, an input file standing for its
        # content, so manifests are byte-identical across pool sizes, target
        # directories and copies of an input
        scrubbed = replace(cfg, workers=1, out="", params={**cfg.params, **self.inputs})
        self.write("manifest.json", _json_dumps({
            "artifacts": dict(sorted(self.hashes.items())),
            "config": serialize_config(scrubbed), "exit_status": exit_status}))


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _snapshot_csv(snaps) -> str:
    """``time,label,x1..xd`` rows for a list of (time, (N, d) positions)."""
    lines = ["time,label," + ",".join(f"x{i+1}" for i in range(snaps[0][1].shape[1]))]
    for t, pos in snaps:
        for label, row in enumerate(pos):
            lines.append(f"{float(t)!r},{label}," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def simulate(w: _ArtifactWriter, seed: int, workers: int, *, n: int = 1000, d: Dim = 1,
             t: float = 1.0, sampler: Sampler = "uniform-ball", sampler_radius: float = 1.0,
             snapshots: Times = (0.5, 1.0)) -> None:
    rng = replica_rng(seed, 0)
    ens = ParticleEnsemble(d, _SAMPLERS[sampler](d, sampler_radius).sample(n, rng))
    times = [s for s in snapshots if s <= t]
    if not times or times[-1] < t:
        times.append(t)  # the final state is a snapshot, written once
    final, log = advance_nbbm(ens, np.diff([0.0, *times]), rng)
    w.write("snapshots.csv", _snapshot_csv([(s, r.positions)
                                            for s, r in zip(times, log.reads)]))
    ev_lines = ["time,branching_label,removed_label"] + [
        f"{float(when)!r},{k},{ell}"
        for when, k, ell in zip(log.times, log.branching, log.removed)]
    w.write("events.csv", "\n".join(ev_lines) + "\n")
    w.write("summary.json", _json_dumps({
        "n": n, "d": d, "t": t, "events": len(log),
        "final_max_radius": max_radius(final),
    }))


def solve(w: _ArtifactWriter, seed: int, workers: int, *, d: Dim = 1, t: float = 1.0,
          delta: float = 0.01, grid_step: float | None = None, initial: str = "stationary",
          initial_radius: float = 1.0, two_sided: bool = True) -> None:
    upper = None
    if initial == "stationary":
        st = stationary_state(d)
        lower = st.as_profile(4001, "lower" if two_sided else "nearest")
        if two_sided:
            upper = st.as_profile(4001, "upper")
    elif initial == "uniform":
        lower = UniformBallSampler(d, initial_radius).limit_profile()
    else:
        lower = RadialProfile.from_csv(w.read("initial", initial))
    pair = solve_sandwich(SolveRequest(dim=d, initial=lower, horizon=t, step_size=delta,
                                       grid_step=grid_step, initial_upper=upper))
    lo, hi = free_boundary_radius(pair)
    w.write("lower.csv", pair.lower.to_csv())
    w.write("upper.csv", pair.upper.to_csv())
    w.write("summary.json", _json_dumps({
        "analytic_gap": pair.analytic_gap,
        "grid_gap": pair.grid_gap,
        "measured_gap": pair.measured_gap,
        "boundary_interval": [lo, hi if math.isfinite(hi) else None],
        "steps": pair.steps_taken, "delta": pair.step_size,
        # the grid, not the splitting, dominates the certified width
        "grid_too_coarse": bool(pair.measured_gap > pair.analytic_gap),
    }))


def stationary(w: _ArtifactWriter, seed: int, workers: int, *, d: Dim = 1,
               profile_nodes: Pairs = 4001) -> None:
    st = stationary_state(d)
    w.write("v_profile.csv", st.as_profile(profile_nodes, "nearest").to_csv())
    rr = np.linspace(0.0, st.r_infinity, 64)
    w.write("summary.json", _json_dumps({
        "d": st.dim, "r_infinity": st.r_infinity, "normalizer": st.normalizer,
        "V_at_R": float(st.V(st.r_infinity)),
        "U_samples": {repr(float(r)): float(st.U(r)) for r in rr[::8]},
    }))


def hydro(w: _ArtifactWriter, seed: int, workers: int, *, n: int = 2000, d: Dim = 1,
          t: float = 1.0, replicas: int = 10, delta: float = 0.01,
          grid_step: float | None = None, sampler: Sampler = "uniform-ball",
          sampler_radius: float = 1.0, tolerance_q90: float = 0.05) -> list[ReportRow]:
    return hydrodynamic_report(n, d, t, _SAMPLERS[sampler](d, sampler_radius), replicas,
                               seed, delta, grid_step, tolerance_q90, workers=workers)


def selection(w: _ArtifactWriter, seed: int, workers: int, *, n: int = 2000, d: Dim = 1,
              t: float = 15.0, k: float = 1.0, c: Fraction = 1.0, replicas: int = 10,
              sampler: Sampler = "origin", sampler_radius: float = 1.0,
              window_dt: float = 0.05, sup_tol: float = 0.07, m_tol: float = 0.15,
              mass_tol: float = 0.05) -> list[ReportRow]:
    return selection_report(n, d, t, k, c, _SAMPLERS[sampler](d, sampler_radius), replicas,
                            seed, window_dt, sup_tol, m_tol, mass_tol, workers=workers)


def stationarity(w: _ArtifactWriter, seed: int, workers: int, *, n: int = 1000, d: Dim = 1,
                 burn_in: float = 20.0, window: float = 5.0, n_windows: Pairs = 4,
                 snapshot_dt: float = 0.25, pairwise_tol: float = 0.05) -> list[ReportRow]:
    return stationarity_report(n, d, burn_in, window, n_windows, seed, snapshot_dt,
                               pairwise_tol)


def kernel_dump(w: _ArtifactWriter, seed: int, workers: int, *, d: Dim = 1,
                y_values: Nonnegatives = (0.0, 0.5, 2.0),
                r_values: Nonnegatives = (0.5, 1.0, 2.0),
                t_values: Positives = (0.1, 1.0)) -> None:
    lines = ["d,y,r,t,w"]
    for y in y_values:
        for r in r_values:
            for t in t_values:
                lines.append(f"{d},{y!r},{r!r},{t!r},{radial_cdf(d, y, r, t)!r}")
    w.write("kernel_table.csv", "\n".join(lines) + "\n")


SUBCOMMANDS = {f.__name__.replace("_", "-"): f for f in
               (simulate, solve, stationary, hydro, selection, stationarity, kernel_dump)}


def run(cfg: RunConfig) -> int:
    """Execute a config; return the process exit status (0, 1, or 2)."""
    writer = _ArtifactWriter(cfg.default_out())
    try:
        rows = SUBCOMMANDS[cfg.subcommand](writer, cfg.seed, cfg.workers, **cfg.params)
        status = 0
        if rows is not None:
            failed = [r for r in rows if not r.passed]
            status = 1 if failed else 0
            writer.write("report.csv", rows_to_csv(rows))
            writer.write("summary.json", _json_dumps({
                "rows": len(rows), "failed": len(failed),
                "failed_statistics": [r.statistic for r in failed],
                "headline": {r.statistic: r.value for r in rows
                             if math.isfinite(r.tolerance)},
            }))
    except Exception as exc:
        writer.write("error.json", _json_dumps({"error": str(exc)}))
        writer.manifest(cfg, 2)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    writer.manifest(cfg, status)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nbbm",
        description="Branching Brownian particles with kill-the-furthest "
                    "selection: simulator, certified obstacle solver, reports.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        defaults = ", ".join(f"{k}={'none' if p.default is None else p.default}"
                             for k, p in _keys(name).items())
        sp = sub.add_parser(name, description=f"defaults: {defaults}")
        sp.add_argument("--config", default=None, help="key=value config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--workers", type=int, default=None)
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key of this subcommand")
    args = parser.parse_args(argv)
    overrides: dict = {}
    for kv in args.set:
        if "=" not in kv:
            print(f"error: --set expects KEY=VALUE, got {kv!r}", file=sys.stderr)
            return 2
        key, val = kv.split("=", 1)
        overrides[key.strip()] = val.strip()
    for key in ("seed", "out", "workers"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    try:
        cfg = parse_config(args.config, args.subcommand, overrides)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
