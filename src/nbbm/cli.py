"""Command-line entry point: simulate | solve | stationary | hydro |
selection | stationarity | kernel-dump.

Every run writes its artifacts atomically (temp file, then rename) into the
output directory together with a manifest.json listing each artifact's
SHA-256, so reruns of an unchanged config can be compared byte-for-byte.
Exit status: 0 on success, 1 if any report row failed its tolerance,
2 on usage or runtime errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

from .config import SCHEMAS, RunConfig, parse_config, serialize_config
from .core import ParticleEnsemble, RadialProfile
from .experiments import (PointMassSampler, StationarySampler, UniformBallSampler,
                          hydrodynamic_report, rows_to_csv, selection_report,
                          stationarity_report)
from .kernels import bessel_density, kernel_G, radial_cdf
from .obstacle import SolveRequest, free_boundary_radius, solve_sandwich, stationary_state
from .sim import advance_nbbm, replica_rng

__all__ = ["main", "run"]


def _sampler(name: str, dim: int, radius: float):
    if name == "origin":
        return PointMassSampler(dim)
    if name == "uniform-ball":
        return UniformBallSampler(dim, radius)
    if name == "stationary":
        return StationarySampler(dim)
    raise ValueError(f"unknown sampler {name!r}")


class _ArtifactWriter:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.hashes: dict[str, str] = {}
        os.makedirs(out_dir, exist_ok=True)

    def write(self, name: str, data: str | bytes):
        payload = data.encode() if isinstance(data, str) else data
        target = os.path.join(self.out_dir, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-")
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
        # worker count and output location affect wall time and placement,
        # never results: scrub both so manifests are byte-identical across
        # pool sizes and target directories
        scrubbed = dataclasses.replace(cfg, workers=1, out="")
        body = json.dumps({"artifacts": dict(sorted(self.hashes.items())),
                           "config": serialize_config(scrubbed),
                           "exit_status": exit_status},
                          sort_keys=True, indent=2) + "\n"
        self.write("manifest.json", body)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _snapshot_csv(snaps) -> str:
    """``time,label,x1..xd`` rows for a list of (time, (N, d) positions)."""
    lines = ["time,label," + ",".join(f"x{i+1}" for i in range(snaps[0][1].shape[1]))]
    for t, pos in snaps:
        for label, row in enumerate(pos):
            lines.append(f"{float(t)!r},{label}," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _initial_profile(p: dict, d: int) -> tuple[RadialProfile, RadialProfile | None]:
    name = p["initial"]
    if name == "stationary":
        st = stationary_state(d)
        if p["two_sided"]:
            return st.as_profile(4001, "lower"), st.as_profile(4001, "upper")
        return st.as_profile(4001, "nearest"), None
    if name == "uniform":
        return UniformBallSampler(d, p["initial_radius"]).limit_profile(), None
    with open(name) as fh:
        return RadialProfile.from_csv(fh.read()), None


# ---------------------------------------------------------------------------
# Subcommand runners (each returns a list of failed-row counts)
# ---------------------------------------------------------------------------

def _run_simulate(cfg: RunConfig, w: _ArtifactWriter) -> int:
    p = cfg.params
    d, n = p["d"], p["n"]
    sampler = _sampler(p["sampler"], d, p["sampler_radius"])
    rng = replica_rng(cfg.seed, 0)
    ens = ParticleEnsemble(d, sampler.sample(n, rng))
    times = [s for s in p["snapshots"] if s <= p["t"]]
    if not times or times[-1] < p["t"]:
        times.append(p["t"])  # the final state is a snapshot, written once
    final, log = advance_nbbm(ens, np.diff([0.0, *times]), rng)
    w.write("snapshots.csv", _snapshot_csv([(s, r.positions)
                                            for s, r in zip(times, log.reads)]))
    ev_lines = ["time,branching_label,removed_label"] + [
        f"{float(when)!r},{k},{ell}"
        for when, k, ell in zip(log.times, log.branching, log.removed)]
    w.write("events.csv", "\n".join(ev_lines) + "\n")
    w.write("summary.json", _json_dumps({
        "n": n, "d": d, "t": p["t"], "events": len(log),
        "final_max_radius": float(np.max(np.linalg.norm(final.positions, axis=1))),
    }))
    return 0


def _run_solve(cfg: RunConfig, w: _ArtifactWriter) -> int:
    p = cfg.params
    d = p["d"]
    initial, initial_upper = _initial_profile(p, d)
    pair = solve_sandwich(SolveRequest(
        dim=d, initial=initial, horizon=p["t"], step_size=p["delta"],
        grid_step=p["grid_step"], initial_upper=initial_upper))
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
    return 0


def _run_stationary(cfg: RunConfig, w: _ArtifactWriter) -> int:
    p = cfg.params
    st = stationary_state(p["d"])
    prof = st.as_profile(p["profile_nodes"], "nearest")
    w.write("v_profile.csv", prof.to_csv())
    rr = np.linspace(0.0, st.r_infinity, 64)
    w.write("summary.json", _json_dumps({
        "d": st.dim, "r_infinity": st.r_infinity, "normalizer": st.normalizer,
        "V_at_R": float(st.V(st.r_infinity)),
        "U_samples": {repr(float(r)): float(st.U(r)) for r in rr[::8]},
    }))
    return 0


def _write_report(w: _ArtifactWriter, rows) -> int:
    w.write("report.csv", rows_to_csv(rows))
    failed = [r for r in rows if not r.passed]
    w.write("summary.json", _json_dumps({
        "rows": len(rows), "failed": len(failed),
        "failed_statistics": [r.statistic for r in failed],
        "headline": {r.statistic: r.value for r in rows
                     if math.isfinite(r.tolerance)},
    }))
    return len(failed)


def _write_replica_snapshots(w: _ArtifactWriter, snaps, t: float):
    for rep, pos in enumerate(snaps):
        w.write(f"rep{rep}/final.csv", _snapshot_csv([(t, pos)]))


def _run_hydro(cfg: RunConfig, w: _ArtifactWriter) -> int:
    p = cfg.params
    sampler = _sampler(p["sampler"], p["d"], p["sampler_radius"])
    out = hydrodynamic_report(p["n"], p["d"], p["t"], sampler, p["replicas"],
                              cfg.seed, p["delta"], p["grid_step"],
                              p["tolerance_q90"], workers=cfg.workers,
                              return_snapshots=p["keep_snapshots"])
    rows = out
    if p["keep_snapshots"]:
        rows, snaps = out
        _write_replica_snapshots(w, snaps, p["t"])
    return _write_report(w, rows)


def _run_selection(cfg: RunConfig, w: _ArtifactWriter) -> int:
    p = cfg.params
    sampler = _sampler(p["sampler"], p["d"], p["sampler_radius"])
    out = selection_report(p["n"], p["d"], p["t"], p["k"], p["c"], sampler,
                           p["replicas"], cfg.seed, p["window_dt"],
                           p["sup_tol"], p["m_tol"], p["mass_tol"],
                           workers=cfg.workers,
                           return_snapshots=p["keep_snapshots"])
    rows = out
    if p["keep_snapshots"]:
        rows, snaps = out
        _write_replica_snapshots(w, snaps, p["t"])
    return _write_report(w, rows)


def _run_stationarity(cfg: RunConfig, w: _ArtifactWriter) -> int:
    p = cfg.params
    rows = stationarity_report(p["n"], p["d"], p["burn_in"], p["window"],
                               p["n_windows"], cfg.seed, p["snapshot_dt"],
                               p["pairwise_tol"])
    return _write_report(w, rows)


def _run_kernel_dump(cfg: RunConfig, w: _ArtifactWriter) -> int:
    p = cfg.params
    d = p["d"]
    lines = ["d,y,r,t,w,g,G"]
    for y in p["y_values"]:
        for r in p["r_values"]:
            for t in p["t_values"]:
                lines.append(f"{d},{y!r},{r!r},{t!r},"
                             f"{radial_cdf(d, y, r, t)!r},"
                             f"{bessel_density(d, y, r, t)!r},"
                             f"{kernel_G(d, y, r, t)!r}")
    w.write("kernel_table.csv", "\n".join(lines) + "\n")
    return 0


_RUNNERS = {
    "simulate": _run_simulate,
    "solve": _run_solve,
    "stationary": _run_stationary,
    "hydro": _run_hydro,
    "selection": _run_selection,
    "stationarity": _run_stationarity,
    "kernel-dump": _run_kernel_dump,
}


def run(cfg: RunConfig) -> int:
    """Execute a config; return the process exit status (0, 1, or 2)."""
    writer = _ArtifactWriter(cfg.default_out())
    try:
        failed = _RUNNERS[cfg.subcommand](cfg, writer)
        status = 1 if failed else 0
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
    for name in SCHEMAS:
        defaults = ", ".join(f"{k}={'none' if v is None else v}"
                             for k, (_, v) in SCHEMAS[name].items())
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
