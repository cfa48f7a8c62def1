"""Flat key=value run configuration with one section per subcommand.

The format is deliberately diff-friendly: top-level keys (seed, out,
workers), then a single ``[subcommand]`` section whose keys come from that
subcommand's schema.  Every parameter has a default, so an empty section is
runnable.  Floats serialize with 17 significant digits so configs
round-trip bit-exactly through parse(serialize(config)).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .core import _MAX_DIM, _integer, _positive

__all__ = ["RunConfig", "parse_config", "serialize_config", "SCHEMAS"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(f"{v:.17g}" for v in value)
    return str(value)


def _parse_value(kind: str, raw: str, key: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "optfloat":
            return None if raw.lower() in ("none", "") else float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError
        if kind == "floatlist":
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        return raw  # str
    except ValueError:
        raise ValueError(f"config key '{key}' expects {kind}, got {raw!r}") from None


# (kind, default) per key; None defaults are spelled as optfloat/"none"
SCHEMAS: dict[str, dict[str, tuple[str, object]]] = {
    "simulate": {
        "n": ("int", 1000),
        "d": ("int", 1),
        "t": ("float", 1.0),
        "sampler": ("str", "uniform-ball"),
        "sampler_radius": ("float", 1.0),
        "snapshots": ("floatlist", (0.5, 1.0)),
    },
    "solve": {
        "d": ("int", 1),
        "t": ("float", 1.0),
        "delta": ("float", 0.01),
        "grid_step": ("optfloat", None),
        "initial": ("str", "stationary"),
        "initial_radius": ("float", 1.0),
        "two_sided": ("bool", True),
    },
    "stationary": {
        "d": ("int", 1),
        "profile_nodes": ("int", 4001),
    },
    "hydro": {
        "n": ("int", 2000),
        "d": ("int", 1),
        "t": ("float", 1.0),
        "replicas": ("int", 10),
        "delta": ("float", 0.01),
        "grid_step": ("optfloat", None),
        "sampler": ("str", "uniform-ball"),
        "sampler_radius": ("float", 1.0),
        "tolerance_q90": ("float", 0.05),
    },
    "selection": {
        "n": ("int", 2000),
        "d": ("int", 1),
        "t": ("float", 15.0),
        "k": ("float", 1.0),
        "c": ("float", 1.0),
        "replicas": ("int", 10),
        "sampler": ("str", "origin"),
        "sampler_radius": ("float", 1.0),
        "window_dt": ("float", 0.05),
        "sup_tol": ("float", 0.07),
        "m_tol": ("float", 0.15),
        "mass_tol": ("float", 0.05),
    },
    "stationarity": {
        "n": ("int", 1000),
        "d": ("int", 1),
        "burn_in": ("float", 20.0),
        "window": ("float", 5.0),
        "n_windows": ("int", 4),
        "snapshot_dt": ("float", 0.25),
        "pairwise_tol": ("float", 0.05),
    },
    "kernel-dump": {
        "d": ("int", 1),
        "y_values": ("floatlist", (0.0, 0.5, 2.0)),
        "r_values": ("floatlist", (0.5, 1.0, 2.0)),
        "t_values": ("floatlist", (0.1, 1.0)),
    },
}


def _validate(subcommand: str, p: dict):
    # n_windows >= 2: windows are compared pairwise
    for key, lo, hi in (("n", 1, math.inf), ("replicas", 1, math.inf), ("d", 1, _MAX_DIM),
                        ("n_windows", 2, math.inf), ("profile_nodes", 2, math.inf)):
        if key in p:
            _integer(f"config key '{key}'", p[key], lo, hi)
    for key in ("t", "delta", "sampler_radius", "initial_radius",
                "window_dt", "snapshot_dt", "burn_in", "window", "k",
                "sup_tol", "m_tol", "mass_tol", "tolerance_q90", "pairwise_tol"):
        if key in p:
            _positive(f"config key '{key}'", p[key])
    if p.get("grid_step") is not None:
        _positive("config key 'grid_step'", p["grid_step"])
    if "c" in p and not 0.0 <= p["c"] <= 1.0:
        raise ValueError(f"config key 'c' must be a fraction in [0, 1], got {p['c']}")
    if "t_values" in p and not all(0 < t < math.inf for t in p["t_values"]):
        raise ValueError(f"config key 't_values' must be positive and finite, "
                         f"got {list(p['t_values'])}")
    for key in ("y_values", "r_values"):
        if key in p and not all(0 <= v < math.inf for v in p[key]):
            raise ValueError(f"config key '{key}' must be finite and nonnegative, "
                             f"got {list(p[key])}")
    if subcommand in ("simulate", "hydro", "selection") and \
            p["sampler"] not in ("origin", "uniform-ball", "stationary"):
        raise ValueError(f"unknown sampler {p['sampler']!r}")
    if subcommand == "simulate":
        snaps = p["snapshots"]
        if not all(0 <= s < math.inf for s in snaps) or any(
                b <= a for a, b in zip(snaps, snaps[1:])):
            raise ValueError(f"config key 'snapshots' must be finite, nonnegative "
                             f"and strictly increasing, got {list(snaps)}")


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    seed: int = 0
    out: str = ""
    workers: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.subcommand not in SCHEMAS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        schema = SCHEMAS[self.subcommand]
        merged = {k: default for k, (_, default) in schema.items()}
        for k, v in self.params.items():
            if k not in schema:
                raise ValueError(f"unknown config key '{k}' for [{self.subcommand}]")
            merged[k] = v
        _integer("workers", self.workers, 1)
        _integer("seed", self.seed, 0, 2**64 - 1)
        _validate(self.subcommand, merged)
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
    if subcommand not in SCHEMAS:
        raise ValueError(f"unknown subcommand {subcommand!r}")

    seed = _parse_value("int", top.pop("seed", "0"), "seed")
    out = top.pop("out", "")
    workers = _parse_value("int", top.pop("workers", "1"), "workers")
    if top:
        raise ValueError(f"unknown top-level config key '{next(iter(top))}'")

    schema = SCHEMAS[subcommand]
    params = {}
    for key, raw in section_kv.items():
        if key not in schema:
            raise ValueError(f"unknown config key '{key}' for [{subcommand}]")
        params[key] = _parse_value(schema[key][0], raw, key)
    for key, val in (overrides or {}).items():
        if key == "seed":
            seed = _parse_value("int", str(val), key)
        elif key == "out":
            out = str(val)
        elif key == "workers":
            workers = _parse_value("int", str(val), key)
        elif key in schema:
            params[key] = _parse_value(schema[key][0], str(val), key) \
                if isinstance(val, str) else val
        else:
            raise ValueError(f"unknown config key '{key}' for [{subcommand}]")
    return RunConfig(subcommand, seed, out, workers, params)


def serialize_config(cfg: RunConfig) -> str:
    lines = [f"seed = {cfg.seed}", f"out = {cfg.out}", f"workers = {cfg.workers}",
             "", f"[{cfg.subcommand}]"]
    for key in SCHEMAS[cfg.subcommand]:
        val = cfg.params[key]
        lines.append(f"{key} = {'none' if val is None else _fmt(val)}")
    return "\n".join(lines) + "\n"
