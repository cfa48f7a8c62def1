import inspect
import json
import math
import subprocess
import sys

import pytest

from nbbm.cli import SUBCOMMANDS, RunConfig, main, parse_config, run, serialize_config
from nbbm.experiments import hydrodynamic_report, selection_report, stationarity_report
from nbbm.sim import replica_rng


def schema(sub) -> dict:
    """{key: (kind, default)} of a subcommand, read from the keyword-only
    parameters of its function; a kind is the annotation's text."""
    params = inspect.signature(SUBCOMMANDS[sub]).parameters.values()
    return {p.name: (p.annotation, p.default) for p in params if p.kind is p.KEYWORD_ONLY}


def random_config(rng) -> RunConfig:
    sub = list(SUBCOMMANDS)[int(rng.integers(len(SUBCOMMANDS)))]
    floats = lambda: tuple(sorted(rng.uniform(0.1, 5.0, int(rng.integers(1, 5)))))
    draw = {
        "int": lambda: int(rng.integers(1, 5000)),
        "Dim": lambda: int(rng.integers(1, 13)),
        "Pairs": lambda: int(rng.integers(2, 5000)),
        "float": lambda: float(rng.uniform(0.01, 20.0)),
        "float | None": lambda: None if rng.random() < 0.5 else float(rng.uniform(1e-4, 1e-2)),
        "Fraction": lambda: float(rng.uniform(0.0, 1.0)),
        "bool": lambda: bool(rng.random() < 0.5),
        "str": lambda: ["stationary", "uniform"][int(rng.integers(2))],  # initial
        "Sampler": lambda: ["origin", "uniform-ball", "stationary"][int(rng.integers(3))],
        "Times": floats, "Positives": floats, "Nonnegatives": floats,
    }
    # each key is left at its default with probability 0.4
    params = {key: draw[kind]() for key, (kind, _) in schema(sub).items()
              if rng.random() >= 0.4}
    return RunConfig(sub, seed=int(rng.integers(2 ** 31)), out="x/y",
                     workers=int(rng.integers(1, 4)), params=params)


@pytest.fixture
def parse_text(tmp_path):
    """parse_config on config text written to a file, as the CLI reads it."""
    def parse(text, subcommand, **kw):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return parse_config(str(path), subcommand, **kw)
    return parse


class TestConfig:
    @pytest.mark.parametrize("sub", list(SUBCOMMANDS))
    def test_round_trip_every_key(self, sub, parse_text):
        # every float written to the run directory parses back to the same
        # bits; a NaN float used to be written as "none", which no float key
        # parses
        params = {}
        for key, (kind, default) in schema(sub).items():
            if kind in ("float", "float | None", "Fraction"):
                params[key] = math.nextafter(1.0 if key == "c" else 0.7, 0.0)
            elif kind in ("Times", "Positives", "Nonnegatives"):
                params[key] = (1 / 3, 2 / 3)
        cfg = RunConfig(sub, seed=7, out="x", workers=2, params=params)
        text = serialize_config(cfg)
        assert "none" not in text
        assert parse_text(text, sub) == cfg

    def test_round_trip_randomized(self, parse_text):
        rng = replica_rng(99, 0)
        for _ in range(100):
            cfg = random_config(rng)
            text = serialize_config(cfg)
            back = parse_text(text, cfg.subcommand,
                              overrides={"workers": cfg.workers, "out": cfg.out})
            assert back == cfg, f"round trip failed:\n{text}"

    def test_defaults_runnable(self):
        cfg = parse_config(None, "stationary")
        assert cfg.params["d"] == 1
        assert cfg.workers == 1

    def test_driver_defaults_are_the_schema_defaults(self):
        # the nine defaults written both in a subcommand's and in a driver's signature
        drivers = {"hydro": hydrodynamic_report, "selection": selection_report,
                   "stationarity": stationarity_report}
        shared = []
        for sub, driver in drivers.items():
            keys = schema(sub)
            for name, param in inspect.signature(driver).parameters.items():
                if name in keys and param.default is not param.empty:
                    assert param.default == keys[name][1], (sub, name)
                    shared.append(name)
        assert sorted(shared) == sorted(["delta", "grid_step", "tolerance_q90", "window_dt",
                                         "sup_tol", "m_tol", "mass_tol", "snapshot_dt",
                                         "pairwise_tol"])

    def test_unknown_key_named(self, parse_text):
        with pytest.raises(ValueError, match="frobnicate"):
            parse_text("[solve]\nfrobnicate = 3\n", "solve")
        with pytest.raises(ValueError, match="bogus_top"):
            parse_text("bogus_top = 1\n[solve]\n", "solve")
        # a top-level key is not a key of the section
        with pytest.raises(ValueError, match=r"unknown config key 'seed' for \[solve\]"):
            parse_text("[solve]\nseed = 3\n", "solve")

    def test_type_error_names_key(self, parse_text):
        with pytest.raises(ValueError, match="'n' expects int"):
            parse_text("[hydro]\nn = soup\n", "hydro")

    @pytest.mark.parametrize("key, value", [("seed", 1.5), ("seed", -1), ("seed", 2**64),
                                            ("workers", 1.5), ("workers", 0)])
    def test_top_level_counts_named(self, key, value):
        # seed = 1.5 and workers = 1.5 used to be accepted
        with pytest.raises(ValueError, match=f"{key} must be an integer in"):
            RunConfig("stationary", **{key: value})

    def test_constraint_violations(self, parse_text):
        with pytest.raises(ValueError, match="'n'"):
            parse_text("[hydro]\nn = 0\n", "hydro")
        with pytest.raises(ValueError, match="'t'"):
            parse_text("[solve]\nt = -1\n", "solve")
        with pytest.raises(ValueError, match="sampler"):
            parse_text("[hydro]\nsampler = martian\n", "hydro")

    @pytest.mark.parametrize("sub, key, value", [
        ("simulate", "t", "nan"), ("simulate", "t", "inf"), ("solve", "t", "inf"),
        ("hydro", "delta", "nan"), ("stationarity", "burn_in", "inf"),
        ("stationarity", "window", "nan"), ("solve", "grid_step", "nan"),
        ("solve", "grid_step", "inf"), ("solve", "initial_radius", "inf"),
        ("simulate", "sampler_radius", "inf"), ("hydro", "sampler_radius", "nan"),
        ("selection", "window_dt", "inf"), ("selection", "window_dt", "nan"),
        ("stationarity", "snapshot_dt", "inf"), ("selection", "k", "nan"),
        ("selection", "k", "inf"), ("selection", "c", "nan"), ("selection", "c", "inf"),
        ("selection", "sup_tol", "nan"), ("selection", "m_tol", "inf"),
        ("selection", "mass_tol", "nan"), ("hydro", "tolerance_q90", "inf"),
        ("stationarity", "pairwise_tol", "nan"), ("kernel-dump", "t_values", "nan"),
        ("kernel-dump", "t_values", "0.1,inf"), ("kernel-dump", "y_values", "nan"),
        ("kernel-dump", "y_values", "0.5,inf"), ("kernel-dump", "r_values", "nan"),
        ("kernel-dump", "r_values", "1.0,inf")])
    def test_nonfinite_value_exit_two_before_output(self, tmp_path, sub, key, value,
                                                    capsys):
        # t = nan or inf used to run forever (and y_values = nan at d = 2);
        # grid_step = nan, sampler_radius = inf and the others failed inside
        # the run, after manifest.json, and r_values = nan at d = 1 wrote NaN rows
        out = tmp_path / "x"
        assert main([sub, "--out", str(out), "--set", f"{key}={value}"]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub, key, value", [
        ("hydro", "grid_step", "0"), ("solve", "grid_step", "-1e-3"),
        ("solve", "initial_radius", "0"), ("selection", "sampler_radius", "-1"),
        ("selection", "window_dt", "0"), ("stationarity", "snapshot_dt", "0"),
        ("selection", "k", "0"), ("selection", "c", "-0.1"), ("selection", "c", "1.5"),
        ("stationary", "profile_nodes", "0"), ("stationary", "profile_nodes", "1"),
        ("simulate", "n", "0"), ("hydro", "replicas", "0"), ("solve", "d", "13"),
        ("kernel-dump", "d", "0"),
        ("kernel-dump", "t_values", "-1"), ("kernel-dump", "t_values", "0.1,0"),
        ("kernel-dump", "y_values", "-0.5"), ("kernel-dump", "r_values", "-1")])
    def test_nonpositive_value_exit_two_before_output(self, tmp_path, sub, key, value,
                                                      capsys):
        out = tmp_path / "x"
        assert main([sub, "--out", str(out), "--set", f"{key}={value}"]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_windows", ["0", "1"])
    def test_one_window_exit_two_before_output(self, tmp_path, n_windows, capsys):
        # stationarity compares windows pairwise; with one window it passed
        # on a distance of 0.0 between no windows
        out = tmp_path / "x"
        assert main(["stationarity", "--out", str(out), "--set",
                     f"n_windows={n_windows}"]) == 2
        assert "'n_windows'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snapshots", ["0.5,0.2", "0.2,0.2", "-0.1,0.5",
                                           "0.1,nan", "0.1,inf"])
    def test_bad_snapshots_exit_two_before_output(self, tmp_path, snapshots, capsys):
        # a decreasing list used to fail inside the run, naming an internal
        # parameter, after error.json and manifest.json were written
        out = tmp_path / "x"
        assert main(["simulate", "--out", str(out), "--set",
                     f"snapshots={snapshots}"]) == 2
        assert "'snapshots'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            parse_config("/nonexistent/path.cfg", "solve")

    def test_section_mismatch(self, parse_text):
        with pytest.raises(ValueError, match="does not match"):
            parse_text("[solve]\n", "hydro")


class TestRun:
    def test_stationary_defaults(self, tmp_path):
        cfg = parse_config(None, "stationary", {"out": str(tmp_path / "st")})
        assert run(cfg) == 0
        manifest = json.loads((tmp_path / "st" / "manifest.json").read_text())
        assert "v_profile.csv" in manifest["artifacts"]
        assert manifest["exit_status"] == 0

    def test_solve_stationary_contains_edge(self, tmp_path):
        cfg = parse_config(None, "solve",
                           {"out": str(tmp_path / "sv"), "d": "1", "t": "1.0",
                            "grid_step": "0.0005"})
        assert run(cfg) == 0
        summary = json.loads((tmp_path / "sv" / "summary.json").read_text())
        lo, hi = summary["boundary_interval"]
        assert lo <= math.pi / 2 <= hi
        assert summary["analytic_gap"] == pytest.approx(0.03737, abs=5e-5)
        # the grid widens the bracket but the splitting still dominates it
        assert summary["measured_gap"] <= summary["analytic_gap"]
        assert summary["grid_too_coarse"] is False

    def test_selection_small_config_exit_zero(self, tmp_path):
        # mechanics check at reduced scale: loosen the desk tolerances so the
        # small population does not trip them (the full-scale run is in the
        # acceptance suite)
        cfg = parse_config(None, "selection",
                           {"out": str(tmp_path / "sel"), "n": "400", "t": "5.0",
                            "replicas": "2", "sup_tol": "0.2", "m_tol": "0.5",
                            "mass_tol": "0.2"})
        assert run(cfg) == 0
        report = (tmp_path / "sel" / "report.csv").read_text()
        assert report.startswith("experiment,statistic,value")

    def test_kernel_dump(self, tmp_path):
        cfg = parse_config(None, "kernel-dump", {"out": str(tmp_path / "kd")})
        assert run(cfg) == 0
        lines = (tmp_path / "kd" / "kernel_table.csv").read_text().splitlines()
        assert lines[0] == "d,y,r,t,w"
        assert len(lines) == 1 + 3 * 3 * 2

    def test_simulate_writes_schema(self, tmp_path):
        cfg = parse_config(None, "simulate",
                           {"out": str(tmp_path / "sim"), "n": "50", "d": "2",
                            "t": "0.5", "snapshots": "0.25,0.5"})
        assert run(cfg) == 0
        snap = (tmp_path / "sim" / "snapshots.csv").read_text().splitlines()
        assert snap[0] == "time,label,x1,x2"
        ev = (tmp_path / "sim" / "events.csv").read_text().splitlines()
        assert ev[0] == "time,branching_label,removed_label"

    @pytest.mark.parametrize("t, times", [("1.0", ["0.5", "1.0"]),
                                          ("1.5", ["0.5", "1.0", "1.5"])])
    def test_simulate_writes_each_snapshot_once(self, tmp_path, t, times):
        # the default snapshots end at the default t = 1.0
        cfg = parse_config(None, "simulate",
                           {"out": str(tmp_path / "sim"), "n": "3", "t": t})
        assert run(cfg) == 0
        rows = (tmp_path / "sim" / "snapshots.csv").read_text().splitlines()[1:]
        stamps = [row.split(",")[0] for row in rows]
        assert stamps == [s for s in times for _ in range(3)]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_solve_from_profile_file(self, tmp_path, d):
        # v_profile.csv is the profile a one-sided stationary solve starts
        # from, so solving from the file writes the same bytes; so does the
        # file with the terminal row that older versions wrote
        def solve(out, *sets):
            argv = ["solve", "--out", str(tmp_path / out), "--set", f"d={d}"]
            assert main(argv + [a for kv in sets for a in ("--set", kv)]) == 0
            return [(tmp_path / out / name).read_bytes()
                    for name in ("lower.csv", "upper.csv", "summary.json")]

        assert main(["stationary", "--out", str(tmp_path / "st"), "--set", f"d={d}"]) == 0
        text = (tmp_path / "st" / "v_profile.csv").read_text()
        old = tmp_path / "old.csv"
        old.write_text(text + f"30.0,{text.splitlines()[-1].split(',')[1]}\n")
        expected = solve("one_sided", "two_sided=false")
        assert solve("file", f"initial={tmp_path / 'st' / 'v_profile.csv'}") == expected
        assert solve("old_file", f"initial={old}") == expected

    def test_runtime_error_exit_two(self, tmp_path):
        cfg = parse_config(None, "solve",
                           {"out": str(tmp_path / "bad"), "initial": "missing.csv"})
        assert run(cfg) == 2
        assert (tmp_path / "bad" / "error.json").exists()
        # a short profile row used to reach error.json as "tuple index out of range"
        (tmp_path / "short.csv").write_text("r,value\n0.5\n1.0,1.0\n")
        cfg = parse_config(None, "solve", {"out": str(tmp_path / "short"),
                                           "initial": str(tmp_path / "short.csv")})
        assert run(cfg) == 2
        error = json.loads((tmp_path / "short" / "error.json").read_text())["error"]
        assert error == "profile CSV line 2 is not 'r,value': '0.5'"


class TestDeterminism:
    def _hydro_cfg(self, out, workers):
        return parse_config(None, "hydro",
                            {"out": out, "n": "150", "t": "0.25",
                             "replicas": "2", "grid_step": "0.002",
                             "tolerance_q90": "0.5",
                             "workers": str(workers), "seed": "9"})

    def test_manifest_identical_across_reruns_and_workers(self, tmp_path):
        manifests = []
        for i, workers in enumerate((1, 1, 2)):
            out = str(tmp_path / f"run{i}")
            assert run(self._hydro_cfg(out, workers)) == 0
            manifests.append((tmp_path / f"run{i}" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1] == manifests[2]

    def test_artifact_bytes_identical(self, tmp_path):
        for i in range(2):
            assert run(self._hydro_cfg(str(tmp_path / f"r{i}"), 1)) == 0
        a = (tmp_path / "r0" / "report.csv").read_bytes()
        b = (tmp_path / "r1" / "report.csv").read_bytes()
        assert a == b


class TestCliEntry:
    def test_invalid_subcommand_exit_two(self):
        proc = subprocess.run([sys.executable, "-m", "nbbm.cli", "frobnicate"],
                              capture_output=True)
        assert proc.returncode == 2
        assert b"usage" in proc.stderr.lower() or b"invalid" in proc.stderr.lower()

    def test_main_with_set_overrides(self, tmp_path):
        rc = main(["stationary", "--out", str(tmp_path / "m"), "--set", "d=3"])
        assert rc == 0
        summary = json.loads((tmp_path / "m" / "summary.json").read_text())
        assert summary["r_infinity"] == pytest.approx(math.pi, abs=1e-10)

    def test_bad_set_syntax(self):
        assert main(["stationary", "--set", "nonsense"]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_exit_two_before_output(self, tmp_path, seed, capsys,
                                                      parse_text):
        # -1 used to fail inside the run, after the output directory was made
        out = tmp_path / "neg"
        assert main(["simulate", "--seed", seed, "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match="seed"):
            parse_text(f"seed = {seed}\n[simulate]\n", "simulate")

    @pytest.mark.parametrize("key", ["seed", "workers"])
    def test_bad_int_override_names_key(self, tmp_path, key, capsys):
        # --set seed=abc used to report int()'s message without the key
        out = tmp_path / "x"
        assert main(["stationary", "--out", str(out), "--set", f"{key}=abc"]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_key_exit_two(self, tmp_path):
        assert main(["stationary", "--out", str(tmp_path / "x"),
                     "--set", "zzz=1"]) == 2

    def test_subcommand_key_refused(self, tmp_path, capsys):
        # a top-level subcommand key used to be dropped silently: this ran solve
        cfg = tmp_path / "run.cfg"
        cfg.write_text("subcommand = hydro\n\n[solve]\n")
        out = tmp_path / "x"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown top-level config key 'subcommand'" in capsys.readouterr().err
        assert not out.exists()
