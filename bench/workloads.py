"""The benchmark's three workloads: inputs from a seed, one op, its oracle, its digest.

Every input comes from ``replica_rng(seed, i)`` for op ``i``; the package
receives only the generated inputs.  Ops run one at a time in a closed loop.

* ``solve``   one certified solve per op at the ``nbbm solve`` defaults
              (t = 1, delta = 0.01, default grid), cycling the kinds d1, d2,
              d3 (two-sided stationary start) and d1_emp (one-sided start
              from the empirical CDF of 2000 uniform-ball particles).
* ``select``  one replica of the ``nbbm selection`` default per op.
* ``couple``  one red/blue ``coupled_run`` per op: d = 2, N = 200, t = 3.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from nbbm import experiments, kernels, obstacle, sim
from nbbm.core import ParticleEnsemble, empirical_cdf

_GAP_SLACK = 1e-12  # float slack of the certificate checks (acceptance 2 and 3)


def _per(numerator, denominator, scale: float) -> float:
    return scale * numerator / denominator if denominator else 0.0


def _span(totals: dict, name: str, key: str):
    return totals.get(name, {}).get(key, 0)


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


class Workload:
    """Op ``i`` has kind ``kinds[i % len(kinds)]``; a cycle is one op of each kind."""

    name = ""
    kinds: tuple[str, ...] = ()
    op_label = ""   # name of the op timing in the report; may use {kind}
    root_span = ""  # span a traced op opens around run()

    def __init__(self, seed: int):
        self.seed = seed
        self._ready: dict[int, object] = {}

    def prepare(self):
        """Generate the first cycle's inputs (part of set-up)."""
        self._ready = {i: self.make_input(i) for i in range(len(self.kinds))}

    def input(self, i: int):
        return self._ready.pop(i) if i in self._ready else self.make_input(i)

    def kind(self, i: int) -> str:
        return self.kinds[i % len(self.kinds)]

    def start_cycle(self) -> bool:
        """Give every cycle the history a fresh process has; True if it could."""
        return True

    def digest_key(self, i: int) -> str:
        return f"{self.name}/{self.kind(i)}/seed{self.seed}/op{i}"

    # per workload: make_input(i), run(i, inp), check(i, inp, out) -> problems,
    # digest(out) -> hex, observe(out) -> deterministic per-op figures, and
    # layer_values(rec, totals) -> per-layer figures of one traced op, from
    # the op record and the per-span totals of Tracer.op_totals


class Solve(Workload):
    name = "solve"
    kinds = ("d1", "d2", "d3", "d1_emp")
    op_label = "solve_s.{kind}"
    root_span = "obstacle.solve"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.states = {d: obstacle.stationary_state(d) for d in (1, 2, 3)}
        self.two_sided = {d: (st.as_profile(4001, "lower"), st.as_profile(4001, "upper"))
                          for d, st in self.states.items()}

    def make_input(self, i: int):
        kind = self.kind(i)
        if kind == "d1_emp":
            rng = sim.replica_rng(self.seed, i)
            ens = ParticleEnsemble(1, experiments.UniformBallSampler(1).sample(2000, rng))
            return obstacle.SolveRequest(dim=1, initial=empirical_cdf(ens),
                                         horizon=1.0, step_size=0.01)
        d = int(kind[1])
        lower, upper = self.two_sided[d]
        return obstacle.SolveRequest(dim=d, initial=lower, horizon=1.0,
                                     step_size=0.01, initial_upper=upper)

    def start_cycle(self) -> bool:
        # the image-engine cache is process-global and clears itself at 33
        # entries, so solve time depends on what ran before in the process
        cache = getattr(kernels, "_IMAGE_CACHE", None)
        if cache is None:
            return False
        cache.clear()
        return True

    def digest_key(self, i: int) -> str:
        # the stationary starts do not depend on the seed
        kind = self.kind(i)
        return super().digest_key(i) if kind == "d1_emp" else f"solve/{kind}"

    def run(self, i: int, req):
        return obstacle.solve_sandwich(req)

    def check(self, i: int, req, pair) -> list[str]:
        problems = []
        bound = pair.analytic_gap + pair.grid_gap
        if not pair.measured_gap <= bound + _GAP_SLACK:
            problems.append(f"measured gap {pair.measured_gap!r} exceeds "
                            f"analytic + grid gap {bound!r}")
        if self.kind(i) != "d1_emp":
            st = self.states[req.dim]
            rr = np.linspace(0.0, 1.05 * st.r_infinity, 1500)
            v = st.V(rr)
            if not (np.all(v <= pair.upper(rr) + _GAP_SLACK)
                    and np.all(v >= pair.lower(rr) - _GAP_SLACK)):
                problems.append("stationary V leaves the certified bracket")
        return problems

    def digest(self, pair) -> str:
        return _sha256(pair.lower.to_csv().encode(), pair.upper.to_csv().encode())

    def observe(self, pair) -> dict:
        apriori = pair.analytic_gap + pair.grid_gap
        return {"width": pair.measured_gap, "steps": pair.steps_taken,
                "apriori_gap": apriori, "grid_gap": pair.grid_gap,
                "apriori_over_width": apriori / pair.measured_gap,
                "grid_too_coarse": int(pair.grid_gap > pair.analytic_gap)}

    def layer_values(self, rec: dict, totals: dict) -> dict:
        v = {}
        for route, keys in (("image", ("calls", "busy_s", "nodes")),
                            ("series", ("calls", "busy_s", "nodes", "jumps"))):
            span = f"kernels.{route}"
            for key in keys:
                v[f"{span}.{key}"] = _span(totals, span, key)
            v[f"{span}.ns_per_node"] = _per(_span(totals, span, "busy_s"),
                                            _span(totals, span, "nodes"), 1e9)
        v["obstacle.self_s"] = _span(totals, self.root_span, "self_s")
        v["obstacle.steps"] = rec["steps"]
        v["obstacle.mean_nodes"] = _per(
            v["kernels.image.nodes"] + v["kernels.series.nodes"],
            v["kernels.image.calls"] + v["kernels.series.calls"], 1.0)
        for key in ("apriori_gap", "grid_gap", "apriori_over_width", "grid_too_coarse"):
            v[f"obstacle.{key}"] = rec[key]
        v["width"] = rec["width"]
        v["solve_s"] = rec["wall_s"]
        return v


class Select(Workload):
    name = "select"
    kinds = ("replica",)
    op_label = "replica_s"
    root_span = "experiments.selection_report"
    N, T = 2000, 15.0
    ROWS = ("sup_F_to_V_rep0", "abs_M_to_Rinf_rep0", "window_excess_rep0",
            "fraction_outside_tolerance", "ball_mass_error", "half_space_mass_error")

    def make_input(self, i: int) -> int:
        return int(sim.replica_rng(self.seed, i).integers(0, 2 ** 63))

    def run(self, i: int, seed: int):
        return experiments.selection_report(
            N=self.N, d=1, t=self.T, K=1.0, c=1.0, sampler=experiments.PointMassSampler(1),
            replicas=1, seed=seed, return_snapshots=True)

    def check(self, i: int, seed: int, out) -> list[str]:
        # tolerance rows are single statistical draws: reported, never failed
        rows, snaps = out
        problems = []
        names = [r.statistic for r in rows]
        if sorted(names) != sorted(self.ROWS):
            problems.append(f"report rows {names} differ from {list(self.ROWS)}")
        if not all(math.isfinite(r.value) for r in rows):
            problems.append("nonfinite report value")
        pos = snaps[0]
        if pos.shape != (self.N, 1) or not np.all(np.isfinite(pos)):
            problems.append(f"final positions malformed: shape {pos.shape}")
        return problems

    def digest(self, out) -> str:
        return _sha256(np.ascontiguousarray(out[1][0], dtype=np.float64).tobytes())

    def observe(self, out) -> dict:
        return {"rows_within_tolerance": sum(bool(r.passed) for r in out[0])}

    def layer_values(self, rec: dict, totals: dict) -> dict:
        v = {f"sim.nbbm.{key}": _span(totals, "sim.nbbm", key)
             for key in ("calls", "events", "busy_s")}
        v["sim.nbbm.us_per_event"] = _per(v["sim.nbbm.busy_s"], v["sim.nbbm.events"], 1e6)
        v["experiments.self_s"] = _span(totals, self.root_span, "self_s")
        for span in ("experiments.stationary_state", "core.empirical_cdf"):
            v[f"{span}.calls"] = _span(totals, span, "calls")
            v[f"{span}.busy_s"] = _span(totals, span, "busy_s")
        return v


class Couple(Workload):
    name = "couple"
    kinds = ("run",)
    op_label = "coupled_s"
    root_span = "sim.coupled_run"
    N, T = 200, 3.0
    SCHEDULE = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

    def make_input(self, i: int):
        rng = sim.replica_rng(self.seed, i)
        ens = ParticleEnsemble(2, experiments.UniformBallSampler(2).sample(self.N, rng))
        return ens, rng

    def run(self, i: int, inp):
        ens, rng = inp
        params = sim.SimParams(dim=2, population=self.N, record_schedule=self.SCHEDULE)
        return sim.coupled_run(params, ens, self.T, rng)

    def check(self, i: int, inp, res) -> list[str]:
        problems = []
        if not res.domination_ok:
            problems.append("blue CDF not dominated by the clipped BBM CDF")
        if not res.reconstruction_ok:
            problems.append("blue set differs from its path reconstruction")
        counts = [o.blue_count for o in res.observations]
        if len(counts) != len(self.SCHEDULE) or any(c != self.N for c in counts):
            problems.append(f"blue counts {counts} at {len(self.SCHEDULE)} observations")
        return problems

    def digest(self, res) -> str:
        forest = res.forest_final
        return _sha256(np.ascontiguousarray(forest.positions).tobytes(),
                       np.ascontiguousarray(forest.blue).tobytes())

    def observe(self, res) -> dict:
        return {"events": res.events, "final_population": res.forest_final.population}

    def layer_values(self, rec: dict, totals: dict) -> dict:
        return {"sim.coupled.events": rec["events"],
                "sim.coupled.final_population": rec["final_population"],
                "sim.coupled.us_per_event": _per(rec["wall_s"], rec["events"], 1e6)}


WORKLOADS = {w.name: w for w in (Solve, Select, Couple)}
