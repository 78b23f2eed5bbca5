"""Workloads, the timed solve pipeline, its correctness gates and metrics.

One pipeline pass does what `etacurv solve` followed by `etacurv verify`
does, plus the radial shooting oracle, by calling the package's public
functions.  Its phases:

    setup   build_grid + first Grid.ops() + initial_guess
    solve   continuation_solve
    write   standard_certificates + write_solution (to a temporary file)
    verify  cli.cmd_verify on that file, twice
    oracle  radial.shoot

Each phase is timed from outside by a speed.PhaseClock.  A traced pass
runs the same code with the wrappers of tracer.py installed and also opens
one span per phase.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from etacurv import cli, radial, solver
from etacurv.certify import standard_certificates
from etacurv.grid import build_grid

from speed import PhaseClock, SpeedProbe
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
R0 = 0.5
WORKLOADS = ("cap2d", "cap3d", "degenerate2d")
SETUP_REPEATS = 5
WARMUP_H = 1.0 / 8.0
#: verify is short (~0.2 s in 2D), so each pass times it twice
VERIFY_PHASES = ("verify", "verify.repeat")
#: relative width of the band the scale parameter is drawn from (seed != 0)
SCALE_BAND = 0.01
#: the closed-form caps must match to 0.1 h^2 (measured 0.036 h^2 at seed 0)
CAP_TOL_H2 = 0.1
#: the degenerate axis gap to the oracle must stay within 5 h^2
ORACLE_TOL_H2 = 5.0
#: the shooting oracle itself must reproduce the closed-form cap profile
ORACLE_CAP_TOL = 1e-8


@dataclass(frozen=True)
class Case:
    """Plain inputs of one workload at one seed."""

    name: str
    n: int
    h: float
    psi: str
    eps_schedule: tuple | None

    def cap_radius(self):
        """Radius R of the exact sphere cap for constant psi = ((n-1)/R)^n."""
        return (self.n - 1) / float(self.psi) ** (1.0 / self.n)


def make_case(name, seed):
    """Seed 0 gives the canonical inputs; any other seed draws the cap
    radius R (caps) or the factor a in psi = a r^2 (degenerate2d) from
    [1 - SCALE_BAND/2, 1 + SCALE_BAND/2]; each reference stays exact."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload '{name}'")
    scale = None
    if seed != 0:
        u = random.Random(f"{name}/{seed}").random()
        scale = 1.0 + SCALE_BAND * (u - 0.5)
    if name == "cap2d":
        psi = "1" if scale is None else repr(1.0 / scale ** 2)
        return Case(name, 2, 1.0 / 64.0, psi, None)
    if name == "cap3d":
        psi = "8" if scale is None else repr((2.0 / scale) ** 3)
        return Case(name, 3, 1.0 / 24.0, psi, None)
    psi = "r^2" if scale is None else f"{scale!r} * r^2"
    return Case(name, 2, 1.0 / 64.0, psi, (1e-1, 1e-2, 1e-3, 1e-4, 0.0))


def _config_text(case):
    lines = [f"n = {case.n}", "domain.kind = ball", f"domain.r0 = {R0!r}",
             f"psi = {case.psi}", f"h = {case.h!r}"]
    if case.eps_schedule is not None:
        lines.append("eps.schedule = " + ", ".join(map(repr, case.eps_schedule)))
    lines.append(f"output.prefix = {case.name}")
    return "\n".join(lines) + "\n"


def _no_span(name, **attrs):
    return contextlib.nullcontext()


class Pipeline:
    """The solve/verify/oracle pipeline of one case, run in workdir."""

    def __init__(self, case, workdir):
        self.case = case
        cfg_path = workdir / f"{case.name}.cfg"
        cfg_path.write_text(_config_text(case))
        self.cfg = cli.load_config(str(cfg_path))
        self.spec = cli.build_problem(self.cfg)
        self.echo = cli.config_echo(self.cfg, self.spec)
        self.sol_path = workdir / f"{case.name}-solution.dat"

    def setup(self, span=_no_span):
        spec = self.spec
        with span("grid.build"):
            grid = build_grid(spec.shape, spec.h)
        with span("grid.ops"):
            grid.ops()
        with span("initial_guess"):
            u0 = solver.initial_guess(spec, grid)
        return grid, u0

    def run(self, probe, tracer=None):
        """One timed pass; returns a Sample with gates evaluated.  Phases
        are timed by a PhaseClock, which probes machine speed around and
        inside them; with a tracer, phases and layers are also spans."""
        spec = self.spec
        span = _no_span if tracer is None else tracer.span
        clock = PhaseClock(probe, None if tracer is None else tracer.pause)
        with clock("setup"), span("setup"):
            grid, u0 = self.setup(span)
        with clock("solve"), span("solve"):
            u, report = solver.continuation_solve(spec, grid, u0)
        with clock("write"):
            with span("certify.standard"):
                certs = standard_certificates(u, u0, grid, report)
                report.certificates = certs
            with span("io.write"):
                solver.write_solution(str(self.sol_path), spec, grid, u,
                                      report=report, config_echo=self.echo)
        out = io.StringIO()
        verify_rc = []
        for phase in VERIFY_PHASES:
            with clock(phase), span("verify"), contextlib.redirect_stdout(out):
                verify_rc.append(cli.cmd_verify(str(self.sol_path), self.cfg))
        with clock("oracle"), span("radial.shoot"):
            prof = radial.shoot(spec.psi, R0, spec.n, eps=report.final.eps)

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        data = self.sol_path.read_bytes()
        sample = Sample(
            clock=clock, report=report,
            newton_iters=sum(st.iterations for st in report.stages),
            sha256=hashlib.sha256(data).hexdigest(), write_bytes=len(data),
            peak_rss_mb=peak_rss_mb)
        sample.err_inf = self._gate_reference(sample, grid, u, prof)
        for cert in certs:
            if not cert.passed:
                sample.fail(f"certificate failed: {cert.line()}")
        if any(verify_rc):
            sample.fail(f"cmd_verify returned {verify_rc}: {out.getvalue()!r}")
        return sample

    def _gate_reference(self, sample, grid, u, prof):
        """Error against the workload's reference, gated by its tolerance."""
        case, h = self.case, self.case.h
        if case.name == "degenerate2d":
            axis = np.where(grid.pos[:, 1] == 0.0)[0]
            gap = np.abs(u[axis] - prof.value(grid.pos[axis, 0]))
            err = float(gap.max())
            tol = ORACLE_TOL_H2 * h * h
            what = "axis gap to radial.shoot"
        else:
            R = case.cap_radius()

            def exact(rho2):
                return -np.sqrt(R * R - rho2) + np.sqrt(R * R - R0 * R0)

            err = float(np.abs(u - exact(np.sum(grid.pos ** 2, axis=1))).max())
            tol = CAP_TOL_H2 * h * h
            what = "error to the closed-form cap"
            oracle_err = float(np.abs(prof.u - exact(prof.r ** 2)).max())
            if not oracle_err <= ORACLE_CAP_TOL:
                sample.fail(f"radial.shoot misses the closed-form cap by "
                            f"{oracle_err:.3e} > {ORACLE_CAP_TOL:.1e}")
        if not err <= tol:
            sample.fail(f"{what} {err:.3e} > {tol:.3e}")
        return err


@dataclass
class Sample:
    clock: PhaseClock
    newton_iters: int
    report: object
    sha256: str
    write_bytes: int
    #: process peak so far: warm-up, set-up repeats and the passes up to this one
    peak_rss_mb: float
    err_inf: float = math.nan
    layers: dict | None = None
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def fail(self, reason):
        self.failures.append(reason)

    def e2e(self, norm=True):
        """End-to-end times of this pass, speed-normalized or wall."""
        t = self.clock.norm if norm else self.clock.wall
        return {"setup_s": t["setup"], "solve_s": t["solve"],
                "total_s": t["setup"] + t["solve"] + t["write"],
                "verify_s": statistics.fmean(t[p] for p in VERIFY_PHASES),
                "oracle_s": t["oracle"]}


def traced_run(pipeline, probe):
    """One pass with every wrapper installed; returns (sample, tracer)."""
    tracer = Tracer()
    tracer.install()
    try:
        sample = pipeline.run(probe, tracer)
    finally:
        tracer.restore()
    sample.layers = layer_metrics(tracer, sample)
    return sample, tracer


#: the phase whose speed factor scales each per-layer time; the rest: solve
LAYER_PHASE = {
    "grid.build_s": "setup", "grid.ops_s": "setup",
    "certify.standard_s": "write", "io.write_s": "write",
    "cli.verify_grid_s": "verify",
    "expr.scalar_s": "oracle", "radial.shoot_s": "oracle",
}


def layer_metrics(tracer, sample):
    """Per-layer metrics of one traced pass (see README.md for each); times
    are speed-normalized with the factor of the phase they ran in."""
    raw = _raw_layer_metrics(tracer, sample)
    for key in raw:
        if key.endswith("_s"):
            raw[key] *= sample.clock.factor(LAYER_PHASE.get(key, "solve"))
    return raw


def _raw_layer_metrics(tracer, sample):
    roots = {}
    for sp in tracer.spans:
        if sp.parent is None:
            roots.setdefault(sp.name, sp)
    solve = roots["solve"]
    below_solve = tracer.children(solve)

    def pick(spans, name):
        return [sp for sp in spans if sp.name == name]

    def total(spans):
        return sum(sp.dur for sp in spans)

    setup = tracer.children(roots["setup"])
    derivs = pick(below_solve, "grid.derivs")
    geo = pick(below_solve, "geometry")
    batch = pick(below_solve, "expr.batch")
    jac = pick(below_solve, "solver.jacobian")
    factor = pick(below_solve, "lu.factor")
    stages = sample.report.stages
    steps = [s for st in stages for s in st.step_lengths]
    trials = sum(1.0 - math.log2(s) for s in steps)
    direct = [sp for sp in below_solve if sp.parent == solve.id]
    jac_nnz = max((sp.attrs["jac_nnz"] for sp in factor), default=0)
    fill_nnz = max((sp.attrs["fill_nnz"] for sp in factor), default=0)
    shoot = roots["radial.shoot"]
    scalar = pick(tracer.children(shoot), "expr.scalar")
    return {
        "grid.build_s": total(pick(setup, "grid.build")),
        "grid.ops_s": total(pick(setup, "grid.ops")),
        "grid.derivs_calls": len(derivs),
        "grid.derivs_s": total(derivs),
        "domain.two_convex_s": total(pick(below_solve, "domain.two_convex")),
        "geometry.calls": len(geo),
        "geometry.node_evals": sum(sp.attrs["nodes"] for sp in geo),
        "geometry.coeffs_s": total(sp for sp in geo if sp.attrs["coeffs"]),
        "geometry.plain_s": total(sp for sp in geo if not sp.attrs["coeffs"]),
        "expr.batch_calls": len(batch),
        "expr.batch_s": total(batch),
        "expr.scalar_calls": len(scalar),
        "expr.scalar_s": total(scalar),
        "radial.shoot_s": shoot.self_s,
        "solver.jacobian_calls": len(jac),
        "solver.jacobian_self_s": sum(sp.self_s for sp in jac),
        "solver.residual_s": total(pick(below_solve, "solver.residual")),
        "solver.stages": len(stages),
        "solver.linesearch_trials": round(trials),
        "solver.linesearch_accept_ratio": len(steps) / trials if trials else 0.0,
        "solver.linesearch_s": total(
            sp for sp in direct
            if sp.name in ("grid.derivs", "geometry", "expr.batch")),
        "lu.factorizations": len(factor),
        "lu.factor_s": total(factor),
        "lu.solve_s": total(pick(below_solve, "lu.solve")),
        "lu.jac_nnz": jac_nnz,
        "lu.fill_nnz": fill_nnz,
        "lu.fill_ratio": fill_nnz / jac_nnz if jac_nnz else 0.0,
        "certify.standard_s": roots["certify.standard"].dur,
        "io.write_s": roots["io.write"].dur,
        "io.write_bytes": sample.write_bytes,
        "cli.verify_grid_s": total(
            pick(tracer.children(roots["verify"]), "cli.verify_grid")),
        "trace.solve_coverage": total(direct) / solve.dur,
    }


#: per-layer metrics that are exact counts: identical on every traced pass
COUNT_METRICS = (
    "grid.derivs_calls", "geometry.calls", "geometry.node_evals",
    "expr.batch_calls", "expr.scalar_calls", "solver.jacobian_calls",
    "solver.stages", "solver.linesearch_trials", "lu.factorizations",
    "lu.jac_nnz", "lu.fill_nnz", "io.write_bytes",
)


@dataclass
class RunResult:
    passes: list        # Sample, or None for a pass that raised
    setups: PhaseClock  # the dedicated set-up repeats
    tracer: Tracer | None = None  # of the last traced pass

    @property
    def good(self):
        return [s for s in self.passes if s is not None and s.ok]


def run_workload(case, seconds, trace, records):
    """Warm up, time SETUP_REPEATS set-ups, then repeat passes for
    `seconds` (at least one).  With trace, the first pass is untraced and
    the rest are traced.  records: a SeedRecords for this case and code."""
    probe = SpeedProbe()
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".run-") as tmp:
        pipe = Pipeline(case, Path(tmp))
        # imports and first-call set-up finish here, on a coarse mesh
        small = replace(pipe.spec, h=WARMUP_H)
        grid = build_grid(small.shape, small.h)
        solver.continuation_solve(small, grid, solver.initial_guess(small, grid))

        setups = PhaseClock(probe)
        for i in range(SETUP_REPEATS):
            with setups(f"setup{i}"):
                pipe.setup()

        result = RunResult(passes=[], setups=setups)
        start = time.perf_counter()
        if trace:
            result.passes.append(_attempt(pipe.run, probe))
        while (len(result.passes) == int(trace)
               or time.perf_counter() - start < seconds):
            if trace:
                out = _attempt(traced_run, pipe, probe)
                result.passes.append(out and out[0])
                result.tracer = out[1] if out else result.tracer
            else:
                result.passes.append(_attempt(pipe.run, probe))
    _cross_check(result.good)
    if result.good:
        records.check(result.good[-1])
    return result


def _attempt(fn, *args):
    """Run one pass; an exception makes it a failed pass, not a crash."""
    try:
        return fn(*args)
    except Exception:  # any error in the program fails this pass only
        traceback.print_exc(file=sys.stderr)
        return None


def _cross_check(good):
    """Every good pass must reproduce the first: solution file and Newton
    iterations, and every count metric among the traced passes."""
    for s in good[1:]:
        if s.sha256 != good[0].sha256:
            s.fail(f"solution sha256 {s.sha256} != {good[0].sha256}")
        if s.newton_iters != good[0].newton_iters:
            s.fail(f"newton_iters {s.newton_iters} != {good[0].newton_iters}")
    traced = [s for s in good if s.layers is not None]
    for s in traced[1:]:
        for key in COUNT_METRICS:
            if s.layers[key] != traced[0].layers[key]:
                s.fail(f"{key} {s.layers[key]} != {traced[0].layers[key]}")


class SeedRecords:
    """Outputs of earlier runs of one workload, seed and source version,
    kept in a JSON file; a later run must reproduce them."""

    def __init__(self, path, key):
        self.path = path
        self.key = key

    def check(self, sample):
        values = {"sha256": sample.sha256, "newton_iters": sample.newton_iters}
        if sample.layers is not None:
            for key in ("lu.factorizations", "lu.fill_nnz"):
                values[key] = sample.layers[key]
        self.path.parent.mkdir(exist_ok=True)
        records = json.loads(self.path.read_text()) if self.path.exists() else {}
        stored = records.setdefault(self.key, {})
        for k, v in values.items():
            if stored.setdefault(k, v) != v:
                sample.fail(f"{k} {v} differs from an earlier run of "
                            f"{self.key}: {stored[k]}")
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def end_to_end(result):
    """End-to-end metrics of an untraced run: speed-normalized medians."""
    good = result.good
    metrics = {k: statistics.median(s.e2e()[k] for s in good)
               for k in good[0].e2e()}
    metrics["setup_s"] = statistics.median(
        list(result.setups.norm.values()) + [s.e2e()["setup_s"] for s in good])
    metrics.update({
        # the first pass's peak: later passes add allocator fragmentation
        "peak_rss_mb": good[0].peak_rss_mb,
        "err_inf": statistics.median(s.err_inf for s in good),
        "newton_iters": statistics.median(s.newton_iters for s in good),
        "pass_rate": len(good) / len(result.passes),
    })
    return metrics


def per_layer(result):
    """Per-layer metrics of a traced run: counts from the first traced pass,
    times as medians, and the solve-time ratio of traced to untraced."""
    traced = [s for s in result.good if s.layers is not None]
    if not traced:
        return {}
    metrics = {}
    for key in traced[0].layers:
        vals = [s.layers[key] for s in traced]
        metrics[key] = vals[0] if key in COUNT_METRICS else statistics.median(vals)
    untraced = result.passes[0]
    if untraced is not None and untraced.ok:
        metrics["trace.overhead_ratio"] = (
            statistics.median(s.e2e()["solve_s"] for s in traced)
            / untraced.e2e()["solve_s"])
    return metrics


def wall_medians(result):
    """Medians of the wall times before normalization, and of the probe."""
    good = result.good
    wall = {k: statistics.median(s.e2e(norm=False)[k] for s in good)
            for k in good[0].e2e()}
    wall["setup_s"] = statistics.median(
        list(result.setups.wall.values())
        + [s.e2e(norm=False)["setup_s"] for s in good])
    wall["probe_s"] = statistics.median(p for s in good for p in s.clock.probes)
    return wall
