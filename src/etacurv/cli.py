"""Command-line front end: solve, radial, props, verify.

Configs are plain text, one "key = value" per line, '#' to end of line
as comment.  Dotted keys group related settings; unknown keys are hard
errors so typos cannot silently fall back to defaults.

Exit codes: 0 success, 1 configuration or I/O error, 2 solver failure,
3 certificate failure.  Diagnostics go to standard error.
"""

import argparse
import os
import re
import sys

import numpy as np

from . import radial, svgplot
from .certify import (
    Certificate,
    check_admissibility,
    check_comparison,
    check_maximum_principle,
    property_battery,
    standard_certificates,
)
from .cones import NotAdmissible
from .domain import DomainShape
from .expr import DomainError, validate_psi
from .geometry import batch_geometry
from .grid import all_derivatives, build_grid
from .solver import (
    NegativePsi,
    NewtonParams,
    NoInitialGuess,
    ProblemSpec,
    SolverFailure,
    continuation_solve,
    effective_schedule,
    initial_guess,
    residual,
    write_solution,
)


class ConfigError(Exception):
    """Configuration-level failure; the command exits with code 1."""


class ParseError(ConfigError):
    def __init__(self, msg, line):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class UnknownKey(ConfigError):
    pass


class MissingKey(ConfigError):
    pass


class GridMismatch(ConfigError):
    """Stored solution does not belong to the config's grid."""


def _as_int(raw):
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got '{raw}'")


def _as_float(raw):
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got '{raw}'")


def _as_floats(raw):
    return [_as_float(part.strip()) for part in raw.split(",")]


def _as_ints(raw):
    return [_as_int(part.strip()) for part in raw.split(",")]


# key -> (value parser, default), in the order config_echo writes the keys;
# this table is the whole schema, and the one place each default is stated
_KEYS = {
    "n": (_as_int, None),
    "h": (_as_float, 1.0 / 32.0),
    "domain.kind": (str, None),
    "domain.r0": (_as_float, None),
    "domain.semiaxes": (_as_floats, None),
    "psi": (str, None),
    "psi.lower": (str, None),
    "subsolution": (str, None),
    "eps.schedule": (_as_floats, ProblemSpec.eps_schedule),
    "newton.tol_residual": (_as_float, NewtonParams.tol_residual),
    "newton.max_iter": (_as_int, NewtonParams.max_iter),
    "newton.min_step": (_as_float, NewtonParams.min_step),
    "battery.seed": (_as_int, 42),
    "battery.samples": (_as_int, 10000),
    "battery.dims": (_as_ints, (2, 3, 4, 5, 6)),
    "radial.steps": (_as_int, 4096),
    "radial.tol": (_as_float, 1e-10),
    "radial.eps": (_as_float, 0.0),
    "output.prefix": (str, "etacurv"),
}

_REQUIRED = ("n", "domain.kind", "psi")


class Config:
    """Parsed key/value document; values already typed per _KEYS."""

    def __init__(self, values=()):
        self.values = dict(values)

    def get(self, key):
        """The document's value for key, else the schema default."""
        return self.values.get(key, _KEYS[key][1])


def load_config(path):
    """Strict parse: every key must be known, required keys present."""
    with open(path) as fh:
        raw = fh.read()
    values = {}
    unknown = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ParseError("expected 'key = value'", lineno)
        key, _, val = text.partition("=")
        key = key.strip()
        val = val.strip()
        if not key:
            raise ParseError("empty key", lineno)
        if key not in _KEYS:
            unknown.append(f"'{key}' (line {lineno})")
            continue
        if key in values:
            raise ParseError(f"duplicate key '{key}'", lineno)
        if not val:
            raise ParseError(f"empty value for '{key}'", lineno)
        try:
            values[key] = _KEYS[key][0](val)
        except ValueError as exc:
            raise ParseError(f"key '{key}': {exc}", lineno)
    if unknown:
        raise UnknownKey("unknown keys: " + ", ".join(unknown))
    missing = [key for key in _REQUIRED if key not in values]
    if missing:
        raise MissingKey("missing required keys: " + ", ".join(missing))
    kind = values["domain.kind"]
    if kind not in ("ball", "ellipse", "ellipsoid"):
        raise ConfigError(
            f"domain.kind must be ball, ellipse or ellipsoid, got '{kind}'")
    if kind == "ball" and "domain.r0" not in values:
        raise MissingKey("domain.kind = ball needs domain.r0")
    if kind != "ball" and "domain.semiaxes" not in values:
        raise MissingKey(f"domain.kind = {kind} needs domain.semiaxes")
    return Config(values)


def build_problem(cfg):
    """Config -> ProblemSpec; validation errors surface as ConfigError."""
    try:
        n = cfg.get("n")
        kind = cfg.get("domain.kind")
        if kind == "ball":
            shape = DomainShape((cfg.get("domain.r0"),) * n)
        else:
            axes = tuple(cfg.get("domain.semiaxes"))
            expected = 2 if kind == "ellipse" else 3
            if len(axes) != expected:
                raise ValueError(
                    f"domain.kind = {kind} needs {expected} semiaxes, "
                    f"got {len(axes)}")
            shape = DomainShape(axes)
        return ProblemSpec(
            n=n,
            shape=shape,
            psi=cfg.get("psi"),
            h=cfg.get("h"),
            psi_lower=cfg.get("psi.lower"),
            subsolution=cfg.get("subsolution"),
            eps_schedule=tuple(cfg.get("eps.schedule")),
            newton=NewtonParams(
                tol_residual=cfg.get("newton.tol_residual"),
                max_iter=cfg.get("newton.max_iter"),
                min_step=cfg.get("newton.min_step"),
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt_value(v):
    if isinstance(v, (list, tuple)):
        return ", ".join(map(_fmt_value, v))
    # floats with 17 significant digits, so the echo round-trips exactly
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def config_echo(cfg, spec=None):
    """Effective config as 'key = value' lines: every key of _KEYS in its
    order, with the document's value or the schema default, leaving out
    keys whose value is None.  spec is not read; it is accepted for
    callers that still pass the problem built from cfg."""
    return [f"{key} = {_fmt_value(value)}" for key in _KEYS
            if (value := cfg.get(key)) is not None]


def _check_psi(spec):
    """Hard-fail on negative samples; soft-warn on the advisory checks."""
    rep = validate_psi(spec.psi, spec)
    if not rep.nonnegative:
        where = "(" + ", ".join(f"{c:.6g}" for c in rep.argmin[0]) + ")"
        raise ConfigError(
            f"psi takes negative values: min {rep.min_psi:.6g} at x={where}")
    if not rep.monotone_z:
        print(f"warning: psi_z sampled negative (min {rep.min_psi_z:.3g}); "
              "uniqueness is not guaranteed", file=sys.stderr)
    if rep.min_gap is not None and rep.min_gap < 0.0:
        print(f"warning: psi dips below psi.lower by {-rep.min_gap:.3g}",
              file=sys.stderr)
    return rep


def _plane_nodes(grid):
    """Plot plane: all nodes for n = 2, the x3 = 0 slab for n = 3."""
    if grid.pos.shape[1] == 2:
        return grid.pos, np.arange(grid.size)
    mask = np.abs(grid.pos[:, 2]) < grid.h / 2.0
    return grid.pos[mask][:, :2], np.where(mask)[0]


def _write_report(path, report, echo):
    lines = ["# etacurv solve report"]
    lines += [f"# {entry}" for entry in echo]
    lines += [f"warning {text}" for text in report.warnings]
    for st in report.stages:
        lines.append(
            f"stage eps={st.eps:.17g} iterations={st.iterations} "
            f"residual={st.residual_norms[-1]:.17g} "
            f"margin={st.min_margin:.17g} sup_u={st.sup_u:.17g} "
            f"sup_du={st.sup_du:.17g} sup_d2u={st.sup_d2u:.17g} "
            f"factorizations={st.factorizations} krylov_iters={st.krylov_iters} "
            f"lu_fill={st.lu_fill}")
    for cert in report.certificates:
        lines.append("certificate " + cert.line())
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


def cmd_solve(cfg, out_dir=".", emit_svg=False):
    spec = build_problem(cfg)
    _check_psi(spec)
    grid = build_grid(spec.shape, spec.h)
    # a subsolution not of position only, or uncertified, is a config error
    try:
        u0 = initial_guess(spec, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    u, report = continuation_solve(spec, grid, u0)
    for text in report.warnings:
        print(f"warning: {text}", file=sys.stderr)
    report.certificates = standard_certificates(u, u0, grid, report)

    prefix = cfg.get("output.prefix")
    echo = config_echo(cfg)
    sol_path = os.path.join(out_dir, f"{prefix}-solution.dat")
    rep_path = os.path.join(out_dir, f"{prefix}-report.txt")
    write_solution(sol_path, spec, grid, u, report=report, config_echo=echo)
    _write_report(rep_path, report, echo)
    if emit_svg:
        pts, idx = _plane_nodes(grid)
        p, r = all_derivatives(grid, u)
        geo = batch_geometry(p, r, coeffs=False)
        svgplot.write_heatmap(
            os.path.join(out_dir, f"{prefix}-u.svg"),
            pts, u[idx], grid.h, title="solution height u")
        svgplot.write_heatmap(
            os.path.join(out_dir, f"{prefix}-margin.svg"),
            pts, geo.margin[idx], grid.h, title="cone margin min eigenvalue")

    n_pass = sum(cert.passed for cert in report.certificates)
    print(f"solve: {report.summary()} certificates={n_pass}/"
          f"{len(report.certificates)} -> {sol_path}")
    for cert in report.certificates:
        if not cert.passed:
            print("certificate failed: " + cert.line(), file=sys.stderr)
    return 0 if n_pass == len(report.certificates) else 3


def cmd_radial(cfg, out_dir="."):
    spec = build_problem(cfg)
    if spec.shape.kind != "ball":
        raise ConfigError(
            f"radial reduction needs a ball domain, got {spec.shape.kind}")
    _check_psi(spec)
    # bad radial.* values, and a psi negative or undefined on the axis,
    # are configuration errors
    try:
        prof = radial.shoot(
            spec.psi, spec.shape.r0, spec.n,
            tol=cfg.get("radial.tol"),
            steps=cfg.get("radial.steps"),
            eps=cfg.get("radial.eps"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    path = os.path.join(out_dir, f"{cfg.get('output.prefix')}-radial.dat")
    text = radial.dump_profile(prof, header_extra=config_echo(cfg))
    with open(path, "w") as fh:
        fh.write(text)
    print(f"radial: u(0)={prof.center_value:.17g} "
          f"boundary_residual={prof.boundary_residual:.3e} -> {path}")
    return 0


def cmd_props(cfg, seed=None, samples=None):
    """The property battery; --seed and --samples override the config."""
    seed = cfg.get("battery.seed") if seed is None else seed
    samples = cfg.get("battery.samples") if samples is None else samples
    dims = tuple(cfg.get("battery.dims"))
    try:
        certs = property_battery(seed=seed, samples=samples, dims=dims)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for cert in certs:
        print(cert.line())
    n_pass = sum(cert.passed for cert in certs)
    print(f"properties: {n_pass}/{len(certs)} pass "
          f"(seed={seed} samples={samples} dims={','.join(map(str, dims))})")
    return 0 if n_pass == len(certs) else 3


_HEADER = re.compile(
    r"# etacurv solution n=(\d+) nodes=(\d+) h=([0-9eE.+-]+)$")


def _read_solution(path, spec, grid):
    """u from a stored solution file, after checking it matches the grid."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise GridMismatch(f"{path}: empty file")
    m = _HEADER.match(lines[0])
    if m is None:
        raise GridMismatch(f"{path}: missing solution header")
    n, nodes, h = int(m.group(1)), int(m.group(2)), float(m.group(3))
    if n != spec.n or nodes != grid.size or h != grid.h:
        raise GridMismatch(
            f"{path}: file has n={n} nodes={nodes} h={h:.17g}, config grid "
            f"has n={spec.n} nodes={grid.size} h={grid.h:.17g}")
    rows = [line.split() for line in lines if not line.startswith("#")]
    if len(rows) != grid.size:
        raise GridMismatch(
            f"{path}: {len(rows)} data rows for {grid.size} nodes")
    data = np.array([[float(v) for v in row] for row in rows])
    # 17-digit decimals round-trip exactly, so coordinates must match bitwise
    if not np.array_equal(data[:, :n], grid.pos):
        raise GridMismatch(f"{path}: node coordinates differ from the grid")
    return data[:, n]


def cmd_verify(solution_path, cfg):
    spec = build_problem(cfg)
    grid = build_grid(spec.shape, spec.h)
    u = _read_solution(solution_path, spec, grid)

    certs = [check_maximum_principle(u), check_admissibility(u, grid)]
    try:
        usub = initial_guess(spec, grid)
    except (ValueError, NoInitialGuess) as exc:
        # no certified start: skip the comparison check
        print(f"note: comparison certificate skipped ({exc})", file=sys.stderr)
    else:
        certs.append(check_comparison(u, usub))
    eps_fin = effective_schedule(spec, grid)[0][-1]
    tol = 10.0 * spec.newton.tol_residual
    try:
        res = residual(spec, grid, u, eps_fin)
        worst = int(np.abs(res).argmax())
        res_inf = float(np.abs(res)[worst])
        certs.append(Certificate("residual_recompute", res_inf <= tol,
                                 worst, res_inf, tol))
    except NotAdmissible as exc:
        certs.append(Certificate("residual_recompute", False,
                                 exc.node, exc.margin, tol))
    for cert in certs:
        print(cert.line())
    n_pass = sum(cert.passed for cert in certs)
    print(f"verify: {n_pass}/{len(certs)} pass ({solution_path})")
    return 0 if n_pass == len(certs) else 3


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError so main can map them to exit 1."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(
        prog="etacurv",
        description="Solvers and checks for the prescribed eta-curvature "
                    "Dirichlet problem over convex domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key = value config file")
        return p

    solve = command("solve", "run the continuation solver and write solution files")
    solve.add_argument("--out", default=".", help="output directory")
    solve.add_argument("--emit-svg", action="store_true",
                       help="also write SVG heatmaps")
    radial = command("radial", "integrate the radial reduction on a ball")
    radial.add_argument("--out", default=".", help="output directory")
    props = command("props", "run the algebraic property battery")
    props.add_argument("--seed", type=int, default=None,
                       help="battery seed override")
    props.add_argument("--samples", type=int, default=None,
                       help="battery sample count override")
    verify = command("verify", "re-run certificates on a stored solution file")
    verify.add_argument("solution", help="stored solution file to check")
    return parser


def _dispatch(args):
    if args.command == "props":
        cfg = load_config(args.config) if args.config else Config()
        return cmd_props(cfg, seed=args.seed, samples=args.samples)
    if not args.config:
        raise ConfigError(f"'{args.command}' requires --config")
    cfg = load_config(args.config)
    if args.command == "solve":
        return cmd_solve(cfg, out_dir=args.out, emit_svg=args.emit_svg)
    if args.command == "radial":
        return cmd_radial(cfg, out_dir=args.out)
    return cmd_verify(args.solution, cfg)


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return _dispatch(args)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverFailure, NoInitialGuess, NotAdmissible, NegativePsi,
            radial.BracketFailure, radial.StiffnessFailure,
            radial.DegenerateTangential) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
