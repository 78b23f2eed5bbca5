"""Command-line front end: solve, radial, props, verify.

Configs are plain text, one "key = value" per line, '#' to end of line
as comment.  Dotted keys group related settings; unknown keys are hard
errors so typos cannot silently fall back to defaults.  A config states
the problem (dimension, domain, psi, eps schedule) and where output
goes; the Newton settings are constants of etacurv.solver, and props
reads no config.

Exit codes: 0 success, 1 configuration or I/O error, 2 solver failure,
3 certificate failure.  Diagnostics go to standard error.
"""

import argparse
import os
import re
import sys

import numpy as np

from . import decimal17, radial, svgplot
from .certify import (
    BATTERY_DIMS,
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
from .grid import MAX_DIM, MAX_LATTICE, all_derivatives, build_grid
from .solver import (
    TOL_RESIDUAL,
    NegativePsi,
    NoInitialGuess,
    ProblemSpec,
    SolverFailure,
    _evaluate,
    continuation_solve,
    effective_schedule,
    initial_guess,
    solution_columns,
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
    "radial.eps": (_as_float, 0.0),
    "output.prefix": (str, "etacurv"),
}

_REQUIRED = ("n", "domain.kind", "psi")


class Config:
    """Parsed key/value document; values already typed per _KEYS."""

    def __init__(self, values):
        self.values = dict(values)

    def get(self, key):
        """The document's value for key, else the schema default."""
        return self.values.get(key, _KEYS[key][1])


def _read_text(path):
    """The text of path; bytes that do not decode are a ConfigError."""
    with open(path, "rb") as fh:
        return _decode(path, fh.read())


def _decode(path, raw):
    """raw decoded as UTF-8 text; bytes that do not decode are a
    ConfigError."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_config(path):
    """Strict parse: every key must be known, required keys present."""
    raw = _read_text(path)
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
    # a ball reads domain.r0, an ellipse or ellipsoid domain.semiaxes
    reads, ignores = (("domain.r0", "domain.semiaxes") if kind == "ball"
                      else ("domain.semiaxes", "domain.r0"))
    if reads not in values:
        raise MissingKey(f"domain.kind = {kind} needs {reads}")
    if ignores in values:
        raise ConfigError(f"domain.kind = {kind} does not read {ignores}")
    return Config(values)


def build_problem(cfg):
    """Config -> ProblemSpec; validation errors surface as ConfigError."""
    try:
        n = cfg.get("n")
        kind = cfg.get("domain.kind")
        if kind == "ball":
            # before the n radii are built: a huge n would exhaust memory
            if n > MAX_DIM:
                raise ValueError(
                    f"n = {n} is above etacurv's dimension limit n <= "
                    f"{MAX_DIM}, the most dimensions a grid of at most "
                    f"{MAX_LATTICE} points can span")
            shape = DomainShape((cfg.get("domain.r0"),) * n)
        else:
            axes = tuple(cfg.get("domain.semiaxes"))
            dims = "n = 2" if kind == "ellipse" else "n >= 3"
            if len(axes) != n or (kind == "ellipse") != (n == 2):
                raise ValueError(
                    f"domain.kind = {kind} needs {dims} and n semiaxes, "
                    f"got n = {n} and {len(axes)} semiaxes")
            shape = DomainShape(axes)
        return ProblemSpec(
            n=n,
            shape=shape,
            psi=cfg.get("psi"),
            h=cfg.get("h"),
            psi_lower=cfg.get("psi.lower"),
            subsolution=cfg.get("subsolution"),
            eps_schedule=cfg.get("eps.schedule"),
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
    """Hard-fail on non-finite or negative samples; a line of text for each
    advisory check that fails."""
    rep = validate_psi(spec.psi, spec)
    where = "(" + ", ".join(f"{c:.6g}" for c in rep.argmin[0]) + ")"
    if not rep.finite:
        raise ConfigError(f"psi is not finite: {rep.min_psi:g} at x={where}")
    if not rep.nonnegative:
        raise ConfigError(
            f"psi takes negative values: min {rep.min_psi:.6g} at x={where}")
    notes = []
    if not rep.monotone_z:
        notes.append(f"psi_z sampled negative (min {rep.min_psi_z:.3g}); "
                     "uniqueness is not guaranteed")
    if rep.min_gap is not None and rep.min_gap < 0.0:
        notes.append(f"psi dips below psi.lower by {-rep.min_gap:.3g}")
    return notes


def _plane_nodes(grid):
    """Plot plane: the slab x3 = ... = xn = 0 (every node for n = 2)."""
    mask = np.all(np.abs(grid.pos[:, 2:]) < grid.h / 2.0, axis=1)
    return grid.pos[mask][:, :2], np.where(mask)[0]


def _stage_line(st):
    rejected = ("" if st.rejected_margin is None
                else f" rejected_margin={st.rejected_margin:.17g}")
    return (f"stage eps={st.eps:.17g} iterations={st.iterations} "
            f"start={st.start}{rejected} "
            f"residual={st.residual_norms[-1]:.17g} "
            f"margin={st.min_margin:.17g} sup_u={st.sup_u:.17g} "
            f"sup_du={st.sup_du:.17g} sup_d2u={st.sup_d2u:.17g} "
            f"inverse={st.inverse} factorizations={st.factorizations} "
            f"refinements={st.refinements} fallbacks={st.fallbacks} "
            f"lu_fill={st.lu_fill}")


def _write_report(path, report, echo, h):
    """The report file: echo, warnings, the stage lines of the spacing-h
    mesh and its error estimate, then each coarse level's warnings, stage
    lines and estimate behind a 'coarse h=...' prefix, then certificates."""
    lines = ["# etacurv solve report"]
    lines += [f"# {entry}" for entry in echo]
    lines += [f"warning {text}" for text in report.warnings]
    level, prefix = report, ""
    while level is not None:
        if level is not report:
            h *= 2.0
            prefix = f"coarse h={h:.17g} "
            lines += [f"{prefix}warning {text}" for text in level.warnings]
        lines += [prefix + _stage_line(st) for st in level.stages]
        if level.error_estimate is not None:
            lines.append(f"{prefix}error_estimate={level.error_estimate:.17g}")
        level = level.coarse
    for cert in report.certificates:
        lines.append("certificate " + cert.line())
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


def cmd_solve(cfg, out_dir=".", emit_svg=False):
    spec = build_problem(cfg)
    psi_notes = _check_psi(spec)
    grid = build_grid(spec.shape, spec.h)
    # a subsolution not of position only, or uncertified, or missing off a
    # ball, is a config error
    try:
        u0 = initial_guess(spec, grid)
    except (ValueError, NoInitialGuess) as exc:
        raise ConfigError(str(exc)) from exc
    u, report = continuation_solve(spec, grid, u0)
    report.warnings[:0] = psi_notes
    report.certificates = standard_certificates(u, u0, grid, report)
    for text in report.warnings:
        print(f"warning: {text}", file=sys.stderr)

    prefix = cfg.get("output.prefix")
    echo = config_echo(cfg)
    sol_path = os.path.join(out_dir, f"{prefix}-solution.dat")
    rep_path = os.path.join(out_dir, f"{prefix}-report.txt")
    write_solution(sol_path, spec, grid, u, report=report, config_echo=echo)
    _write_report(rep_path, report, echo, grid.h)
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
    notes = _check_psi(spec)
    # a bad radial.eps, a psi that reads z, nu or w, and a psi negative or
    # undefined on the axis are configuration errors
    try:
        prof = radial.shoot(spec.psi, spec.shape.r0, spec.n,
                            eps=cfg.get("radial.eps"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for text in notes:
        print(f"warning: {text}", file=sys.stderr)
    path = os.path.join(out_dir, f"{cfg.get('output.prefix')}-radial.dat")
    text = radial.dump_profile(prof, header_extra=config_echo(cfg))
    with open(path, "w") as fh:
        fh.write(text)
    print(f"radial: u(0)={prof.center_value:.17g} "
          f"richardson={prof.richardson_error:.3e} -> {path}")
    return 0


def cmd_props(seed, samples):
    """The property battery over BATTERY_DIMS with the given seed and
    sample count; it reads no config."""
    try:
        certs = property_battery(seed=seed, samples=samples)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for cert in certs:
        print(cert.line())
    n_pass = sum(cert.passed for cert in certs)
    print(f"properties: {n_pass}/{len(certs)} pass "
          f"(seed={seed} samples={samples} "
          f"dims={','.join(map(str, BATTERY_DIMS))})")
    return 0 if n_pass == len(certs) else 3


_HEADER = re.compile(
    r"# etacurv solution n=(\d+) nodes=(\d+) h=([0-9eE.+-]+)$")


def _read_solution(path, spec, grid):
    """u from a stored solution file, after checking it matches the grid,
    as an array of its own.

    The leading '#' lines, the header, are decoded as text; a table after
    them in the form write_solution writes is parsed from the file's
    bytes by decimal17, each value exactly as float() reads it.  Any other
    file is decoded whole and its table read by float() per token, which
    accepts what float() accepts and names the line of a bad row."""
    with open(path, "rb") as fh:
        raw = fh.read()
    body = 0
    while raw.startswith(b"#", body):
        body = raw.find(b"\n", body) + 1 or len(raw)
    lines = _decode(path, raw[:body]).splitlines()
    m = _HEADER.match(lines[0]) if lines else None
    if m is None:
        raise GridMismatch(
            f"{path}: {'missing solution header' if raw else 'empty file'}")
    n, nodes, h = int(m.group(1)), int(m.group(2)), float(m.group(3))
    if n != spec.n or nodes != grid.size or h != grid.h:
        raise GridMismatch(
            f"{path}: file has n={n} nodes={nodes} h={h:.17g}, config grid "
            f"has n={spec.n} nodes={grid.size} h={grid.h:.17g}")
    width = len(solution_columns(n))
    data = decimal17.parse_table(raw, width, body)
    if data is None or len(data) != grid.size:
        data = _rescan(path, _decode(path, raw), grid.size, width)
    # 17-digit decimals round-trip exactly, so coordinates must match bitwise
    if not np.array_equal(data[:, :n], grid.pos):
        raise GridMismatch(f"{path}: node coordinates differ from the grid")
    # a copy: a view of the column would keep the whole table alive
    return data[:, n].copy()


def _rescan(path, text, size, width):
    """The (size, width) table of the rows of text that are not '#' lines,
    each token read by float(); GridMismatch names the row count or the
    line of the first bad row."""
    rows = [(lineno, line)
            for lineno, line in enumerate(text.splitlines(), start=1)
            if not line.startswith("#")]
    if len(rows) != size:
        raise GridMismatch(f"{path}: {len(rows)} data rows for {size} nodes")
    data = np.empty((size, width))
    for k, (lineno, line) in enumerate(rows):
        row = line.split()
        try:
            if len(row) != width:
                raise ValueError(f"{len(row)} columns, expected {width}")
            data[k] = [float(v) for v in row]
        except ValueError as exc:
            raise GridMismatch(f"{path}: line {lineno}: {exc}") from None
    return data


def cmd_verify(solution_path, cfg):
    spec = build_problem(cfg)
    grid = build_grid(spec.shape, spec.h)
    u = _read_solution(solution_path, spec, grid)

    # u is evaluated once, at the final eps: admissibility and the residual
    # read that evaluation, and both name its worst node off the cone
    eps_fin = effective_schedule(spec, grid)[0][0][-1]
    res, (_, _, geo, _), worst = _evaluate(spec, grid, u, eps_fin)
    certs = [check_maximum_principle(u), check_admissibility(geo)]
    try:
        usub = initial_guess(spec, grid)
    except (ValueError, NoInitialGuess) as exc:
        # no certified start: skip the comparison check
        print(f"note: comparison certificate skipped ({exc})", file=sys.stderr)
    else:
        certs.append(check_comparison(u, usub))
    tol = 10.0 * TOL_RESIDUAL
    if res is None:
        certs.append(Certificate("residual_recompute", False, *worst(), tol))
    else:
        node = int(np.abs(res).argmax())
        res_inf = float(np.abs(res)[node])
        certs.append(Certificate("residual_recompute", res_inf <= tol,
                                 node, res_inf, tol))
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
    props = sub.add_parser("props", help="run the algebraic property battery")
    props.add_argument("--seed", type=int, default=42, help="battery seed")
    props.add_argument("--samples", type=int, default=10000,
                       help="samples per property, at least 1")
    verify = command("verify", "re-run certificates on a stored solution file")
    verify.add_argument("solution", help="stored solution file to check")
    return parser


def _dispatch(args):
    if args.command == "props":
        return cmd_props(args.seed, args.samples)
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
    except (SolverFailure, NotAdmissible, NegativePsi,
            radial.StiffnessFailure) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
