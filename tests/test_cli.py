"""End-to-end command tests: config parsing and the exit-code contract."""

import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import etacurv
from etacurv import certify, cli, geometry, solver
from etacurv.certify import check_admissibility
from etacurv.cli import (
    Config,
    ConfigError,
    GridMismatch,
    MissingKey,
    ParseError,
    UnknownKey,
    build_problem,
    load_config,
    main,
)
from etacurv.cones import NotAdmissible
from etacurv.geometry import batch_geometry
from etacurv.grid import MAX_LATTICE, all_derivatives, build_grid
from etacurv.solver import residual

CAP_CFG = """\
# disk cap fixture
n = 2
domain.kind = ball
domain.r0 = 0.5
psi = 1
h = 0.0625
eps.schedule = 1e-1, 1e-2, 0
"""

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the report line standing in for estimate_evidence on a one-stage solve
ONE_STAGE_NOTE = ("estimate_evidence not applicable: no regularized stage to "
                  "compare with: psi > 0 on the grid and no eps > 0 was run")

with open(os.path.join(ROOT, "demos", "configs", "ellipse.cfg")) as fh:
    ELLIPSE_CFG = fh.read()


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(command, cfg, out_dir):
    """etacurv as a process, so an escaped exception shows as a traceback;
    returns (exit code, stderr lines)."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(etacurv.__file__)))
    argv = [sys.executable, "-m", "etacurv.cli", command, "--config", cfg,
            "--out", str(out_dir)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          check=False)
    assert "Traceback" not in proc.stderr
    return proc.returncode, proc.stderr.splitlines()


@pytest.fixture
def cap_cfg(tmp_path):
    return write_cfg(tmp_path, CAP_CFG)


# ---------------------------------------------------------------- config

def test_load_config_minimal(tmp_path):
    cfg = load_config(write_cfg(
        tmp_path, "n = 2\ndomain.kind = ball\ndomain.r0 = 0.5\npsi = 1\n"))
    assert cfg.get("n") == 2
    assert cfg.get("domain.kind") == "ball"
    assert cfg.get("domain.r0") == 0.5
    assert cfg.get("psi") == "1"
    assert "h" not in cfg.values


def test_load_config_unknown_key(tmp_path):
    with pytest.raises(UnknownKey, match=r"'pssi' \(line 4\)"):
        load_config(write_cfg(
            tmp_path, "n = 2\ndomain.kind = ball\ndomain.r0 = 0.5\npssi = 1\n"))


def test_load_config_schedule_array(tmp_path):
    cfg = load_config(write_cfg(
        tmp_path,
        "n = 2\ndomain.kind = ball\ndomain.r0 = 0.5\npsi = 1\n"
        "eps.schedule = 1e-1, 1e-2, 1e-3\n"))
    assert cfg.get("eps.schedule") == [0.1, 0.01, 0.001]


def test_load_config_parse_error_line_number(tmp_path):
    with pytest.raises(ParseError, match="line 2"):
        load_config(write_cfg(tmp_path, "n = 2\nnot a key value pair\n"))


def test_load_config_duplicate_key(tmp_path):
    with pytest.raises(ParseError, match="duplicate"):
        load_config(write_cfg(tmp_path, "n = 2\nn = 3\n"))


def test_load_config_bad_value(tmp_path):
    with pytest.raises(ParseError, match="'n'"):
        load_config(write_cfg(
            tmp_path, "n = two\ndomain.kind = ball\ndomain.r0 = 0.5\npsi = 1\n"))


def test_load_config_missing_required(tmp_path):
    with pytest.raises(MissingKey, match="psi"):
        load_config(write_cfg(tmp_path, "n = 2\ndomain.kind = ball\ndomain.r0 = 0.5\n"))


def test_load_config_missing_domain_param(tmp_path):
    with pytest.raises(MissingKey, match="domain.r0"):
        load_config(write_cfg(tmp_path, "n = 2\ndomain.kind = ball\npsi = 1\n"))


def test_load_config_bad_kind(tmp_path):
    with pytest.raises(ConfigError, match="domain.kind"):
        load_config(write_cfg(
            tmp_path, "n = 2\ndomain.kind = torus\ndomain.r0 = 0.5\npsi = 1\n"))


def test_load_config_comments_and_blanks(tmp_path):
    cfg = load_config(write_cfg(
        tmp_path,
        "# full line comment\n\nn = 2   # trailing comment\n"
        "domain.kind = ball\ndomain.r0 = 0.5\npsi = 1\n"))
    assert cfg.get("n") == 2


def test_build_problem_ellipse_axis_count():
    cfg = Config({"n": 2, "domain.kind": "ellipse",
                  "domain.semiaxes": [0.5, 0.3, 0.2], "psi": "1"})
    with pytest.raises(ConfigError, match="semiaxes"):
        build_problem(cfg)


def test_build_problem_wraps_spec_errors():
    cfg = Config({"n": 1, "domain.kind": "ball", "domain.r0": 0.5, "psi": "1"})
    with pytest.raises(ConfigError, match="n >= 2"):
        build_problem(cfg)


def test_config_echo_fills_defaults():
    cfg = Config({"n": 2, "domain.kind": "ball", "domain.r0": 0.5, "psi": "1"})
    spec = build_problem(cfg)
    echo = cli.config_echo(cfg, spec)
    joined = "\n".join(echo)
    assert "h = 0.03125" in joined
    assert "radial.eps = 0" in joined
    assert "output.prefix = etacurv" in joined
    assert "psi = 1" in joined
    # unset keys are left out; the rest follow the schema's order
    assert [line.split(" = ")[0] for line in echo] == [
        "n", "h", "domain.kind", "domain.r0", "psi", "radial.eps",
        "output.prefix"]


def test_readme_config_table_matches_schema():
    # the README's table of config keys lists every key of the schema, in
    # its order, with the schema's type and default
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("### Config keys\n", 1)[1].split("\n#", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    types = {"integer": cli._as_int, "number": cli._as_float, "text": str,
             "numbers": cli._as_floats}
    assert [row[0] for row in rows] == list(cli._KEYS)
    for key, kind, default, *_ in rows:
        parser, want = cli._KEYS[key]
        assert types[kind] is parser, key
        if default in ("required", "unset"):
            assert want is None, key
            assert (default == "required") == (key in cli._REQUIRED), key
        else:
            got = parser(default)
            assert (tuple(got) if isinstance(got, list) else got) == want, key


# ---------------------------------------------------------------- solve

def test_solve_success(cap_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["solve", "--config", cap_cfg, "--out", str(out)])
    assert rc == 0
    assert (out / "etacurv-solution.dat").exists()
    assert (out / "etacurv-report.txt").exists()
    stdout = capsys.readouterr().out
    assert "certificates=4/4" in stdout
    report = (out / "etacurv-report.txt").read_text()
    assert "certificate maximum_principle=pass" in report
    stages = [ln for ln in report.splitlines() if ln.startswith("stage eps=")]
    assert len(stages) == 3
    # the first stage factorizes at least once; every stage reports its work
    assert "factorizations=0 " not in stages[0]
    assert all(re.search(r" inverse=lu factorizations=\d+ refinements=\d+ "
                         r"fallbacks=0 lu_fill=\d+$", ln)
               for ln in stages)
    # the held factorization is never empty
    assert all(int(ln.rsplit("lu_fill=", 1)[1]) > 0 for ln in stages)
    assert not any(ln.startswith("warning") for ln in report.splitlines())


def test_solve_negative_psi_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CAP_CFG.replace("psi = 1", "psi = -1"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "negative" in capsys.readouterr().err


@pytest.mark.parametrize("psi", ["log(x1)", "sqrt(x1)"])
def test_solve_undefined_psi_exits_1(tmp_path, psi):
    cfg = write_cfg(tmp_path, CAP_CFG.replace("psi = 1", f"psi = {psi}"))
    rc, lines = run_cli("solve", cfg, tmp_path)
    assert rc == 1
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert f"'{psi}'" in lines[0]


@pytest.mark.parametrize("command, old, new", [
    ("solve", "h = 0.0625", "h = -1"),
    ("solve", "h = 0.0625", "h = nan"),
    ("solve", "h = 0.0625", "h = inf"),
    ("solve", "psi = 1", "psi = x3"),
    ("radial", "psi = 1", "psi = x3"),
    # the radial oracle reads position only: psi reading nu, z or w is refused
    ("radial", "psi = 1", "psi = r^2 + 0*nu1"),
    ("radial", "psi = 1", "psi = 1 + z"),
    ("radial", "psi = 1", "psi = 2 * w"),
    # radial.tol left the schema: the radial command must reject the line
    ("radial", "h = 0.0625", "radial.tol = 0"),
    ("radial", "h = 0.0625", "radial.tol = nan"),
    ("radial", "h = 0.0625", "radial.tol = inf"),
    ("radial", "h = 0.0625", "radial.eps = -2"),
    ("radial", "h = 0.0625", "radial.eps = -0.5"),
    ("radial", "h = 0.0625", "radial.eps = nan"),
    ("radial", "h = 0.0625", "radial.eps = inf"),
    ("solve", "eps.schedule = 1e-1, 1e-2, 0", "eps.schedule = 1e-1, nan"),
    ("solve", "eps.schedule = 1e-1, 1e-2, 0", "eps.schedule = inf, 1e-1, 0"),
    # a semiaxis that is not finite
    ("solve", "domain.r0 = 0.5", "domain.r0 = inf"),
    ("solve", "domain.r0 = 0.5", "domain.r0 = nan"),
    ("solve", "domain.semiaxes = 0.5, 0.35", "domain.semiaxes = 0.5, inf"),
    # a scale outside [1e-100, 1e100], and a lattice box too large to
    # build: refused before any grid is allocated
    ("solve", "domain.r0 = 0.5", "domain.r0 = 1e-300"),
    ("solve", "domain.r0 = 0.5", "domain.r0 = 1e300"),
    ("solve", "domain.r0 = 0.5", "domain.r0 = 1e50"),
    ("solve", "h = 0.0625", "h = 1e-300"),
    # a dimension below 2, and an ellipse outside n = 2
    ("solve", "n = 2", "n = 1"),
    ("radial", "n = 2", "n = 1"),
    ("solve", "domain.semiaxes = 0.5, 0.35", "domain.semiaxes = 0.5, 0.35, 0.3"),
    # a subsolution that reads the height, and one that fails its certificate
    ("solve", "subsolution = 0.2 * ((x1/0.5)^2 + (x2/0.35)^2 - 1)",
     "subsolution = 0.1*z"),
    ("solve", "subsolution = 0.2 * ((x1/0.5)^2 + (x2/0.35)^2 - 1)",
     "subsolution = 1"),
])
def test_bad_config_value_exits_1_with_one_line(tmp_path, command, old, new):
    # old names the line to replace, in the cap fixture or the ellipse demo
    base = CAP_CFG if old in CAP_CFG else ELLIPSE_CFG
    assert old in base
    rc, lines = run_cli(command, write_cfg(tmp_path, base.replace(old, new)),
                        tmp_path)
    assert rc == 1
    assert len(lines) == 1
    assert lines[0].startswith("error:")


@pytest.mark.parametrize("command", ["solve", "radial"])
def test_huge_dimension_exits_1_under_a_memory_cap(tmp_path, command):
    # n radii of a ball would take 8 GB of pointers; MAX_DIM is the limit of
    # every command, so the config is refused before they are built.
    # The process runs under a 1.5 GB address-space cap, so that building
    # them fails fast with a MemoryError traceback instead of filling memory.
    resource = pytest.importorskip("resource")
    cap = 3 << 29

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    cfg = write_cfg(tmp_path, CAP_CFG.replace("n = 2", "n = 1000000000"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(etacurv.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "etacurv.cli", command, "--config", cfg,
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, preexec_fn=limit,
        check=False)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [
        "error: n = 1000000000 is above etacurv's dimension limit n <= 15, "
        f"the most dimensions a grid of at most {MAX_LATTICE} points can span"]


#: the keys that left the schema, each with the value it used to default to
REMOVED_KEYS = {
    "newton.tol_residual": "1e-10",
    "newton.max_iter": "40",
    "newton.min_step": "0.0009765625",
    "battery.seed": "42",
    "battery.samples": "10000",
    "battery.dims": "2, 3, 4, 5, 6",
    "radial.steps": "4096",
    "radial.tol": "1e-10",
}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_exits_1_as_unknown(tmp_path, key):
    text = CAP_CFG + f"{key} = {REMOVED_KEYS[key]}\n"
    rc, lines = run_cli("solve", write_cfg(tmp_path, text), tmp_path)
    assert rc == 1
    assert lines == [
        f"error: unknown keys: '{key}' (line {len(text.splitlines())})"]


@pytest.mark.parametrize("kind, extra", [
    ("ball", "domain.semiaxes = 0.5, 0.3"),
    ("ellipse", "domain.r0 = 0.5"),
])
def test_domain_key_the_kind_does_not_read_exits_1(tmp_path, kind, extra):
    base = CAP_CFG if kind == "ball" else ELLIPSE_CFG
    rc, lines = run_cli("solve", write_cfg(tmp_path, base + extra + "\n"),
                        tmp_path)
    assert rc == 1
    key = extra.split(" = ")[0]
    assert lines == [f"error: domain.kind = {kind} does not read {key}"]


@pytest.mark.parametrize("text", [
    "\n".join(line for line in ELLIPSE_CFG.splitlines()
              if not line.startswith("subsolution")),
    "n = 3\ndomain.kind = ellipsoid\ndomain.semiaxes = 0.5, 0.4, 0.3\n"
    "psi = 8\nh = 0.125\n",
])
def test_solve_off_a_ball_without_subsolution_exits_1(tmp_path, text):
    # the README calls the subsolution key required off balls
    rc, lines = run_cli("solve", write_cfg(tmp_path, text), tmp_path)
    assert rc == 1
    assert lines == ["error: automatic caps exist only on balls; "
                     "provide a subsolution"]


@pytest.mark.parametrize("command", ["solve", "radial"])
@pytest.mark.parametrize("psi", ["1e400", "exp(1000)"])
def test_nonfinite_psi_exits_1_naming_the_sample(tmp_path, command, psi):
    # run as a process: an overflow warning would add a stderr line
    cfg = write_cfg(tmp_path, CAP_CFG.replace("psi = 1", f"psi = {psi}"))
    rc, lines = run_cli(command, cfg, tmp_path)
    assert rc == 1
    assert len(lines) == 1
    assert re.fullmatch(r"error: psi is not finite: inf at x=\(\S+, \S+\)",
                        lines[0])


def test_undecodable_config_exits_1_with_one_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(CAP_CFG.encode() + b"\xff\xfe = 1\n")
    rc, lines = run_cli("solve", str(cfg), tmp_path)
    assert rc == 1
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {cfg}: ")


def test_solve_psi_vanishing_below_rest_state_exits_2(tmp_path):
    # psi > 0 at z = 0, so eps = 0 is kept, but psi = 0 where u < -1/40:
    # the eps = 0 stage stops before its first step
    text = CAP_CFG.replace("psi = 1", "psi = max(1 + 40*z, 0)")
    cfg = write_cfg(tmp_path, text.replace("eps.schedule = 1e-1, 1e-2, 0\n", ""))
    rc, lines = run_cli("solve", cfg, tmp_path)
    assert rc == 2
    assert lines == ["solver failure: eps = 0 requires psi > 0 on the grid "
                     "(min 0) (continuation stage eps=0)"]


def test_solve_huge_psi_exits_2_with_one_line(tmp_path):
    # psi = 1e308 is finite, but the residual's sum of squares overflows:
    # the 2-norms rescale rather than leak an overflow warning to stderr
    cfg = write_cfg(tmp_path, CAP_CFG.replace("psi = 1", "psi = 1e308"))
    rc, lines = run_cli("solve", cfg, tmp_path)
    assert rc == 2
    assert lines == ["solver failure: no step >= 0.000976562 acceptable "
                     "(eps=0.1) (continuation stage eps=0.1)"]


def test_solve_reports_dropped_mixed_stencils(tmp_path, capsys):
    # each condition the solve works around is one warning line on stderr
    # and in the report, and no Python warning
    ellipsoid = """\
n = 3
domain.kind = ellipsoid
domain.semiaxes = 0.5, 0.4, 0.3
h = 0.0625
psi = 0.5
subsolution = 0.3*((x1/0.5)^2 + (x2/0.4)^2 + (x3/0.3)^2 - 1)
"""
    # the ellipsoid, with no eps.schedule, solves in one eps = 0 stage,
    # which its report also names
    cases = [
        (ellipsoid, ["mixed-derivative stencils set to zero for want of usable nodes: 8",
                     ONE_STAGE_NOTE]),
        (CAP_CFG.replace("psi = 1", "psi = 3.6"),
         ["no cap dominates psi; starting from the steepest cap"]),
    ]
    for k, (text, notes) in enumerate(cases):
        out = tmp_path / str(k)
        out.mkdir()
        cfg = write_cfg(out, text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert [w for w in caught if w.category is UserWarning] == []
        err = capsys.readouterr().err.splitlines()
        assert [ln for ln in err if ln.startswith("warning")] == [
            f"warning: {note}" for note in notes]
        report = (out / "etacurv-report.txt").read_text().splitlines()
        assert [ln for ln in report if ln.startswith("warning")] == [
            f"warning {note}" for note in notes]


def test_solve_reports_eps_replacement(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CAP_CFG.replace("psi = 1", "psi = r^2")
                    .replace("h = 0.0625", "h = 0.125"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    tail = "final stage runs at eps=1e-05 instead of 0"
    # one line, from the report; no Python warning beside it
    err = capsys.readouterr().err.splitlines()
    assert err == [f"warning: psi vanishes on the grid (min 0); {tail}"]
    report = (tmp_path / "etacurv-report.txt").read_text().splitlines()
    warned = [ln for ln in report if ln.startswith("warning ")]
    assert len(warned) == 1
    assert warned[0].endswith(tail)



def test_solve_reports_psi_sample_warnings_once(tmp_path, capsys):
    # the advisory psi checks go through the report like every other
    # warning: one report line and one stderr line each
    cfg = write_cfg(tmp_path, CAP_CFG.replace("psi = 1", "psi = 1 - z/10\n"
                                              "psi.lower = 1.01"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    report = (tmp_path / "etacurv-report.txt").read_text().splitlines()
    for head in ("psi_z sampled negative (min -0.1); uniqueness is not guaranteed",
                 "psi dips below psi.lower by "):
        assert len([ln for ln in report
                    if ln.startswith(f"warning {head}")]) == 1
        assert len([ln for ln in err if ln.startswith(f"warning: {head}")]) == 1
    # radial reads position only: this psi reads z, so it is one error line
    # and no warning
    assert main(["radial", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    # radial has no report and prints the warning of a psi it shoots
    cfg = write_cfg(tmp_path, CAP_CFG.replace("psi = 1", "psi = 1 - r/10\n"
                                              "psi.lower = 1.01"))
    assert main(["radial", "--config", cfg, "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: psi dips below")

def test_solve_nearly_zero_psi_passes_certificates(tmp_path, capsys):
    # psi = 1e-300 solves to u ~ 0; the evidence certificate must not read
    # that flattening as a blow-up
    cfg = write_cfg(tmp_path, "n = 2\ndomain.kind = ball\ndomain.r0 = 0.5\n"
                              "psi = 1e-300\nh = 0.0625\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "certificates=4/4" in capsys.readouterr().out
    report = (tmp_path / "etacurv-report.txt").read_text()
    assert "certificate estimate_evidence=pass" in report


def test_solve_report_lists_coarse_levels(tmp_path, capsys):
    # h = 1/64 is solved on the 2h and 4h lattices first: the report keeps
    # one stage line for the requested mesh, started from the prolonged
    # coarse solution, then the error estimate, then the coarse levels' own
    # lines, finer first
    cfg = write_cfg(tmp_path, CAP_CFG.replace("h = 0.0625", "h = 0.015625")
                    .replace("eps.schedule = 1e-1, 1e-2, 0\n", ""))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "etacurv-report.txt").read_text().splitlines()
    stages = _stage_lines(tmp_path / "etacurv-report.txt")
    assert len(stages) == 1
    assert stages[0].startswith("stage eps=0 iterations=3 start=prolonged ")
    [estimate] = [ln for ln in lines if ln.startswith("error_estimate=")]
    assert 4e-6 < float(estimate.split("=")[1]) < 2e-5
    coarse = [ln for ln in lines if ln.startswith("coarse ")]
    assert len(coarse) == 3
    assert coarse[0].startswith(
        "coarse h=0.03125 stage eps=0 iterations=3 start=prolonged ")
    assert coarse[1].startswith("coarse h=0.03125 error_estimate=")
    assert coarse[2].startswith(
        "coarse h=0.0625 stage eps=0 iterations=8 start=warm ")
    assert lines.index(stages[0]) < lines.index(estimate) < lines.index(coarse[0])


def test_stage_lines_state_the_tolerance_each_stage_ran_to(tmp_path, capsys):
    # degenerate.cfg on three levels: every stage line, coarse ones too,
    # carries tol= after residual=, and its residual is within that tol;
    # each level's last eps ran to TOL_RESIDUAL, every other to STAGE_TOL
    cfg = os.path.join(ROOT, "demos", "configs", "degenerate.cfg")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "degenerate-report.txt").read_text().splitlines()
    stages = [ln for ln in lines
              if re.match(r"(coarse h=\S+ )?stage eps=", ln)]
    assert len(stages) == 3 + 3 + 5
    tols = {}
    for ln in stages:
        found = re.search(r" residual=(\S+) tol=(\S+) margin=", ln)
        assert found, ln
        residual, tol = map(float, found.groups())
        assert residual <= tol
        tols.setdefault(ln.split("stage eps=")[0], []).append(tol)
    assert len(tols) == 3
    for level in tols.values():
        assert level[-1] == solver.TOL_RESIDUAL
        assert level[:-1] == [solver.STAGE_TOL] * (len(level) - 1)


def test_solve_3d_stage_lines_name_the_held_inverse(tmp_path, capsys):
    # ball3 is solved on two levels: the finest holds the two-grid cycle,
    # its 2h level, which has no level below it, the LU
    cfg = os.path.join(ROOT, "demos", "configs", "ball3.cfg")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "etacurv-report.txt").read_text().splitlines()
    [fine] = [ln for ln in lines if ln.startswith("stage eps=")]
    [coarse] = [ln for ln in lines if ln.startswith("coarse h=")
                and " stage eps=" in ln]
    assert re.search(r" inverse=two-grid factorizations=1 refinements=\d+ "
                     r"fallbacks=0 lu_fill=[1-9]\d*$", fine)
    assert re.search(r" inverse=lu .* fallbacks=0 lu_fill=[1-9]\d*$", coarse)


def test_ball4_demo_solves_verifies_and_shoots(tmp_path, capsys):
    # one dimension-generic path: the 4D unit cap solves in one stage, its
    # file passes verify, and the oracle gives the closed-form center
    cfg = os.path.join(ROOT, "demos", "configs", "ball4.cfg")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = (tmp_path / "ball4-report.txt").read_text().splitlines()
    assert len([ln for ln in report if ln.startswith("stage eps=")]) == 1
    sol = str(tmp_path / "ball4-solution.dat")
    with open(sol) as fh:
        header = [ln for ln in fh if ln.startswith("# x1 ")]
    assert header[0].startswith("# x1 x2 x3 x4 u du1 du2 du3 du4 d2u11 ")
    capsys.readouterr()
    assert main(["verify", sol, "--config", cfg]) == 0
    assert "verify: 4/4 pass" in capsys.readouterr().out
    assert main(["radial", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    center = float(re.search(r"u\(0\)=(\S+)", out).group(1))
    assert abs(center - (np.sqrt(0.75) - 1.0)) <= 1e-12


def test_solve_reports_coarse_level_warnings(tmp_path, capsys):
    # the ellipsoid drops 8 mixed stencils at h = 1/24 and 8 more on its
    # 2h level: the report names both, the coarse one behind its prefix;
    # stderr carries the requested mesh's warnings only
    cfg = write_cfg(tmp_path, """\
n = 3
domain.kind = ellipsoid
domain.semiaxes = 0.5, 0.4, 0.3
h = 0.041666666666666664
psi = 0.5
subsolution = 0.3*((x1/0.5)^2 + (x2/0.4)^2 + (x3/0.3)^2 - 1)
""")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    note = "mixed-derivative stencils set to zero for want of usable nodes: 8"
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {note}", f"warning: {ONE_STAGE_NOTE}"]
    lines = (tmp_path / "etacurv-report.txt").read_text().splitlines()
    assert f"warning {note}" in lines
    assert f"coarse h=0.083333333333333329 warning {note}" in lines


def _stage_lines(path):
    return [ln for ln in path.read_text().splitlines()
            if ln.startswith("stage eps=")]


def test_solve_cap_demo_one_stage_names_skipped_certificate(tmp_path, capsys):
    # no eps.schedule and psi > 0: one eps = 0 stage, three certificates,
    # and a report line saying why estimate_evidence does not apply
    cfg = os.path.join(ROOT, "demos", "configs", "cap.cfg")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "certificates=3/3" in captured.out
    assert captured.err.splitlines() == [f"warning: {ONE_STAGE_NOTE}"]
    report = tmp_path / "etacurv-report.txt"
    lines = report.read_text().splitlines()
    assert [ln for ln in lines if ln.startswith("warning")] == [
        f"warning {ONE_STAGE_NOTE}"]
    assert not any(ln.startswith("certificate estimate_evidence") for ln in lines)
    stages = _stage_lines(report)
    assert len(stages) == 1 and stages[0].startswith("stage eps=0 ")


def test_solve_direct_failure_reruns_the_ladder_bitwise(tmp_path, capsys):
    # psi = 1e-300 stagnates at eps = 0 directly; the fallback is the
    # explicit ladder's solve, row for row
    tiny = CAP_CFG.replace("psi = 1", "psi = 1e-300")
    auto, ladder = tmp_path / "auto", tmp_path / "ladder"
    for out, text in ((auto, tiny.replace("eps.schedule = 1e-1, 1e-2, 0\n", "")),
                      (ladder, tiny.replace("1e-1, 1e-2, 0",
                                            "1e-1, 1e-2, 1e-3, 1e-4, 0"))):
        out.mkdir()
        assert main(["solve", "--config", write_cfg(out, text),
                     "--out", str(out)]) == 0
    assert "certificates=4/4" in capsys.readouterr().out
    warned = [ln for ln in (auto / "etacurv-report.txt").read_text().splitlines()
              if ln.startswith("warning")]
    assert len(warned) == 1
    assert warned[0].startswith("warning direct eps = 0 solve failed after ")
    assert "no step >= 0.000976562 acceptable" in warned[0]
    assert warned[0].endswith("rerunning down eps = 0.1, 0.01, 0.001, 0.0001, 0")
    stages = _stage_lines(auto / "etacurv-report.txt")
    assert len(stages) == 5
    assert stages == _stage_lines(ladder / "etacurv-report.txt")

    def body(out):
        return [ln for ln in (out / "etacurv-solution.dat").read_text()
                .splitlines() if not ln.startswith("#")]

    assert body(auto) == body(ladder)


@pytest.mark.parametrize("schedule, eps", [
    ("0", ["0"]),
    ("1e-2, 0", ["0.01", "0"]),
    ("1e-1, 1e-2, 1e-3, 1e-4, 0", ["0.10000000000000001", "0.01", "0.001",
                                   "0.0001", "0"]),
])
def test_solve_explicit_schedule_reports_every_stage(tmp_path, schedule, eps):
    cfg = write_cfg(tmp_path, CAP_CFG.replace("1e-1, 1e-2, 0", schedule))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    stages = _stage_lines(tmp_path / "etacurv-report.txt")
    assert [ln.split()[1] for ln in stages] == [f"eps={e}" for e in eps]


def test_solve_explicit_eps_zero_does_not_fall_back(tmp_path):
    # an explicit schedule runs as written: its failure is not rerun
    text = CAP_CFG.replace("psi = 1", "psi = 1e-300").replace(
        "1e-1, 1e-2, 0", "0")
    rc, lines = run_cli("solve", write_cfg(tmp_path, text), tmp_path)
    assert rc == 2
    assert lines == ["solver failure: no step >= 0.000976562 acceptable "
                     "(eps=0) (continuation stage eps=0)"]


def test_solve_unreachable_out_dir(cap_cfg, capsys):
    assert main(["solve", "--config", cap_cfg, "--out", "/nonexistent/xyz"]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_missing_config_file(capsys):
    assert main(["solve", "--config", "/nonexistent/run.cfg"]) == 1


def test_solve_requires_config_flag(capsys):
    assert main(["solve"]) == 1
    assert "requires --config" in capsys.readouterr().err


def test_solve_bitwise_deterministic(cap_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main(["solve", "--config", cap_cfg, "--out", str(a)]) == 0
    assert main(["solve", "--config", cap_cfg, "--out", str(b)]) == 0
    fa = (a / "etacurv-solution.dat").read_bytes()
    fb = (b / "etacurv-solution.dat").read_bytes()
    assert fa == fb


def test_solve_emit_svg(cap_cfg, tmp_path):
    out = tmp_path / "svg"
    out.mkdir()
    rc = main(["solve", "--config", cap_cfg, "--out", str(out), "--emit-svg"])
    assert rc == 0
    for name in ("etacurv-u.svg", "etacurv-margin.svg"):
        text = (out / name).read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<rect") > 100


def test_solve_output_prefix(tmp_path):
    cfg = write_cfg(tmp_path, CAP_CFG + "output.prefix = cap\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "cap-solution.dat").exists()


# ---------------------------------------------------------------- radial

def test_radial_ball(cap_cfg, tmp_path, capsys):
    rc = main(["radial", "--config", cap_cfg, "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "etacurv-radial.dat").read_text()
    line = next(ln for ln in text.splitlines() if "center" in ln)
    center = float(line.split("=")[-1])
    # closed form: full unit sphere cap over r0 = 1/2
    assert abs(center - (np.sqrt(0.75) - 1.0)) < 1e-9
    assert "richardson" in text


def test_radial_ellipse_exits_1(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "n = 2\ndomain.kind = ellipse\ndomain.semiaxes = 0.5, 0.3\npsi = 1\n")
    assert main(["radial", "--config", cfg, "--out", str(tmp_path)]) == 1
    # the kind is named in the config's own word
    assert capsys.readouterr().err == (
        "error: radial reduction needs a ball domain, got ellipse\n")


# ---------------------------------------------------------------- props

def test_props_small_sample_passes(capsys):
    rc = main(["props", "--samples", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "properties: 85/85 pass" in out
    assert out.count("=pass") == 85


def test_props_config_overrides(capsys):
    # --seed and --samples override the defaults 42 and 10000
    rc = main(["props", "--seed", "7", "--samples", "12"])
    assert rc == 0
    assert "pass (seed=7 samples=12 dims=2,3,4,5,6)" in capsys.readouterr().out


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_props_rejects_samples_below_one(capsys, samples):
    assert main(["props", "--samples", samples]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: samples must be >= 1, got {samples}"]


def test_props_mutated_build_exits_3(monkeypatch, capsys):
    from etacurv import cones

    real = cones.f_grad

    def broken(kappa):
        return 1.01 * real(kappa)

    monkeypatch.setattr(cones, "f_grad", broken)
    assert main(["props", "--samples", "10"]) == 3
    assert "fail" in capsys.readouterr().out


# ---------------------------------------------------------------- verify

@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solved")
    cfg = write_cfg(tmp, CAP_CFG)
    assert main(["solve", "--config", cfg, "--out", str(tmp)]) == 0
    return tmp / "etacurv-solution.dat", cfg


def test_verify_roundtrip(solved, capsys):
    sol, cfg = solved
    assert main(["verify", str(sol), "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "residual_recompute=pass" in out
    assert "verify: 4/4 pass" in out


def test_verify_wrong_h_exits_1(solved, tmp_path, capsys):
    sol, _ = solved
    cfg = write_cfg(tmp_path, CAP_CFG.replace("h = 0.0625", "h = 0.125"))
    assert main(["verify", str(sol), "--config", cfg]) == 1
    assert "h=" in capsys.readouterr().err


def test_verify_tampered_exits_3(solved, tmp_path, capsys):
    sol, cfg = solved
    lines = sol.read_text().splitlines()
    for k, ln in enumerate(lines):
        if not ln.startswith("#"):
            parts = ln.split()
            parts[2] = f"{float(parts[2]) - 0.01:.17g}"
            lines[k] = " ".join(parts)
            break
    bad = tmp_path / "tampered.dat"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(bad), "--config", cfg]) == 3
    out = capsys.readouterr().out
    assert "residual_recompute=fail" in out


def test_verify_garbage_file_exits_1(solved, tmp_path):
    _, cfg = solved
    junk = tmp_path / "junk.dat"
    junk.write_text("this is not a solution file\n")
    assert main(["verify", str(junk), "--config", cfg]) == 1


def test_verify_coordinate_mismatch(solved, tmp_path):
    sol, cfg = solved
    lines = sol.read_text().splitlines()
    for k, ln in enumerate(lines):
        if not ln.startswith("#"):
            parts = ln.split()
            parts[0] = f"{float(parts[0]) + 1e-9:.17g}"
            lines[k] = " ".join(parts)
            break
    moved = tmp_path / "moved.dat"
    moved.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(moved), "--config", cfg]) == 1


@pytest.mark.parametrize("damage", ["token", "missing", "extra"])
def test_verify_malformed_row_exits_1_naming_the_line(solved, tmp_path,
                                                      capsys, damage):
    # a non-numeric value, or a row one column short or long
    sol, cfg = solved
    lines = sol.read_text().splitlines()
    k = next(k for k, ln in enumerate(lines) if not ln.startswith("#")) + 5
    parts = lines[k].split()
    if damage == "token":
        parts[3] = "abc"
    elif damage == "missing":
        parts.pop()
    else:
        parts.append("0")
    lines[k] = " ".join(parts)
    bad = tmp_path / "bad.dat"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(bad), "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {bad}: line {k + 1}: ")


def test_verify_reads_every_value_as_float_does(solved, tmp_path):
    # the table parse keeps float()'s values bitwise, and a token only
    # float() reads (digit grouping) still passes through the rescan
    sol, cfg = solved
    spec = build_problem(load_config(cfg))
    grid = build_grid(spec.shape, spec.h)
    lines = sol.read_text().splitlines()
    rows = [k for k, ln in enumerate(lines) if not ln.startswith("#")]
    u = np.array([float(lines[k].split()[spec.n]) for k in rows])
    assert np.array_equal(cli._read_solution(sol, spec, grid), u)
    parts = lines[rows[7]].split()
    head, tail = parts[spec.n].split(".")
    parts[spec.n] = f"{head}.{tail[:2]}_{tail[2:]}"
    lines[rows[7]] = " ".join(parts)
    grouped = tmp_path / "grouped.dat"
    grouped.write_text("\n".join(lines) + "\n")
    assert np.array_equal(cli._read_solution(grouped, spec, grid), u)


def test_read_solution_u_owns_its_data(solved, tmp_path):
    # u is a copy of its column, not a view keeping the whole table alive,
    # on both the table parse and the float() rescan
    sol, cfg = solved
    spec = build_problem(load_config(cfg))
    grid = build_grid(spec.shape, spec.h)
    lines = sol.read_text().splitlines()
    k = next(k for k, ln in enumerate(lines) if not ln.startswith("#"))
    parts = lines[k].split()
    parts[spec.n] = parts[spec.n].replace(".", ".0_", 1)  # only float() reads it
    lines[k] = " ".join(parts)
    grouped = tmp_path / "grouped.dat"
    grouped.write_text("\n".join(lines) + "\n")
    for path in (sol, grouped):
        u = cli._read_solution(path, spec, grid)
        assert u.base is None and u.flags.owndata and u.shape == (grid.size,)


def test_verify_blank_rows_exit_1_naming_the_first(solved, tmp_path, capsys):
    sol, cfg = solved
    lines = sol.read_text().splitlines()
    k = next(k for k, ln in enumerate(lines) if not ln.startswith("#"))
    blank = tmp_path / "blank.dat"
    blank.write_text("\n".join(lines[:k] + [""] * (len(lines) - k)) + "\n")
    assert main(["verify", str(blank), "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {blank}: line {k + 1}: 0 columns, expected 12"]


def test_verify_undecodable_solution_exits_1(solved, tmp_path, capsys):
    sol, cfg = solved
    bad = tmp_path / "bad.dat"
    bad.write_bytes(sol.read_bytes().replace(b"u du1", b"u \xff\xfe", 1))
    assert main(["verify", str(bad), "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {bad}: ")


def test_verify_skips_comparison_only_without_certified_start(
        solved, tmp_path, monkeypatch, capsys):
    sol, _ = solved
    # a subsolution failing its certificate: a note, and the other checks
    cfg = write_cfg(tmp_path, CAP_CFG + "subsolution = 1\n")
    assert main(["verify", str(sol), "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert "note: comparison certificate skipped" in captured.err
    assert "verify: 3/3 pass" in captured.out

    # any other error in initial_guess is a fault, not a skipped check
    def broken(spec, grid):
        raise RuntimeError("fault in initial_guess")

    monkeypatch.setattr(cli, "initial_guess", broken)
    with pytest.raises(RuntimeError, match="fault in initial_guess"):
        main(["verify", str(sol), "--config", cfg])


@pytest.fixture(scope="module")
def demo_solutions(tmp_path_factory):
    """Solution files of the 2D, 3D and 4D cap demos, by config name."""
    tmp = tmp_path_factory.mktemp("demos")
    files = {}
    for name in ("cap", "ball3", "ball4"):
        cfg = os.path.join(ROOT, "demos", "configs", f"{name}.cfg")
        out = tmp / name
        out.mkdir()
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        [files[name]] = out.glob("*-solution.dat")
    return files


@pytest.mark.parametrize("value", ["nan", "inf", "1e300"])
@pytest.mark.parametrize("name", ["cap", "ball3", "ball4"])
def test_verify_nonfinite_solution_fails_certificates(demo_solutions, name,
                                                      value, tmp_path, capsys):
    # the first u value replaced: eigvalsh raised LinAlgError on the
    # non-finite curvature matrices of n = 3 and 4; now every n fails the
    # certificates with exit 3, and quietly: the overflow to inf and NaN
    # curvatures raises no numpy warning
    sol = demo_solutions[name]
    lines = sol.read_text().splitlines()
    n = int(re.search(r" n=(\d+) ", lines[0]).group(1))
    k = next(k for k, ln in enumerate(lines) if not ln.startswith("#"))
    parts = lines[k].split()
    parts[n] = value
    lines[k] = " ".join(parts)
    bad = tmp_path / "bad.dat"
    bad.write_text("\n".join(lines) + "\n")
    cfg = os.path.join(ROOT, "demos", "configs", f"{name}.cfg")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", str(bad), "--config", cfg]) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


def test_verify_evaluates_the_stored_u_once(solved, monkeypatch, capsys):
    # the admissibility and residual certificates read one evaluation of
    # u: one stencil-derivative and one geometry pass, under every name
    # the package looks them up by
    sol, cfg = solved
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (solver, certify, cli):
        spy(module, "all_derivatives")
    for module in (solver, geometry, cli):
        spy(module, "batch_geometry")
    assert main(["verify", str(sol), "--config", cfg]) == 0
    assert sorted(calls) == ["all_derivatives", "batch_geometry"]


def test_one_cone_test_names_one_node(tmp_path, monkeypatch, capsys):
    # the h = 1/8 cap with +0.05 at its centre node leaves the cone there:
    # residual's NotAdmissible, check_admissibility and verify's two
    # failing certificates name the same node and the same raw margin
    cfg = write_cfg(tmp_path, CAP_CFG.replace("h = 0.0625", "h = 0.125"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    spec = build_problem(load_config(cfg))
    grid = build_grid(spec.shape, spec.h)
    sol = tmp_path / "etacurv-solution.dat"
    u = cli._read_solution(sol, spec, grid)
    centre = int(np.argmin(np.sum(grid.pos**2, axis=1)))
    u[centre] += 0.05
    lines = sol.read_text().splitlines()
    k = [k for k, ln in enumerate(lines) if not ln.startswith("#")][centre]
    parts = lines[k].split()
    parts[spec.n] = f"{u[centre]:.17g}"
    lines[k] = " ".join(parts)
    spike = tmp_path / "spike.dat"
    spike.write_text("\n".join(lines) + "\n")

    certs = {}

    def kept(make):
        def keep(*args):
            cert = make(*args)
            certs[cert.name] = cert
            return cert
        return keep

    monkeypatch.setattr(cli, "check_admissibility",
                        kept(cli.check_admissibility))
    monkeypatch.setattr(cli, "Certificate", kept(cli.Certificate))
    assert main(["verify", str(spike), "--config", cfg]) == 3
    out = capsys.readouterr().out
    failed = [certs["admissibility"], certs["residual_recompute"]]
    with pytest.raises(NotAdmissible) as exc:
        residual(spec, grid, u, 0.0)
    direct = check_admissibility(
        batch_geometry(*all_derivatives(grid, u), coeffs=False))
    assert not any(c.passed for c in failed + [direct])
    named = {(c.worst_node, c.margin) for c in failed + [direct]}
    assert named == {(centre, exc.value.margin)} and exc.value.node == centre
    assert exc.value.margin < 0.0
    for name in ("admissibility", "residual_recompute"):
        assert f"{name}=fail margin={exc.value.margin:.17g} " in out


# ---------------------------------------------------------------- misc

def test_main_no_arguments_exits_1(capsys):
    assert main([]) == 1


def test_main_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("command,flag", [
    ("solve", ["--seed", "3"]),
    ("solve", ["--samples", "10"]),
    ("radial", ["--emit-svg"]),
    ("radial", ["--seed", "3"]),
    ("props", ["--out", "x"]),
    ("props", ["--emit-svg"]),
    ("verify", ["--out", "x"]),
    ("verify", ["--emit-svg"]),
    ("props", ["--config", "run.cfg"]),
])
def test_main_rejects_flags_of_other_subcommands(cap_cfg, command, flag,
                                                 capsys):
    # props reads no config
    argv = [command] + flag if command == "props" else [
        command, "--config", cap_cfg] + flag
    if command == "verify":
        argv.append("solution.dat")
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert flag[0] in err[0]


def test_heatmap_rejects_bad_shapes():
    from etacurv import svgplot
    with pytest.raises(ValueError):
        svgplot.heatmap(np.zeros((4, 3)), np.zeros(4), 0.1)
    with pytest.raises(ValueError):
        svgplot.heatmap(np.zeros((0, 2)), np.zeros(0), 0.1)


def test_heatmap_constant_field():
    from etacurv import svgplot
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
    text = svgplot.heatmap(pts, np.ones(3), 0.1, title="flat")
    assert text.count("<rect") >= 3 + 64
    assert "flat" in text
