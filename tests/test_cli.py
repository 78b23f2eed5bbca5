"""End-to-end command tests: config parsing and the exit-code contract."""

import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import etacurv
from etacurv import cli
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
    argv = [sys.executable, "-m", "etacurv.cli", command, "--config", cfg]
    if command != "props":
        argv += ["--out", str(out_dir)]
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
    cfg = Config({"n": 4, "domain.kind": "ball", "domain.r0": 0.5, "psi": "1"})
    with pytest.raises(ConfigError):
        build_problem(cfg)


def test_config_echo_fills_defaults():
    cfg = Config({"n": 2, "domain.kind": "ball", "domain.r0": 0.5, "psi": "1"})
    spec = build_problem(cfg)
    echo = cli.config_echo(cfg, spec)
    joined = "\n".join(echo)
    assert "h = 0.03125" in joined
    assert "battery.seed = 42" in joined
    assert "psi = 1" in joined


def test_readme_config_table_matches_schema():
    # the README's table of config keys lists every key of the schema, in
    # its order, with the schema's type and default
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("### Config keys\n", 1)[1].split("\n#", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    types = {"integer": cli._as_int, "number": cli._as_float, "text": str,
             "numbers": cli._as_floats, "integers": cli._as_ints}
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
    assert all(re.search(r" factorizations=\d+ krylov_iters=\d+ lu_fill=\d+$", ln)
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
    ("radial", "h = 0.0625", "radial.steps = 0"),
    ("radial", "h = 0.0625", "radial.tol = 0"),
    ("props", "h = 0.0625", "battery.dims = 1"),
    ("solve", "eps.schedule = 1e-1, 1e-2, 0", "eps.schedule = 1e-1, nan"),
    ("solve", "eps.schedule = 1e-1, 1e-2, 0", "eps.schedule = inf, 1e-1, 0"),
    ("solve", "h = 0.0625", "newton.tol_residual = nan"),
    ("solve", "h = 0.0625", "newton.min_step = nan"),
    ("solve", "h = 0.0625", "newton.max_iter = 0"),
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


def test_solve_psi_vanishing_below_rest_state_exits_2(tmp_path):
    # psi > 0 at z = 0, so eps = 0 is kept, but psi = 0 where u < -1/40:
    # the eps = 0 stage stops before its first step
    text = CAP_CFG.replace("psi = 1", "psi = max(1 + 40*z, 0)")
    cfg = write_cfg(tmp_path, text.replace("eps.schedule = 1e-1, 1e-2, 0\n", ""))
    rc, lines = run_cli("solve", cfg, tmp_path)
    assert rc == 2
    assert lines == ["solver failure: eps = 0 requires psi > 0 on the grid "
                     "(min 0) (continuation stage eps=0)"]


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
    cases = [
        (ellipsoid, "mixed-derivative stencils set to zero for want of usable nodes: 8"),
        (CAP_CFG.replace("psi = 1", "psi = 3.6"),
         "no cap dominates psi; starting from the steepest cap"),
    ]
    for k, (text, note) in enumerate(cases):
        out = tmp_path / str(k)
        out.mkdir()
        cfg = write_cfg(out, text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert [w for w in caught if w.category is UserWarning] == []
        err = capsys.readouterr().err.splitlines()
        assert [ln for ln in err if ln.startswith("warning")] == [f"warning: {note}"]
        report = (out / "etacurv-report.txt").read_text().splitlines()
        assert [ln for ln in report if ln.startswith("warning")] == [f"warning {note}"]


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


def test_solve_nearly_zero_psi_passes_certificates(tmp_path, capsys):
    # psi = 1e-300 solves to u ~ 0; the evidence certificate must not read
    # that flattening as a blow-up
    cfg = write_cfg(tmp_path, "n = 2\ndomain.kind = ball\ndomain.r0 = 0.5\n"
                              "psi = 1e-300\nh = 0.0625\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "certificates=4/4" in capsys.readouterr().out
    report = (tmp_path / "etacurv-report.txt").read_text()
    assert "certificate estimate_evidence=pass" in report


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
    assert "ball" in capsys.readouterr().err


# ---------------------------------------------------------------- props

def test_props_small_sample_passes(capsys):
    rc = main(["props", "--samples", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "properties: 85/85 pass" in out
    assert out.count("=pass") == 85


def test_props_config_overrides(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "n = 2\ndomain.kind = ball\ndomain.r0 = 0.5\npsi = 1\n"
        "battery.samples = 12\nbattery.dims = 2, 3\n")
    rc = main(["props", "--config", cfg])
    assert rc == 0
    assert "pass (seed=42 samples=12 dims=2,3)" in capsys.readouterr().out


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
])
def test_main_rejects_flags_of_other_subcommands(cap_cfg, command, flag,
                                                 capsys):
    argv = [command, "--config", cap_cfg] + flag
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
