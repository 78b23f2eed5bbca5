"""Certificates and the randomized property battery."""

from types import SimpleNamespace

import numpy as np
import pytest

from etacurv import certify, cones
from etacurv.certify import (
    Certificate,
    check_admissibility,
    check_comparison,
    check_maximum_principle,
    check_subsolution,
    estimate_evidence,
    property_battery,
    standard_certificates,
)
from etacurv.domain import DomainShape
from etacurv.geometry import batch_geometry
from etacurv.grid import all_derivatives, build_grid
from etacurv.solver import ProblemSpec, cap_function, continuation_solve

DISK = DomainShape(semiaxes=(0.5, 0.5))


@pytest.fixture(scope="module")
def solved_disk():
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 16,
                       eps_schedule=(1e-1, 1e-2, 0.0))
    u, report = continuation_solve(spec)
    grid = build_grid(DISK, 1 / 16)
    return spec, grid, u, report


# ------------------------------------------------------------ certificates


def test_maximum_principle_on_solution(solved_disk):
    _, _, u, _ = solved_disk
    cert = check_maximum_principle(u)
    assert cert.passed
    assert cert.margin < 0.0


def test_maximum_principle_boundary_case():
    cert = check_maximum_principle(np.zeros(5), tol=0.0)
    assert cert.passed and cert.margin == 0.0


def test_maximum_principle_detects_positive_node():
    u = np.array([-0.1, -0.2, 3e-9, -0.3])
    cert = check_maximum_principle(u)
    assert not cert.passed
    assert cert.worst_node == 2
    assert cert.margin == pytest.approx(3e-9)


def test_comparison_against_initial_cap(solved_disk):
    _, grid, u, _ = solved_disk
    cert = check_comparison(u, cap_function(grid, 0.525))
    assert cert.passed


def test_comparison_equal_and_shifted():
    u = -np.ones(7)
    assert check_comparison(u, u, tol=0.0).passed
    cert = check_comparison(u, u + 1.0)
    assert not cert.passed
    assert cert.margin == pytest.approx(-1.0)


def test_comparison_grid_mismatch():
    with pytest.raises(ValueError):
        check_comparison(np.zeros(5), np.zeros(6))


def plain_geometry(grid, u):
    return batch_geometry(*all_derivatives(grid, u), coeffs=False)


def test_admissibility_on_solution(solved_disk):
    _, grid, u, _ = solved_disk
    cert = check_admissibility(plain_geometry(grid, u))
    assert cert.passed
    assert cert.margin > 0.0


def test_admissibility_degenerate_margin_shrinks():
    # near the origin psi = r^2 forces the cone margin toward zero
    spec = ProblemSpec(n=2, shape=DISK, psi="r^2", h=1 / 16)
    u, report = continuation_solve(spec)
    assert report.final.eps == 1e-5 and len(report.warnings) == 1
    grid = build_grid(DISK, 1 / 16)
    cert = check_admissibility(plain_geometry(grid, u))
    assert cert.passed
    assert 0.0 < cert.margin < 0.2


def test_admissibility_saddle_fails():
    grid = build_grid(DISK, 1 / 8)
    saddle = grid.pos[:, 0] ** 2 - grid.pos[:, 1] ** 2 \
        - (DISK.r0**2 - np.sum(grid.pos**2, axis=1))
    cert = check_admissibility(plain_geometry(grid, saddle))
    assert not cert.passed


def test_certificate_line_format():
    cert = Certificate("demo", True, 3, 0.25, 1e-10)
    assert cert.line() == "demo=pass margin=0.25 tol=1e-10"
    cert = Certificate("demo", False, None, -1.0, 0.0)
    assert cert.line().startswith("demo=fail margin=-1")


# ------------------------------------------------------------ subsolution


def test_subsolution_cap_examples():
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 16)
    good = check_subsolution("-sqrt(0.275625 - r^2) + sqrt(0.025625)", spec)
    assert good.passed
    bad = check_subsolution("-sqrt(4 - r^2) + sqrt(3.75)", spec)
    assert not bad.passed
    assert bad.margin == pytest.approx(0.25 - 1.0, abs=1e-6)


def test_subsolution_zero_zero_boundary_case():
    spec = ProblemSpec(n=2, shape=DISK, psi="0", h=1 / 16)
    cert = check_subsolution("0", spec)
    assert cert.passed


def test_subsolution_rejects_nonzero_boundary():
    spec = ProblemSpec(n=2, shape=DISK, psi="0", h=1 / 16)
    cert = check_subsolution("x1^2 + x2^2", spec)  # = 0.25 on the rim
    assert not cert.passed


def test_subsolution_rejects_z_dependence():
    spec = ProblemSpec(n=2, shape=DISK, psi="1", h=1 / 16)
    with pytest.raises(ValueError):
        check_subsolution("z + x1", spec)


# ------------------------------------------------------------ evidence


def test_estimate_evidence_on_degenerate_fixture():
    spec = ProblemSpec(n=2, shape=DISK, psi="r^2", h=1 / 16)
    _, report = continuation_solve(spec)
    assert report.final.eps == 1e-5 and len(report.warnings) == 1
    cert = estimate_evidence(report)
    assert cert.passed
    assert cert.margin < 0.10


def test_estimate_evidence_insufficient_stages(solved_disk):
    _, _, _, report = solved_disk

    class Single:
        stages = report.stages[:1]

    with pytest.raises(ValueError):
        estimate_evidence(Single())


def test_estimate_evidence_blowup_fails(solved_disk):
    _, _, _, report = solved_disk

    class Blown:
        class _S:
            def __init__(self, du, d2u):
                self.sup_du = du
                self.sup_d2u = d2u

        stages = [_S(1.0, 1.0), _S(1.0, 2.0)]

    cert = estimate_evidence(Blown())
    assert not cert.passed


@pytest.mark.parametrize("prev, last, passed, margin", [
    # psi = 1e-300: the final stage collapses toward u ~ 0, and a fall is
    # no evidence against a uniform bound
    ((4.9e-3, 1.0e-2), (3.6e-11, 7.5e-11), True, 0.0),
    # a 40% Hessian growth on a small scale still fails
    ((0.1, 0.4), (0.1, 0.56), False, 0.4),
])
def test_estimate_evidence_counts_growth_only(prev, last, passed, margin):
    stages = [SimpleNamespace(sup_du=du, sup_d2u=d2u) for du, d2u in (prev, last)]
    cert = estimate_evidence(SimpleNamespace(stages=stages))
    assert cert.passed == passed
    assert cert.margin == pytest.approx(margin, rel=1e-12, abs=0.0)


def test_standard_bundle(solved_disk):
    _, grid, u, report = solved_disk
    certs = standard_certificates(u, cap_function(grid, 0.525), grid, report)
    assert [c.name for c in certs] == [
        "maximum_principle", "comparison", "admissibility",
        "estimate_evidence"]
    assert all(c.passed for c in certs)


@pytest.mark.parametrize("eps, why", [
    (0.0, "no regularized stage to compare with: psi > 0 on the grid and "
          "no eps > 0 was run"),
    (1e-3, "no earlier stage to compare with: the solve ran at eps=0.001 only"),
])
def test_standard_bundle_one_stage_says_why(solved_disk, eps, why):
    # one stage: no estimate_evidence, and a warning line in its place
    _, grid, u, _ = solved_disk
    report = SimpleNamespace(stages=[SimpleNamespace(eps=eps)], warnings=[])
    certs = standard_certificates(u, cap_function(grid, 0.525), grid, report)
    assert [c.name for c in certs] == [
        "maximum_principle", "comparison", "admissibility"]
    assert report.warnings == [f"estimate_evidence not applicable: {why}"]


# ------------------------------------------------------------ battery


def test_battery_small_run_all_pass():
    certs = property_battery(seed=42, samples=600, dims=(2, 3))
    assert len(certs) == len(certify._BATTERY) * 2
    assert all(c.passed for c in certs)


def test_battery_deterministic_bitwise():
    a = property_battery(seed=11, samples=400, dims=(3,))
    b = property_battery(seed=11, samples=400, dims=(3,))
    assert [(c.name, c.margin, c.worst_node) for c in a] == \
        [(c.name, c.margin, c.worst_node) for c in b]


def test_battery_seed_variation_keeps_outcomes():
    a = property_battery(seed=1, samples=300, dims=(2, 4))
    b = property_battery(seed=2, samples=300, dims=(2, 4))
    assert sum(c.passed for c in a) == sum(c.passed for c in b) == len(a)


def test_battery_mutation_detected(monkeypatch):
    orig = cones.f_grad

    def broken(kappa):
        g = orig(kappa)
        return g - 2.0 * np.max(g)

    monkeypatch.setattr(cones, "f_grad", broken)
    certs = property_battery(seed=42, samples=300, dims=(3,))
    by_name = {c.name: c for c in certs}
    assert not by_name["gradient_positivity_n3"].passed


def test_battery_detects_raised_interp_constant(monkeypatch):
    # the constant is sharp, so even a 0.1% rise must show as a violation
    orig = cones.interp_c0
    monkeypatch.setattr(cones, "interp_c0", lambda n, k: 1.001 * orig(n, k))
    certs = property_battery(seed=42, samples=300, dims=(3,))
    by_name = {c.name: c for c in certs}
    assert not by_name["interp_lower_bound_n3"].passed


def test_battery_past_six_dimensions():
    certs = property_battery(seed=42, samples=700, dims=(7, 8))
    assert len(certs) == len(certify._BATTERY) * 2
    assert all(c.passed for c in certs), [c.name for c in certs if not c.passed]


def test_battery_rejects_bad_dims():
    with pytest.raises(ValueError):
        property_battery(dims=(1, 2))
    with pytest.raises(ValueError):
        property_battery(dims=())
