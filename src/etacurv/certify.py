"""Solution certificates and the randomized property battery.

Certificates are pure functions of their inputs (plus a fixed seed for the
sampled ones), so a verification run is reproducible bitwise.  This module
deliberately never imports the solver: it checks grid functions and solve
reports through their plain data, which keeps the dependency arrow pointing
one way (solver -> certify) and lets the checks run against files.

Margin conventions are stated per function; the uniform rule is that
`margin` records the worst observed value of the checked quantity and `tol`
the threshold it was held against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones, geometry
from .domain import sample_boundary
from .expr import EvalEnv, beyond_position, eval_x_gradient, evaluate, parse
from .grid import all_derivatives


@dataclass(frozen=True)
class Certificate:
    name: str
    passed: bool
    worst_node: object
    margin: float
    tol: float

    def line(self):
        state = "pass" if self.passed else "fail"
        return f"{self.name}={state} margin={self.margin:.17g} tol={self.tol:.17g}"


def check_maximum_principle(u, tol=1e-10):
    """Zero boundary data forces u <= 0 inside; pass iff max u <= tol."""
    u = np.asarray(u, dtype=float)
    worst = int(np.argmax(u))
    m = float(u[worst])
    return Certificate("maximum_principle", m <= tol, worst, m, tol)


def check_comparison(u, usub, tol=1e-10):
    """A subsolution stays below: pass iff min(u - usub) >= -tol."""
    u = np.asarray(u, dtype=float)
    usub = np.asarray(usub, dtype=float)
    if u.shape != usub.shape:
        raise ValueError(
            f"grid mismatch: {u.shape} vs {usub.shape} node values")
    diff = u - usub
    worst = int(np.argmin(diff))
    m = float(diff[worst])
    return Certificate("comparison", m >= -tol, worst, m, tol)


def check_admissibility(geo, tol=1e-10):
    """Curvature vector in the closed cone at every node of geo, the plain
    BatchGeometry of a grid function: geo.cone_test(-tol), margin >= -tol
    (1 + |sigma_1|), a floor that serves flat and highly curved solutions
    alike (a degenerate problem drives the margin toward 0 from above).
    Reports the raw margin at the worst node."""
    passed, worst = geo.cone_test(-tol)
    node, margin = worst()
    return Certificate("admissibility", passed, node, margin, tol)


def _x_only(e):
    bad = beyond_position(e)
    if bad:
        raise ValueError(
            f"subsolution may depend on position only, found {bad}")


def _expr_hessian(e, xs, n, step=1e-5):
    """Batched Hessian of an x-only expression: central differences applied
    to the dual-number gradient (second-order duals avoided on purpose)."""
    m = xs.shape[0]
    H = np.empty((m, n, n))
    zeros = np.zeros(m)
    zp = np.zeros((m, n))
    for j in range(n):
        shift = np.zeros(n)
        shift[j] = step
        _, gp = eval_x_gradient(e, EvalEnv.from_gradient(xs + shift, zeros, zp))
        _, gm = eval_x_gradient(e, EvalEnv.from_gradient(xs - shift, zeros, zp))
        H[:, :, j] = (gp - gm) / (2.0 * step)
    return 0.5 * (H + np.transpose(H, (0, 2, 1)))


def check_subsolution(usub, spec, samples=512, seed=2718, tol=1e-10):
    """Dense sampled test of the subsolution conditions.

    At interior samples: curvature vector in the closed cone (the cone
    test of check_admissibility) and K_eta >= psi(x, usub, nu) - tol; at
    boundary samples |usub| <= tol.  The reported margin is the minimum
    over the slack quantities.
    """
    if isinstance(usub, str):
        usub = parse(usub)
    _x_only(usub)
    psi = spec.psi if not isinstance(spec.psi, str) else parse(spec.psi)
    n = spec.n
    rng = np.random.default_rng([seed, n])
    xs = spec.shape.sample_interior(rng, samples)
    zeros = np.zeros(samples)
    zp = np.zeros((samples, n))
    val, grad = eval_x_gradient(usub, EvalEnv.from_gradient(xs, zeros, zp))
    val = np.broadcast_to(np.asarray(val, dtype=float), (samples,))
    hess = _expr_hessian(usub, xs, n)
    geo = geometry.batch_geometry(grad, hess, coeffs=False)
    psi_vals = np.asarray(
        evaluate(psi, EvalEnv.from_gradient(xs, val, grad)), dtype=float)
    psi_slack = geo.K_eta - np.broadcast_to(psi_vals, geo.K_eta.shape)

    xb = sample_boundary(spec.shape, rng, max(64, samples // 8))
    vb = np.asarray(evaluate(usub, EvalEnv.from_gradient(
        xb, np.zeros(len(xb)), np.zeros_like(xb))), dtype=float)
    vb = np.broadcast_to(vb, (len(xb),))
    bnd_slack = tol - np.abs(vb)

    ok = (geo.cone_test(-tol)[0] and bool(np.all(psi_slack >= -tol))
          and bool(np.all(bnd_slack >= 0.0)))
    slacks = np.concatenate([geo.margin / geo.cone_scale, psi_slack, bnd_slack])
    worst = int(np.argmin(slacks))
    return Certificate("subsolution", ok, worst, float(slacks.min()), tol)


def estimate_evidence(report, tol=0.10):
    """Uniform-boundedness evidence: sup|Du| and sup|D2u| grew by < tol
    (relative to the previous stage) between the final two continuation
    stages.  Evidence of a C^{1,1} limit, not a proof.

    Only growth counts: a fall, such as a nearly flat solution collapsing
    toward u ~ 0 (psi = 1e-300), says nothing against a uniform bound.
    """
    stages = report.stages
    if len(stages) < 2:
        raise ValueError("insufficient stages: evidence needs >= 2")
    a, b = stages[-2], stages[-1]
    rel_du = max(0.0, b.sup_du - a.sup_du) / max(abs(a.sup_du), 1e-300)
    rel_d2u = max(0.0, b.sup_d2u - a.sup_d2u) / max(abs(a.sup_d2u), 1e-300)
    m = max(rel_du, rel_d2u)
    return Certificate("estimate_evidence", m < tol, None, float(m), tol)


def standard_certificates(u, usub, grid, report):
    """The bundle the command layer attaches to every solve.  A solve of
    one stage has no earlier stage for estimate_evidence to compare with;
    a line appended to report.warnings says so in its place."""
    geo = geometry.batch_geometry(*all_derivatives(grid, u), coeffs=False)
    certs = [check_maximum_principle(u),
             check_comparison(u, usub),
             check_admissibility(geo)]
    if len(report.stages) >= 2:
        certs.append(estimate_evidence(report))
    else:
        eps = report.stages[0].eps
        why = ("no regularized stage to compare with: psi > 0 on the grid "
               "and no eps > 0 was run" if eps == 0.0
               else f"no earlier stage to compare with: the solve ran at "
                    f"eps={eps:g} only")
        report.warnings.append(f"estimate_evidence not applicable: {why}")
    return certs


# ----------------------------------------------------------------------
# randomized property battery


def _ident(name, rels, tol):
    """Identity-style certificate: rels are relative errors, pass iff all
    within tol; margin is the worst error."""
    rels = np.asarray(rels, dtype=float)
    worst = int(np.argmax(rels))
    m = float(rels[worst])
    return Certificate(name, m <= tol, worst, m, tol)


def _slack(name, vals, tol):
    """Inequality-style certificate: vals are signed slacks, pass iff all
    >= -tol; margin is the worst slack."""
    vals = np.asarray(vals, dtype=float)
    if vals.size == 0:
        return Certificate(name, True, None, np.inf, tol)
    worst = int(np.argmin(vals))
    m = float(vals[worst])
    return Certificate(name, m >= -tol, worst, m, tol)


def _sym_from_spectrum(rng, lam):
    """Random symmetric matrices with the given spectra (batched)."""
    m, n = lam.shape
    g = rng.standard_normal((m, n, n))
    Q, _ = np.linalg.qr(g)
    return np.einsum("mik,mk,mjk->mij", Q, lam, Q)


def _rand_states(rng, m, n, p_scale=1.5):
    """Admissible graph states: positive-definite Hessians, random slopes."""
    lam = rng.uniform(0.1, 3.0, size=(m, n))
    r = _sym_from_spectrum(rng, lam)
    p = rng.standard_normal((m, n)) * p_scale
    return p, r


def _rel(err, scale):
    return np.abs(err) / (1.0 + np.abs(scale))


def _bat_sigma_sum(rng, m, n, tol=1e-12):
    kappa = rng.uniform(-2.0, 3.0, size=(m, n))
    rels = []
    for k in range(1, n + 1):
        lhs = sum(cones.sigma_reduced(kappa, k - 1, i) for i in range(n))
        rhs = (n - k + 1) * cones.sigma(kappa, k - 1)
        rels.append(_rel(lhs - rhs, rhs))
    return _ident(f"sigma_sum_identity_n{n}", np.concatenate(rels), tol)


def _bat_sigma_euler(rng, m, n, tol=1e-12):
    kappa = rng.uniform(-2.0, 3.0, size=(m, n))
    rels = []
    for k in range(1, n + 1):
        lhs = sum(cones.sigma_reduced(kappa, k - 1, i) * kappa[:, i]
                  for i in range(n))
        rhs = k * cones.sigma(kappa, k)
        rels.append(_rel(lhs - rhs, rhs))
    return _ident(f"sigma_euler_identity_n{n}", np.concatenate(rels), tol)


def _bat_maclaurin(rng, m, n, tol=1e-12):
    slacks = []
    for k in range(1, n + 1):
        kappa = cones.sample_gamma_k(rng, m, n, k)
        s1 = cones.sigma(kappa, 1)
        sk = cones.sigma(kappa, k)
        bound = cones.maclaurin_c0(n, k) * sk ** (1.0 / k)
        slacks.append((s1 - bound) / (1.0 + np.abs(s1)))
    return _slack(f"maclaurin_n{n}", np.concatenate(slacks), tol)


def _bat_interp(rng, m, n, tol=1e-12):
    slacks = []
    for k in range(2, n + 1):
        kappa = cones.sample_gamma_k(rng, m, n, k)
        s1 = cones.sigma(kappa, 1)
        sk = cones.sigma(kappa, k)
        skm = cones.sigma(kappa, k - 1)
        bound = cones.interp_c0(n, k) * sk ** (1.0 - 1.0 / (k - 1.0)) \
            * s1 ** (1.0 / (k - 1.0))
        slacks.append((skm - bound) / (1.0 + np.abs(skm)))
    return _slack(f"interp_lower_bound_n{n}", np.concatenate(slacks), tol)


def _bat_concavity(rng, m, n, tol=1e-12):
    a = cones.sample_gamma(rng, m, n)
    b = cones.sample_gamma(rng, m, n)
    mid = cones.f_normalized(0.5 * (a + b))
    avg = 0.5 * (cones.f_normalized(a) + cones.f_normalized(b))
    return _slack(f"root_concavity_n{n}", mid - avg, tol)


def _bat_positivity(rng, m, n, tol=0.0):
    kappa = cones.sample_gamma(rng, m, n)
    worst = cones.f_grad(kappa).min(axis=-1)
    i = int(np.argmin(worst))
    return Certificate(f"gradient_positivity_n{n}", bool(np.all(worst > tol)),
                       i, float(worst[i]), tol)


def _bat_negative_share(rng, m, n, tol=1e-12):
    # for n = 2 the cone is the positive quadrant: vacuously true
    kappa = cones.sample_gamma(rng, m, n, lam_range=(0.02, 3.0))
    kappa = kappa[kappa.min(axis=-1) < 0.0]
    if kappa.shape[0] == 0:
        return Certificate(f"negative_share_n{n}", True, None, np.inf, tol)
    g = cones.f_grad(kappa)
    share = g / g.sum(axis=-1, keepdims=True)
    slack = np.where(kappa < 0.0, share - cones.delta0(n), np.inf).min(axis=-1)
    return _slack(f"negative_share_n{n}", slack, tol)


def _bat_unbounded(rng, m, n, tol=0.0):
    kappa = cones.sample_gamma(rng, m, n)
    vals = []
    for R in (0.0, 1.0, 10.0, 100.0):
        shifted = kappa.copy()
        shifted[:, -1] += R
        vals.append(cones.f_value(shifted))
    growth = np.stack([b - a for a, b in zip(vals, vals[1:])])
    worst = growth.min(axis=0)
    i = int(np.argmin(worst))
    return Certificate(f"unbounded_growth_n{n}", bool(np.all(worst > tol)),
                       i, float(worst[i]), tol)


def _bat_product_form(rng, m, n, tol=1e-14):
    kappa = rng.uniform(-2.0, 3.0, size=(m, n))
    direct = cones.f_value(kappa)
    # independent route: sigma_n of the complementary sums by the
    # expanding-product recurrence
    via_sigma = cones.sigma(cones.lambda_of(kappa), n)
    return _ident(f"product_form_n{n}", _rel(direct - via_sigma, direct), tol)


def _bat_trace_identity(rng, m, n, tol=1e-10):
    p, r = _rand_states(rng, m, n)
    geo = geometry.batch_geometry(p, r, coeffs=False)
    A = geo.A
    kappa, B = np.linalg.eigh(A)
    F = geometry.spectral_grad(A, cones.f_grad(kappa), B)
    tr = np.trace(A, axis1=-2, axis2=-1)
    eta = tr[:, None, None] * np.eye(n) - A
    mu, vecs = np.linalg.eigh(eta)
    Fhat = geometry.spectral_grad(eta, cones.complementary_products(mu), vecs)
    rhs = np.trace(Fhat, axis1=-2, axis2=-1)[:, None, None] * np.eye(n) - Fhat
    err = np.abs(F - rhs).max(axis=(1, 2))
    scale = np.abs(F).max(axis=(1, 2))
    # companion trace: sum_i F^{ii} = (n-1) sigma_{n-1} of the eta spectrum
    trF = np.trace(F, axis1=-2, axis2=-1)
    target = (n - 1.0) * cones.sigma(mu, n - 1)
    err2 = np.abs(trF - target)
    rels = np.concatenate([err / (1.0 + scale), err2 / (1.0 + np.abs(target))])
    return _ident(f"trace_identity_n{n}", rels, tol)


def _bat_ellipticity(rng, m, n, tol=0.0):
    p, r = _rand_states(rng, m, n)
    geo = geometry.batch_geometry(p, r, coeffs=True)
    worst = np.linalg.eigvalsh(geo.G2).min(axis=-1)
    i = int(np.argmin(worst))
    return Certificate(f"ellipticity_n{n}", bool(np.all(worst > tol)),
                       i, float(worst[i]), tol)


def _bat_rotation(rng, m, n, tol=1e-10):
    p, r = _rand_states(rng, m, n)
    g, _ = np.linalg.qr(rng.standard_normal((m, n, n)))
    rq = np.einsum("mki,mkl,mlj->mij", g, r, g)
    pq = np.einsum("mki,mk->mi", g, p)
    k1 = geometry.batch_geometry(p, r, coeffs=False).kappa
    k2 = geometry.batch_geometry(pq, rq, coeffs=False).kappa
    err = np.abs(np.sort(k1, axis=-1) - np.sort(k2, axis=-1)).max(axis=-1)
    scale = np.abs(k1).max(axis=-1)
    return _ident(f"rotation_equivariance_n{n}", err / (1.0 + scale), tol)


def _bat_homogeneity(rng, m, n, tol=1e-10):
    p, r = _rand_states(rng, m, n)
    t = rng.uniform(0.1, 10.0, size=m)
    base = geometry.batch_geometry(p, r, coeffs=False).K_eta
    scaled = geometry.batch_geometry(p, t[:, None, None] * r,
                                     coeffs=False).K_eta
    return _ident(f"homogeneity_n{n}",
                  _rel(scaled - t ** n * base, t ** n * base), tol)


def _bat_inclusion(rng, m, n, tol=1e-12):
    slacks = []
    member_ok = True
    for k in range(1, n):
        lam_r = cones.sample_gamma_k(rng, m, n, k + 1)
        r = _sym_from_spectrum(rng, lam_r)
        p = rng.standard_normal((m, n)) * 1.5
        w2 = 1.0 + np.sum(p * p, axis=-1)
        w = np.sqrt(w2)
        pn2 = np.maximum(np.sum(p * p, axis=-1), 1e-300)
        c = ((1.0 - 1.0 / w) / pn2)[:, None, None]
        S = np.eye(n) - c * np.einsum("mi,mj->mij", p, p)
        lam_rp = np.linalg.eigvalsh(np.einsum("mik,mkl,mlj->mij", S, r, S))
        member_ok = member_ok and bool(np.all(cones.in_gamma_k(lam_rp, k)))
        for j in range(1, k + 1):
            lhs = cones.sigma(lam_rp, j)
            rhs = cones.sigma(lam_r, j) / w2
            slacks.append((lhs - rhs) / (1.0 + np.abs(rhs)))
    cert = _slack(f"cone_inclusion_n{n}", np.concatenate(slacks), tol)
    if not member_ok:
        cert = Certificate(cert.name, False, cert.worst_node, cert.margin,
                           cert.tol)
    return cert


def _bat_sphere(rng, m, n, tol=1e-12):
    rels = np.empty(m)
    for q in range(m):
        R = rng.uniform(0.5, 2.0)
        x = rng.standard_normal(n)
        x *= rng.uniform(0.0, 0.9) * R / np.linalg.norm(x)
        st = geometry.cap_state(x, R)
        kappa = geometry.batch_geometry(st.p[None], st.r[None],
                                        coeffs=False).kappa[0]
        rels[q] = np.abs(kappa - 1.0 / R).max() * R
    return _ident(f"sphere_exactness_n{n}", rels, tol)


def _bat_ilt(rng, m, n, tol=1e-7):
    m = min(m, 250)  # per-sample FD loop; the coefficient is affine-exact
    rels = []
    step = 1e-6
    for q in range(m):
        p, r = _rand_states(rng, 1, n)
        p, r = p[0], r[0]
        for k in range(1, n + 1):
            for i in range(n):
                coef = geometry.ilt_coefficient(r, p, k, i)
                rp = r.copy()
                rp[i, i] += step
                rm = r.copy()
                rm[i, i] -= step
                fd = (geometry.sk_rp(rp, p, k)
                      - geometry.sk_rp(rm, p, k)) / (2.0 * step)
                rels.append(_rel(coef - fd, fd))
    return _ident(f"ilt_coefficient_n{n}", rels, tol)


def _bat_gs(rng, m, n, tol=1e-6):
    m = min(m, 400)
    p, r = _rand_states(rng, m, n)
    geo = geometry.batch_geometry(p, r, coeffs=True)
    step = 1e-6
    rels = []
    for s in range(n):
        dp = np.zeros(n)
        dp[s] = step
        kp = geometry.batch_geometry(p + dp, r, coeffs=False).K_eta
        km = geometry.batch_geometry(p - dp, r, coeffs=False).K_eta
        fd = (kp - km) / (2.0 * step)
        rels.append(_rel(geo.Gs[:, s] - fd, geo.K_eta))
    return _ident(f"gradient_coefficients_n{n}", np.concatenate(rels), tol)


_BATTERY = (
    _bat_sigma_sum,
    _bat_sigma_euler,
    _bat_maclaurin,
    _bat_interp,
    _bat_concavity,
    _bat_positivity,
    _bat_negative_share,
    _bat_unbounded,
    _bat_product_form,
    _bat_trace_identity,
    _bat_ellipticity,
    _bat_rotation,
    _bat_homogeneity,
    _bat_inclusion,
    _bat_sphere,
    _bat_ilt,
    _bat_gs,
)


#: dimensions the property battery covers by default
BATTERY_DIMS = (2, 3, 4, 5, 6)


def property_battery(seed=42, samples=10000, dims=BATTERY_DIMS):
    """Randomized re-check of every cone and graph-geometry invariant.

    The per-property sample budget is samples/len(dims) for each dimension
    (finite-difference cross-checks cap their loop counts; the caps sit in
    the individual properties).  Deterministic: outcomes and worst-case
    margins depend only on (seed, samples, dims).
    """
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 2 for d in dims):
        raise ValueError("dims must be non-empty, all >= 2")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    m = max(1, int(samples) // len(dims))
    certs = []
    for idx, prop in enumerate(_BATTERY):
        for n in dims:
            rng = np.random.default_rng([int(seed), idx, n])
            certs.append(prop(rng, m, n))
    return certs
