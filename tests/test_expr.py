"""Expression language: parsing, printing, evaluation, forward derivatives."""

import math

import numpy as np
import pytest

from etacurv.expr import (
    BinOp,
    Call,
    DomainError,
    EvalEnv,
    ExprSyntaxError,
    Neg,
    Num,
    UnknownIdentifier,
    Var,
    beyond_position,
    check_dimension,
    eval_with_derivs,
    eval_x_gradient,
    evaluate,
    parse,
    to_text,
    validate_psi,
    variables,
)


def env_point(x, z=0.0, p=None):
    x = np.asarray(x, dtype=float)
    if p is None:
        p = np.zeros_like(x)
    return EvalEnv.from_gradient(x, z, p)


# ---------------------------------------------------------------- parsing


def test_parse_literals_and_structure():
    assert parse("1") == Num(1.0)
    assert parse("x1") == Var("x1")
    assert parse("-x1") == Neg(Var("x1"))
    assert parse("x1 + x2 * z") == BinOp("+", Var("x1"), BinOp("*", Var("x2"), Var("z")))
    assert parse("max(r, 0)") == Call("max", (Var("r"), Num(0.0)))
    assert parse("1e-2") == Num(0.01)
    assert parse(".5") == Num(0.5)


def test_parse_precedence_values():
    e = env_point([0.0, 0.0])
    assert evaluate(parse("2 + 3 * 4"), e) == 14.0
    assert evaluate(parse("2 * 3 + 4"), e) == 10.0
    assert evaluate(parse("6 / 3 / 2"), e) == 1.0  # left-assoc
    assert evaluate(parse("2 - 3 - 4"), e) == -5.0
    assert evaluate(parse("2^3^2"), e) == 512.0  # right-assoc
    assert evaluate(parse("-2^2"), e) == -4.0  # ^ binds tighter than unary -
    assert evaluate(parse("2^-1"), e) == 0.5
    assert evaluate(parse("(2 + 3) * 4"), e) == 20.0


def test_parse_example_sum_of_squares():
    e = parse("x1^2 + x2^2")
    assert evaluate(e, env_point([0.3, 0.4])) == pytest.approx(0.25, abs=1e-15)


def test_parse_example_truncated_quartic():
    e = parse("max(r^2 - 0.04, 0)^2")
    # vanishes on |x| <= 0.2 (exactly 0 inside; rounding dust on the rim)
    for x in ([0.0, 0.0], [0.1, 0.1], [0.15, 0.1]):
        assert evaluate(e, env_point(x)) == 0.0
    assert evaluate(e, env_point([0.2, 0.0])) <= 1e-30
    assert evaluate(e, env_point([0.5, 0.0])) == pytest.approx(0.21 ** 2, rel=1e-14)


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as ei:
        parse("x1 +")
    assert ei.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse("(x1")
    with pytest.raises(ExprSyntaxError) as ei:
        parse("1 2")
    assert ei.value.offset == 2
    with pytest.raises(ExprSyntaxError) as ei:
        parse("x1 $ x2")
    assert ei.value.offset == 3


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifier):
        parse("foo")
    with pytest.raises(UnknownIdentifier):
        parse("bar(x1)")
    # x<k> and nu<k> need k >= 1 written without a leading zero
    for text in ("x0", "nu0", "x01", "nu05", "x", "nu", "xx1", "nu1a"):
        with pytest.raises(UnknownIdentifier, match="unknown identifier"):
            parse(text)
    with pytest.raises(ExprSyntaxError):
        parse("sqrt(x1, x2)")  # arity
    with pytest.raises(ExprSyntaxError):
        parse("max(x1)")  # arity


def test_check_dimension():
    check_dimension(parse("x1 + x2 + nu3 + z + r + w"), 2)
    with pytest.raises(UnknownIdentifier):
        check_dimension(parse("x3"), 2)
    with pytest.raises(UnknownIdentifier):
        check_dimension(parse("nu4"), 2)
    check_dimension(parse("x3 + nu4"), 3)
    # one rule for every n: x<k> for k <= n, nu<k> for k <= n + 1
    check_dimension(parse("x4 + nu5"), 4)
    check_dimension(parse("x12 + nu13"), 12)
    for text, n in (("x5", 4), ("nu6", 4), ("x13", 12), ("nu14", 12)):
        with pytest.raises(UnknownIdentifier, match=f"'{text}' undefined"):
            check_dimension(parse(text), n)


def test_indexed_names_read_their_component_in_any_dimension():
    rng = np.random.default_rng(4)
    for n in (2, 4, 11):
        x, z, p = rng.normal(size=n), rng.normal(), rng.normal(size=n)
        env = EvalEnv.from_gradient(x, z, p)
        for k in range(n):
            assert evaluate(parse(f"x{k + 1}"), env) == x[k]
        for k in range(n + 1):
            assert evaluate(parse(f"nu{k + 1}"), env) == env.nu[k]
        # d nu_{n+1} / dp = -p / w^3, the seed of the last index
        _, _, dp = eval_with_derivs(parse(f"nu{n + 1}"), env)
        np.testing.assert_allclose(dp, -p / env.w ** 3, rtol=1e-14)
        _, gx = eval_x_gradient(parse(f"x{n}"), env)
        assert gx.tolist() == [0.0] * (n - 1) + [1.0]


def test_beyond_position():
    assert beyond_position(parse("x1 + x4 * r")) == []
    assert beyond_position(parse("x10 + w + nu5 - z")) == ["nu5", "w", "z"]


def test_variables():
    assert variables(parse("max(x1, z) * nu2 - w")) == {"x1", "z", "nu2", "w"}
    assert variables(parse("3.5")) == set()


# ---------------------------------------------------------------- printing


def _rand_expr(rng, n, depth):
    """Random tree in the parser's image (numeric leaves non-negative),
    built so every evaluation point of the test envs is domain-safe and
    away from max/min/abs kinks (those get dedicated tests)."""
    names = ["x1", "x2", "z", "w", "r", "nu1", "nu2", "nu3"]
    if n == 3:
        names += ["x3", "nu4"]
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Num(float(np.round(rng.uniform(0.0, 2.0), 3)))
        return Var(names[rng.integers(len(names))])
    a = _rand_expr(rng, n, depth - 1)
    b = _rand_expr(rng, n, depth - 1)
    pick = rng.integers(8)
    if pick == 0:
        return BinOp("+", a, b)
    if pick == 1:
        return BinOp("-", a, b)
    if pick == 2:
        return BinOp("*", a, b)
    if pick == 3:
        # denominator bounded away from zero
        return BinOp("/", a, BinOp("+", Num(2.0), Call("sin", (b,))))
    if pick == 4:
        # powers only of mildly varying bases, else FD conditioning degrades
        return BinOp("^", BinOp("+", Num(1.0), BinOp("^", Call("sin", (a,)), Num(2.0))), Num(float(rng.integers(2, 4))))
    if pick == 5:
        return Call("sqrt", (BinOp("+", Num(1.0), BinOp("^", a, Num(2.0))),))
    if pick == 6:
        return Call("exp", (BinOp("*", Num(0.25), Call("cos", (a,))),))
    return Call("log", (BinOp("+", Num(1.5), Call("sin", (a,))),))


def test_to_text_round_trip_random():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(2, 4))
        e = _rand_expr(rng, n, 3)
        text = to_text(e)
        again = parse(text)
        assert again == e
        assert to_text(again) == text


def test_to_text_spot_checks():
    assert to_text(parse("x1^2 + x2^2")) == "x1^2.0 + x2^2.0"
    assert to_text(parse("-(x1 + z)")) == "-(x1 + z)"
    assert to_text(parse("2^3^2")) == "2.0^3.0^2.0"
    assert to_text(parse("(2^3)^2")) == "(2.0^3.0)^2.0"
    assert to_text(parse("max(r, 0, z)")) == "max(r, 0.0, z)"


# ---------------------------------------------------------------- evaluation


def test_eval_examples():
    assert evaluate(parse("8"), env_point([0.1, 0.2])) == 8.0
    # upward normal: p = 0 gives nu = (0, 0, 1)
    assert evaluate(parse("nu3"), env_point([0.0, 0.0])) == 1.0
    assert evaluate(parse("exp(z)"), env_point([0.0, 0.0], z=0.0)) == 1.0
    assert evaluate(parse("r"), env_point([3.0, 4.0])) == 5.0
    assert evaluate(parse("w"), env_point([0.0, 0.0], p=[1.0, 0.0])) == pytest.approx(np.sqrt(2.0))


def test_eval_env_from_gradient():
    env = EvalEnv.from_gradient([0.1, 0.2], -0.3, [1.0, 2.0])
    w = np.sqrt(6.0)
    assert env.w == pytest.approx(w)
    np.testing.assert_allclose(env.nu, [-1.0 / w, -2.0 / w, 1.0 / w], rtol=1e-15)
    np.testing.assert_allclose(env.gradient(), [1.0, 2.0], rtol=1e-14)
    assert np.linalg.norm(env.nu) == pytest.approx(1.0)


def test_eval_batch_broadcasting():
    env = EvalEnv.from_gradient(
        np.array([[0.3, 0.4], [1.0, 0.0]]), np.zeros(2), np.zeros((2, 2))
    )
    np.testing.assert_allclose(evaluate(parse("x1^2 + x2^2"), env), [0.25, 1.0])
    out = evaluate(parse("7"), env)
    assert out.shape == (2,)
    np.testing.assert_allclose(out, 7.0)
    val, dz, dp = eval_with_derivs(parse("3"), env)
    assert val.shape == (2,) and dz.shape == (2,) and dp.shape == (2, 2)
    assert np.all(dz == 0.0) and np.all(dp == 0.0)


def test_single_point_is_the_0d_batch():
    # a point env is the batch of shape (): every evaluator returns arrays of
    # that shape, bitwise the values of the same point as a batch of one
    e = parse("x1 * z + nu1 * w - x2")
    point = env_point([0.3, 0.4], z=-0.2, p=[1.0, 2.0])
    one = EvalEnv.from_gradient(np.array([[0.3, 0.4]]), np.array([-0.2]),
                                np.array([[1.0, 2.0]]))
    val = evaluate(e, point)
    assert np.shape(val) == () and val == evaluate(e, one)[0]
    got, want = eval_with_derivs(e, point), eval_with_derivs(e, one)
    assert [np.shape(a) for a in got] == [(), (), (2,)]
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == b[0].tobytes()
    got, want = eval_x_gradient(e, point), eval_x_gradient(e, one)
    assert [np.shape(a) for a in got] == [(), (2,)]
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == b[0].tobytes()
    # like every batch, a point's -0.0 comes out +0.0
    assert math.copysign(1.0, evaluate(parse("-x1"), env_point([0.0, 0.0]))) == 1.0


def test_domain_errors():
    env = env_point([1.0, 0.0], z=0.0)
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(0 - x1)"), env)
    with pytest.raises(DomainError):
        evaluate(parse("log(z)"), env)  # z = 0
    with pytest.raises(DomainError):
        evaluate(parse("1 / (x1 - 1)"), env)
    with pytest.raises(DomainError):
        evaluate(parse("(0 - x1)^0.5"), env)
    with pytest.raises(DomainError):
        evaluate(parse("0^-1"), env)
    # variable exponent demands a positive base
    with pytest.raises(DomainError):
        eval_with_derivs(parse("(0 - x1)^z"), env_point([1.0, 0.0], z=0.5))


# ---------------------------------------------------------------- derivatives


def test_derivs_example_z():
    val, dz, dp = eval_with_derivs(parse("z"), env_point([0.1, 0.2], z=-0.7))
    assert val == -0.7
    assert dz == 1.0
    np.testing.assert_array_equal(dp, 0.0)


def test_derivs_example_nu3_flat():
    val, dz, dp = eval_with_derivs(parse("nu3"), env_point([0.0, 0.0]))
    assert val == 1.0
    assert dz == 0.0
    np.testing.assert_array_equal(dp, 0.0)  # d(1/w)/dp = -p/w^3 = 0 at p = 0


def test_derivs_w_closed_form():
    p = np.array([0.6, -0.3])
    val, dz, dp = eval_with_derivs(parse("w"), env_point([0.0, 0.0], p=p))
    w = np.sqrt(1.0 + p @ p)
    assert val == pytest.approx(w)
    np.testing.assert_allclose(dp, p / w, rtol=1e-14)


def test_x_vars_have_no_p_derivative():
    _, dz, dp = eval_with_derivs(parse("x1 * x2"), env_point([0.3, 0.4], p=[1.0, 2.0]))
    assert dz == 0.0
    np.testing.assert_array_equal(dp, 0.0)


def _fd_zp(e, x, z, p, h=1e-6):
    """Central differences of evaluate in (z, p)."""
    def at(z2, p2):
        return evaluate(e, EvalEnv.from_gradient(x, z2, p2))

    dz = (at(z + h, p) - at(z - h, p)) / (2 * h)
    dp = np.empty_like(p)
    for k in range(p.size):
        ep = np.zeros_like(p)
        ep[k] = h
        dp[k] = (at(z, p + ep) - at(z, p - ep)) / (2 * h)
    return dz, dp


def test_derivs_match_fd_random():
    # the core derivative contract: 10^3 random expression/env pairs.
    # A pair counts only when FD itself is trustworthy: the h vs 2h
    # Richardson gap bounds FD truncation, independent of the AD output.
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 4))
        e = _rand_expr(rng, n, 3)
        x = rng.uniform(-0.7, 0.7, n)
        while np.linalg.norm(x) < 0.1:
            x = rng.uniform(-0.7, 0.7, n)
        z = rng.uniform(-1.5, 0.0)
        p = rng.uniform(-1.5, 1.5, n)
        val, dz, dp = eval_with_derivs(e, EvalEnv.from_gradient(x, z, p))
        fz, fp = _fd_zp(e, x, z, p)
        fz2, fp2 = _fd_zp(e, x, z, p, h=2e-6)
        scale = 1.0 + abs(val) + abs(dz) + np.abs(fp).max()
        tol = 1e-6 * scale
        if abs(fz - fz2) > tol or np.abs(fp - fp2).max() > tol:
            continue
        checked += 1
        assert abs(dz - fz) <= tol, to_text(e)
        np.testing.assert_allclose(dp, fp, atol=tol, err_msg=to_text(e))
    assert checked >= 900


def test_x_gradient_matches_fd_random():
    rng = np.random.default_rng(78)
    for _ in range(300):
        n = int(rng.integers(2, 4))
        e = _rand_expr(rng, n, 3)
        x = rng.uniform(-0.7, 0.7, n)
        while np.linalg.norm(x) < 0.1:
            x = rng.uniform(-0.7, 0.7, n)
        z = rng.uniform(-1.5, 0.0)
        p = rng.uniform(-1.5, 1.5, n)
        val, dx = eval_x_gradient(e, EvalEnv.from_gradient(x, z, p))
        h = 1e-6
        fd = np.empty(n)
        env0 = EvalEnv.from_gradient(x, z, p)
        for k in range(n):
            ek = np.zeros(n)
            ek[k] = h
            up = EvalEnv(x=x + ek, z=env0.z, nu=env0.nu, w=env0.w)
            dn = EvalEnv(x=x - ek, z=env0.z, nu=env0.nu, w=env0.w)
            fd[k] = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
        scale = 1.0 + abs(val) + np.abs(fd).max()
        np.testing.assert_allclose(dx, fd, atol=1e-6 * scale, err_msg=to_text(e))


def test_value_channel_bitwise_equal():
    rng = np.random.default_rng(79)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        e = _rand_expr(rng, n, 3)
        x = rng.uniform(-0.7, 0.7, n)
        env = EvalEnv.from_gradient(x, rng.uniform(-1.0, 0.0), rng.uniform(-1.0, 1.0, n))
        v0 = evaluate(e, env)
        v1 = eval_with_derivs(e, env)[0]
        v2 = eval_x_gradient(e, env)[0]
        assert np.float64(v0).tobytes() == np.float64(v1).tobytes()
        assert np.float64(v0).tobytes() == np.float64(v2).tobytes()


def test_max_min_tie_takes_first_argument():
    # documented kink policy: at a tie the first argument's derivative wins
    env = env_point([0.5, 0.0], z=-0.5)
    _, dz, _ = eval_with_derivs(parse("max(x1, 0 - z)"), env)  # tie at 0.5
    assert dz == 0.0  # x1 branch, not the -z branch
    _, dz, _ = eval_with_derivs(parse("max(0 - z, x1)"), env)
    assert dz == -1.0
    _, dz, _ = eval_with_derivs(parse("min(x1, 0 - z)"), env)
    assert dz == 0.0


def test_abs_derivative_sign():
    _, dz, _ = eval_with_derivs(parse("abs(z)"), env_point([0.1, 0.1], z=-0.4))
    assert dz == -1.0
    _, dz, _ = eval_with_derivs(parse("abs(z)"), env_point([0.1, 0.1], z=0.4))
    assert dz == 1.0


def test_power_zero_exponent_at_zero_base():
    # max(t, 0)^2 must stay differentiable at t = 0; 0^2 -> derivative 0
    val, dz, dp = eval_with_derivs(parse("max(z, 0)^2"), env_point([0.1, 0.1], z=0.0))
    assert val == 0.0
    assert dz == 0.0


# ---------------------------------------------------------------- validate_psi


class _Ball:
    def __init__(self, r0, n):
        self.semiaxes = (r0,) * n
        self._n = n

    def sample_interior(self, rng, m):
        v = rng.normal(size=(m, self._n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        rad = self.semiaxes[0] * rng.uniform(0.0, 1.0, m) ** (1.0 / self._n)
        return v * rad[:, None]


class _Spec:
    def __init__(self, n, psi_lower=None):
        self.n = n
        self.shape = _Ball(0.5, n)
        self.psi_lower = psi_lower


def test_validate_psi_constant_one():
    rep = validate_psi(parse("1"), _Spec(2))
    assert rep.nonnegative and rep.monotone_z
    assert rep.min_psi == 1.0
    assert rep.min_psi_z == 0.0


def test_validate_psi_flags_negative():
    rep = validate_psi(parse("-1"), _Spec(2))
    assert not rep.nonnegative
    assert rep.min_psi == -1.0


def test_validate_psi_flags_decreasing_in_z():
    rep = validate_psi(parse("0 - z"), _Spec(2))
    assert rep.nonnegative  # z is sampled <= 0
    assert not rep.monotone_z


def test_validate_psi_gap_identical_lower_bound():
    rep = validate_psi(parse("r^2"), _Spec(2, psi_lower=parse("r^2")))
    assert rep.min_gap == 0.0
    assert rep.nonnegative and rep.monotone_z


def test_validate_psi_dimension_check():
    with pytest.raises(UnknownIdentifier):
        validate_psi(parse("x3"), _Spec(2))
