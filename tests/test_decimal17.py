"""The solution-file number format: decimal17's encoder against '%.17g'
and its decoder against float(), byte for byte and bit for bit."""

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import numpy as np
import pytest

from etacurv import decimal17
from etacurv.decimal17 import encode_table, format_table, parse_table


def percent_g(table):
    """The reference: '%.17g' per value, a space between, a newline after
    every row."""
    fmt = " ".join(["%.17g"] * table.shape[1])
    return "".join(fmt % tuple(row) + "\n" for row in table.tolist())


def rows(lines):
    """The bytes of the text rows lines, a newline after each."""
    return "".join(line + "\n" for line in lines).encode()


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_same_text(got, want):
    """got == want, failing with the first differing line and its index."""
    if got != want:
        pairs = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
        first = next(((k, g, w) for k, (g, w) in enumerate(pairs) if g != w),
                     (None, len(got), len(want)))
        raise AssertionError(f"first difference (line, got, want): {first}")


def assert_same_bits(got, lines):
    """got holds float()'s value of every token of lines, bit for bit."""
    want = np.array([[float(t) for t in ln.split()] for ln in lines])
    assert got is not None
    bad = np.flatnonzero(bits(got) != bits(want))
    assert bad.size == 0, [(lines[i // want.shape[1]].split()[i % want.shape[1]],
                            got.flat[i], want.flat[i]) for i in bad[:5]]


def edge_values():
    """Zeros, non-finite values, subnormals, the extremes, every power of
    ten a double comes near and both its neighbours, the boundaries of
    fixed notation, ties, and the doubles whose 17-digit rounding carries
    to 10^17."""
    v = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
         5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
         1.7976931348623157e308, 1e300, -1e300, 1e-300, -1e-300,
         1e-290, 1e290, 9.99e289, 1.01e-290,
         1e-5, 1e-4, 9.9999999999999995e-05, 0.0001, 0.00099999999999999,
         1e16, 1e17, 9999999999999998.0, 99999999999999984.0,
         12345678901234567.0, 123456789012345675.0,
         2251799813685248.25, 2251799813685248.75, 0.5, 0.25, 1.5,
         1e23, 8.0000000000000053, -0.0030035133750559396]
    for k in range(-324, 309):
        x = float(Fraction(10) ** k)
        v += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    # the 4-digit and 17-digit boundaries of fixed notation: k = -5/-4
    # and 16/17, with runs of nines that round up across them
    for x in (1e-4, 1e-5, 1e16, 1e17, 1e15):
        y = x
        for _ in range(4):
            y = math.nextafter(y, 0.0)
            v.append(y)
    v = np.array(v)
    return np.concatenate([v, -v])


def test_carry_cases_are_covered():
    # the double nearest 10^-14 lies below it, yet its 17 digits round up
    # to 10^17 and it prints as 1e-14: edge_values holds such doubles
    carried = []
    for x in edge_values():
        if x > 0.0 and math.isfinite(x):
            d = Decimal("%.17g" % x)
            if d.normalize().as_tuple().digits == (1,) and Fraction(x) < d:
                carried.append(x)
    assert len(carried) >= 5


def test_encoder_matches_percent_g_on_edge_values():
    v = edge_values()
    table = v[: len(v) // 7 * 7].reshape(-1, 7)
    assert_same_text(format_table(table), percent_g(table))
    col = v.reshape(-1, 1)
    assert_same_text(format_table(col), percent_g(col))


def test_encoder_matches_percent_g_on_random_bit_patterns():
    rng = np.random.default_rng(20260131)
    x = rng.integers(0, 2 ** 64, size=1_000_000, dtype=np.uint64)
    table = x.view(np.float64).reshape(-1, 10)
    assert_same_text(format_table(table), percent_g(table))


def test_encoder_matches_percent_g_on_solver_magnitudes():
    # signed values of every decade a solution file holds, with trailing
    # zeros, points after digit 1-16 and integers
    rng = np.random.default_rng(7)
    m = rng.standard_normal((20000, 9))
    m *= 10.0 ** rng.integers(-20, 18, size=m.shape)
    m[::3] = np.round(m[::3], 3)
    m[1::5] = np.trunc(m[1::5])
    assert_same_text(format_table(m), percent_g(m))


def test_block_boundaries_inside_rows(monkeypatch):
    rng = np.random.default_rng(3)
    table = rng.standard_normal((23, 5)) * 10.0 ** rng.integers(-8, 8, (23, 5))
    table[4, 2] = math.nan
    table[9, 0] = -0.0
    want = percent_g(table)
    monkeypatch.setattr(decimal17, "BLOCK", 7)
    blocks = list(encode_table(table))
    assert len(blocks) == math.ceil(table.size / 7)
    # the second block starts in the middle of the second row
    assert not blocks[0].endswith("\n") and blocks[0].count("\n") == 1
    assert_same_text("".join(blocks), want)
    lines = want.splitlines()
    assert np.array_equal(bits(parse_table(rows(lines), 5)), bits(table))
    # the decoder's blocks of 25 * 7 bytes end at the last newline in them,
    # and the last row may go without one
    assert np.array_equal(bits(parse_table(rows(lines)[:-1], 5)), bits(table))


def test_decoder_matches_float_on_encoded_values():
    rng = np.random.default_rng(11)
    x = rng.integers(0, 2 ** 64, size=400_000, dtype=np.uint64)
    table = np.concatenate([x.view(np.float64), edge_values()])
    table = table[: len(table) // 8 * 8].reshape(-1, 8)
    lines = format_table(table).splitlines()
    assert_same_bits(parse_table(rows(lines), 8), lines)


def scientific(dec):
    """dec in the writer's exponent form: d.ddde+XX."""
    sign, digits, exp = dec.as_tuple()
    text = "".join(map(str, digits))
    mantissa = text[0] + ("." + text[1:] if len(text) > 1 else "")
    return "-" * sign + mantissa + "e%+03d" % (exp + len(text) - 1)


def midpoint_tokens(count, seed):
    """Tokens of 16 to 19 significant digits next to the midpoint of two
    neighbouring doubles, in both notations, and exact midpoints."""
    rng = np.random.default_rng(seed)
    xs = rng.integers(1, 0x7FE0000000000000, size=count, dtype=np.uint64)
    tokens = []
    for x, digits in zip(xs.view(np.float64).tolist(),
                         rng.integers(16, 20, size=count).tolist()):
        mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
        exact = Decimal(mid.numerator) / Decimal(mid.denominator)
        token = "-" * 25
        while len(token) > 24:  # the writer's longest token
            dec = Context(prec=digits, rounding=ROUND_HALF_EVEN).plus(exact)
            token = (scientific(dec) if x > 1e17 or x < 1e-4
                     else format(dec, "f"))
            digits -= 1
        tokens.append(token)
    # exact midpoints, ties to even; where 10^e is not a double the
    # double-double lies off the tie, and only the midpoint check keeps
    # the tie to even: j + 1/2 between doubles of spacing 1, and j + 1/4
    # or 3/4 between doubles of spacing 1/2
    ties = [f"{j}.5" for j in rng.integers(2 ** 52, 2 ** 53, size=200).tolist()]
    ties += [f"{j}.{q}" for j, q in zip(
        rng.integers(2 ** 51, 2 ** 52, size=200).tolist(),
        rng.choice(["25", "75"], size=200).tolist())]
    ties += [scientific(Decimal(t)) for t in ties[::7]]
    return tokens + ties + ["9007199254740993", "9007199254740995",
                            "-9007199254740993", "0.5", "-0", "0.000",
                            "0e+00", "1e+22", "1e+23", "8e-05"]


def test_decoder_matches_float_on_midpoint_tokens():
    tokens = midpoint_tokens(100_000, 5)
    tokens += [t for t in ("1.7976931348623157e+308", "2.2250738585072014e-308",
                           "4.9406564584124654e-324", "1e-320", "-1e+300")]
    tokens = tokens[: len(tokens) // 4 * 4]
    lines = [" ".join(tokens[i:i + 4]) for i in range(0, len(tokens), 4)]
    assert_same_bits(parse_table(rows(lines), 4), lines)


@pytest.mark.parametrize("lines", [
    ["1 2", "3 4 "],          # a trailing space
    ["1  2", "3 4"],          # two spaces
    ["1 2", ""],              # a blank row
    ["1 2", "3\t4"],          # a tab
    ["1 2", "3 4_0"],         # digit grouping
    ["1 2", "3 +4"],          # a plus sign
    ["1 2", "3 .4"],          # no integer digit
    ["1 2", "3 4."],          # no fraction digit
    ["1 2", "3 4e5"],         # an exponent without sign
    ["1 2", "3 4e105"],
    ["1 2", "3 4e+5"],        # one exponent digit
    ["1 2", "3 4e+0005"],     # four exponent digits
    ["1 2", "3 1.2.3"],       # two points
    ["1 2", "3 Infinity"],
    ["1 2", "3 NaN"],
    ["1 2", "3 4 5"],         # a row too long
    ["1 2", "3"],             # a row too short
    ["1 2", "3 " + "1" * 25],  # a token too long
    ["1 2", "3 0.1-34567890123456789012"],  # a sign deep in a fraction
    ["1 2", "3 0.e234567890123456789012"],
    ["1 2", "3 ٤"],      # a non-ASCII digit
])
def test_decoder_leaves_other_tables_to_the_caller(lines):
    assert parse_table(rows(lines), 2) is None


def test_decoder_reads_non_finite_tokens_and_long_ones():
    lines = ["nan inf -inf 1e-300",
             "123456789012345678901234 0.1234567890123456789 -0 0.000"]
    assert_same_bits(parse_table(rows(lines), 4), lines)


def test_decoder_leaves_exact_midpoints_to_float():
    # j + 1/2 between doubles of spacing 1 and j + 1/4 between doubles of
    # spacing 1/2: D 10^e lies on a midpoint, and 10^-1, 10^-2 are not
    # doubles, so the double-double cannot certify the tie
    rng = np.random.default_rng(9)
    d = np.concatenate([rng.integers(2 ** 52, 2 ** 53, 500) * 10 + 5,
                        rng.integers(2 ** 51, 2 ** 52, 500) * 100 + 25])
    e = np.repeat([-1, -2], 500)
    _, certain = decimal17._round_product(d, e)
    assert not certain.any()
