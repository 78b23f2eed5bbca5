"""The solution-file number format, both ways, at array speed.

Every number in a solution or radial profile file is written as Python's
'%.17g' writes it and read back as float() reads it.  Both conversions
are exact, so they are done here on whole arrays instead of value by
value, with the same bytes and the same doubles as the per-value calls.

Writing (Adams, "Ryu: fast float-to-string conversion", PLDI 2018, for
the idea of exact scaled integer digits): |x| is scaled to 17 digits,
P = |x| 10^(16-k) with k = floor(log10 |x|), as a double-double product
with 10^(16-k) from a table built exactly once from Python integers.  P
is rounded to the integer D, certified by its fraction lying further
than the product's error bound from 1/2, and k is corrected where P
leaves [10^16, 10^17).  D becomes ASCII through a 4-digit lookup table,
and each field is laid out from the digits by its notation, exponent and
last nonzero digit.  Values it cannot certify (nan, +-inf, a decimal
exponent beyond the table, P within the bound of a tie or of a power of
ten) are formatted by '%.17g' one at a time.

Reading (Clinger, "How to read floating point numbers accurately", PLDI
1990): a table whose every token has the writer's form -?d+(.d+)?
(e[+-]dd[d])?, or is nan, inf or -inf, is parsed from its bytes: the
digits as an integer D < 10^18 and the exponent e, and D 10^e as a
double-double rounded to nearest.  A result within the error bound of a
midpoint between doubles, and a token with more digits or a larger
exponent, is read again by float().  Any other table is left to the
caller, which keeps its own parser and error messages.
"""

from __future__ import annotations

import numpy as np

#: values per block of the encoder and tokens per block of the decoder;
#: a block's temporaries take about 400 bytes a value
BLOCK = 1 << 13

_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into halves
# decimal exponents of |x| the encoder scales, and of 10^e the decoder
# multiplies by; inside these every product, split and error term is a
# normal double
_K_MIN, _K_MAX = -290, 290
_E_MIN, _E_MAX = -270, 288
# |computed - exact| of a scaled 17-digit integer is below 1e-14, and of
# a decoded value below 2^-102 of it: certify only further from a tie
_TIE = 1e-12
_BOUND = 2.0 ** -96

_ASCII_ZERO = 48
# the longest token of the writer's form and the space or newline after it
_TOKEN_BYTES = 25


def _split(v):
    """(hi, lo), hi + lo = v exactly, each with 26 significant bits;
    scaled by a power of two where v * _SPLIT would overflow."""
    scale = 2.0 ** -64 if abs(v) > 1e290 else 1.0
    w = v * scale
    c = w * _SPLIT
    hi = (c - (c - w)) / scale
    return hi, v - hi


def _powers_of_ten(lo, hi):
    """10^m for m in [lo, hi] as columns (hi, lo, hi's two halves): hi
    the double nearest 10^m and lo the double nearest 10^m - hi."""
    rows = []
    for m in range(lo, hi + 1):
        num, den = (10 ** m, 1) if m >= 0 else (1, 10 ** -m)
        top = num / den  # int / int rounds correctly
        whole = top.as_integer_ratio()
        rest = (num * whole[1] - whole[0] * den) / (den * whole[1])
        rows.append((top, rest, *_split(top)))
    return np.array(rows).T.copy()


_P_LO = min(16 - _K_MAX - 1, _E_MIN)
_P10_HI, _P10_LO, _P10_HH, _P10_HL = _powers_of_ten(_P_LO,
                                                    max(16 - _K_MIN + 1, _E_MAX))
# the four ASCII digits of 0..9999 as one little-endian uint32 each
_LUT4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)),
                      dtype="<u4")
# trailing decimal zeros of 0..9999, 4 for 0
_TZ4 = np.array([4] + [len(s) - len(s.rstrip("0"))
                       for s in map(str, range(1, 10000))], dtype=np.int64)
_INT_P10 = 10 ** np.arange(19, dtype=np.int64)
# by fraction length f: the integer parts below which f + its digits stay
# within 18, 1 (none but 0) beyond 18
_WHOLE_BELOW = np.concatenate([_INT_P10[::-1], np.ones(6, dtype=np.int64)])


def _scaled(a, m):
    """(p, t) with p + t = a 10^m to within 1e-14 where that is below
    10^17: p = fl(a hi) and t the rest, from Dekker's exact product."""
    i = m - _P_LO
    th, thh, thl = _P10_HI[i], _P10_HH[i], _P10_HL[i]
    p = a * th
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    err = ((ah * thh - p) + ah * thl + al * thh) + al * thl
    return p, err + a * _P10_LO[i]


# ---------------------------------------------------------------- encoder

# A field is laid out in a row of _W bytes, and the row's kept columns,
# in order, are its bytes: the sign, "0." and up to three zeros of fixed
# notation below 1, digit 0, the point, digits 1-16, "e", the exponent's
# sign and three digits, and the separator.  Where the point follows
# digit p > 1, digits 1 to p-1 move left over it.
_W = 32
_SIGN, _DIGITS, _DOT, _EXP, _SEP = 0, 6, 7, 24, 29
_BASE = np.frombuffer(b"-0.000" + b"0." + b"0" * 16 + b"e+000   ",
                      dtype=np.uint8)


def _kept_columns(neg, form, dot, digits):
    """The columns of a field with sign neg, form 0 for fixed notation at
    1 and above, 1-4 for fixed below 1 with 0-3 zeros after the point, 5
    and 6 for an exponent of two and three digits, a kept point, and the
    given number of digits."""
    cols = [_SIGN] if neg else []
    if 1 <= form <= 4:
        cols += range(_SIGN + 1, _SIGN + 2 + form)
    cols += [_DIGITS, _DOT] if dot else [_DIGITS]
    cols += range(_DOT + 1, _DOT + digits)
    if form >= 5:
        cols += [_EXP, _EXP + 1, *range(_EXP + 8 - form, _EXP + 5)]
    return cols + [_SEP]


_FORMS = 7
# kept columns by (neg, form, dot, digits) as rows of 4 uint64 words
_MASKS = np.zeros((2, _FORMS, 2, 18, _W), dtype=bool)
for _i in np.ndindex(_MASKS.shape[:-1]):
    _MASKS[_i][_kept_columns(*_i)] = True
_MASKS = _MASKS.reshape(-1, _W).view(np.uint64)
_NEG_INDEX = _FORMS * 2 * 18


def _exponent_tables():
    """By decimal exponent k: the mask index of its form, the digit count
    above which a point is kept, the digits fixed notation writes at
    least, and the exponent's sign and three digits."""
    ks = np.arange(_K_MIN, _K_MAX + 2)
    fixed = (ks >= -4) & (ks < 17)
    form = np.where(fixed, np.maximum(-ks, 0), np.where(np.abs(ks) < 100, 5, 6))
    dot_above = np.where(form == 0, ks + 1, np.where(form >= 5, 1, 17))
    least = np.where(form == 0, ks + 1, 0)
    chars = np.frombuffer(b"".join(b"%+04d" % k if k < 0 else b"+%03d" % k
                                   for k in ks.tolist()), dtype=np.uint8)
    return form * 2 * 18, dot_above, least, ~fixed, chars.reshape(-1, 4)


_X_OFF = -_K_MIN
_X_INDEX, _X_DOT_ABOVE, _X_LEAST, _X_SCI, _X_CHARS = _exponent_tables()
# "00", a digit and "." as the uint32 of layout columns 4-7
_LEAD = np.frombuffer(b"".join(b"00%d." % i for i in range(10)), dtype="<u4")


def _encode_exact(x):
    """(D, k, native) for a 1-D float64 x: |x| rounds to D 10^(k-16) with
    10^16 <= D < 10^17, or D = k = 0 for +-0, where native; elsewhere D
    and k are 0 and the value is left to '%.17g'."""
    a = np.abs(x)
    zero = a == 0.0
    cand = (a >= 1e-300) & (a < 1e300)  # finite and away from the limits
    k = np.floor(np.log10(np.where(cand, a, 1.0))).astype(np.int64)
    cand &= (k >= _K_MIN) & (k <= _K_MAX)
    a = np.where(cand, a, 1.0)
    k[~cand] = 0
    p, t = _scaled(a, 16 - k)
    below = (p - 1e16) + t
    above = (p - 1e17) + t
    # np.log10 may miss floor(log10 |x|) by one next to a power of ten
    off = np.flatnonzero(cand & ((below < 0.0) | (above >= 0.0)))
    if off.size:
        k[off] += np.where(above[off] >= 0.0, 1, -1)
        p[off], t[off] = _scaled(a[off], 16 - k[off])
        below[off] = (p[off] - 1e16) + t[off]
        above[off] = (p[off] - 1e17) + t[off]
    r = np.rint(t)
    # out of range still, a tie, P next to 10^16 or 10^17 (x next to a
    # power of ten), or k moved off the table
    cand &= ((below > _TIE) & (above < -_TIE) & (np.abs(t - r) < 0.5 - _TIE)
             & (k >= _K_MIN) & (k <= _K_MAX))
    d = (np.where(cand, p, 0.0).astype(np.int64)
         + np.where(cand, r, 0.0).astype(np.int64))
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    k += carry
    k[~cand] = 0
    return d, k, cand | zero


def _format_block(x, first, columns, rows):
    """The bytes of the values x of a flattened table of `columns`
    columns, the first at flat index first, laid out in rows: rows of
    _BASE whose fixed columns it leaves as they were."""
    d, k, native = _encode_exact(x)
    words = rows.view("<u4")
    lead = d // 10 ** 16
    rest = d - lead * 10 ** 16
    hi8 = rest // 10 ** 8
    lo8 = rest - hi8 * 10 ** 8
    groups = []
    for half in (hi8, lo8):
        top = half // 10 ** 4
        groups += [top, half - top * 10 ** 4]
    words[:, _DIGITS // 4] = _LEAD.take(lead)
    for j, grp in enumerate(groups, start=_DOT // 4 + 1):
        words[:, j] = _LUT4.take(grp)
    # the digits left after stripping trailing zeros: 1 for D = 0
    tz = _TZ4.take(groups[3])
    run = groups[3] == 0
    for j, grp in enumerate(groups[2::-1], start=1):
        tz = np.where(run, 4 * j + _TZ4.take(grp), tz)
        run &= grp == 0
    nd = 17 - np.where(run, 16, tz)

    xk = k + _X_OFF
    above = _X_DOT_ABOVE.take(xk)
    dot = nd > above
    # fixed notation at 1 and above: the point follows digit k + 1
    shift = np.flatnonzero(dot & (above > 1))
    for p in np.unique(above[shift]):
        sel = shift[above[shift] == p]
        rows[sel, _DOT:_DOT + p - 1] = rows[sel, _DOT + 1:_DOT + p]
        rows[sel, _DOT + p - 1] = ord(".")
    sci = np.flatnonzero(_X_SCI.take(xk))
    rows[sci, _EXP + 1:_SEP] = _X_CHARS.take(xk[sci], axis=0)
    sep = rows[:, _SEP]
    sep[:] = ord(" ")
    sep[(columns - 1 - first) % columns::columns] = ord("\n")

    index = (_X_INDEX.take(xk) + np.signbit(x) * _NEG_INDEX + dot * 18
             + np.maximum(nd, _X_LEAST.take(xk)))
    mask = _MASKS.take(index, axis=0).view(bool)
    slow = np.flatnonzero(~native)
    for i in slow:
        text = b"%.17g" % x[i]
        rows[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        mask[i] = False
        mask[i, :len(text)] = True
        mask[i, _SEP] = True
    out = np.compress(mask.reshape(-1), rows.reshape(-1)).tobytes()
    rows[slow] = _BASE
    return out


def encode_table(table):
    """Yield the '%.17g' text of a 2-D float table, fields separated by
    single spaces and every row ended by a newline, in blocks of at most
    BLOCK values; block boundaries may fall inside a row."""
    table = np.asarray(table, dtype=np.float64)
    flat = table.reshape(-1)
    if not flat.size:
        return
    rows = np.tile(_BASE, (min(BLOCK, flat.size), 1))
    for start in range(0, flat.size, BLOCK):
        x = flat[start:start + BLOCK]
        yield _format_block(x, start, table.shape[1], rows[:len(x)]).decode("ascii")


def format_table(table):
    """The whole text encode_table yields, as one string."""
    return "".join(encode_table(table))


# ---------------------------------------------------------------- decoder

_U64 = np.uint64
_WORD_ZERO = _U64(0x3030303030303030)
_WORD_OVER9 = _U64(0x7676767676767676)
_WORD_HIGH = _U64(0x8080808080808080)
# by length n: the mask of the last n bytes of a 24-byte window, which
# hold a segment of n bytes that ends it
_KEEP = np.array([np.frombuffer(bytes(24 - n) + b"\xff" * n, dtype="<u8")
                  for n in range(25)])
_PAD = 24


def _windows(buf, at):
    """(len(at), 3) little-endian words: the 24 bytes of buf from each
    position at."""
    view = np.ndarray((len(buf) - 23,), dtype="V24", buffer=buf, strides=(1,))
    return view[at].view("<u8").reshape(-1, 3)


def _digit_values(buf, ends, lengths):
    """(value, ok, small) of the segments of the given lengths (<= 24)
    that end at positions ends of the data in buf: ok where they are all
    digits, and value their integer where small, below 10^18."""
    # digit values, 0 before the segment, and above 9 for a non-digit
    values = ((_windows(buf, ends - 24 + _PAD) ^ _WORD_ZERO)
              & _KEEP.take(lengths, axis=0))
    over = (values + _WORD_OVER9) & _WORD_HIGH
    ok = (over[:, 0] | over[:, 1] | over[:, 2]) == 0
    # eight digits to a word, the first in the low byte (Lemire)
    w = (values * _U64(2561)) >> _U64(8)
    w = ((w & _U64(0x00FF00FF00FF00FF)) * _U64(6553601)) >> _U64(16)
    w = ((w & _U64(0x0000FFFF0000FFFF)) * _U64(42949672960001)) >> _U64(32)
    w = w.astype(np.int64)
    return w[:, 0] * 10 ** 16 + w[:, 1] * 10 ** 8 + w[:, 2], ok, w[:, 0] < 100


def _leading_digits(buf, at):
    """The number of ASCII digits from each position at of the data in
    buf, up to 24."""
    # the high bit of each byte set where it is not a digit
    over = ((_windows(buf, at + _PAD) ^ _WORD_ZERO) + _WORD_OVER9) & _WORD_HIGH
    count = np.full(len(at), 24)
    for j in (2, 1, 0):
        m = over[:, j]
        # the lowest set bit alone, 2^(8 i + 7) for the first non-digit i
        _, exp2 = np.frexp((m & (~m + _U64(1))).astype(np.float64))
        count = np.where(m != 0, 8 * j + (exp2 - 8) // 8, count)
    return count


def _round_product(d, e):
    """(value, certain): d 10^e rounded to nearest for 0 < d < 10^18 and
    e in [_E_MIN, _E_MAX], certain unless near a midpoint."""
    dh = d.astype(np.float64)
    dl = (d - dh.astype(np.int64)).astype(np.float64)
    i = e - _P_LO
    th = _P10_HI.take(i)
    p = dh * th
    c = dh * _SPLIT
    hh = c - (c - dh)
    hl = dh - hh
    thh, thl = _P10_HH.take(i), _P10_HL.take(i)
    err = ((hh * thh - p) + hh * thl + hl * thh) + hl * thl
    t = err + (dh * _P10_LO.take(i) + dl * th)
    # p + t is d 10^e to within 2^-102 of it, and rounding is monotonic:
    # where both ends of a wider interval round alike, so does d 10^e
    bound = p * _BOUND
    r = p + (t - bound)
    return r, r == p + (t + bound)


_SPECIAL = {b"nan": float("nan"), b"inf": float("inf"), b"-inf": float("-inf")}


def _parse_block(data, rows, width, out):
    """parse_table on a block of rows, the bytes data with a newline after
    each, into the flat array out; False where the block is not in the
    writer's form."""
    if not data.isascii():  # the digit tests below read ASCII bytes only
        return False
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw <= ord(" "))
    count = rows * width
    if len(ends) != count:
        return False
    # spaces between the tokens of a row, and a newline after its last
    sep = raw[ends].reshape(rows, width)
    if (sep[:, :-1] != ord(" ")).any() or (sep[:, -1] != ord("\n")).any():
        return False
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    size = ends - starts
    if size.min() < 1 or size.max() > 24:
        return False
    buf = np.full(len(raw) + 2 * _PAD, _ASCII_ZERO, dtype=np.uint8)
    buf[_PAD:-_PAD] = raw

    # -?d+(.d+)?(e[+-]dd[d])?: the integer part runs to the first
    # non-digit, a point or the mantissa's end, and the exponent ends
    # the token
    neg = raw[starts] == ord("-")
    mstart = starts + neg
    # one integer digit and a point, as every value below 10 has, or as
    # many digits as lead
    int_len = np.ones(count, dtype=np.int64)
    other = np.flatnonzero((buf[mstart + _PAD] - _ASCII_ZERO > 9)
                           | (buf[mstart + _PAD + 1] != ord(".")))
    int_len[other] = _leading_digits(buf, mstart[other])
    e_at = np.where(buf[ends - 4 + _PAD] == ord("e"), ends - 4,
                    np.where(buf[ends - 5 + _PAD] == ord("e"), ends - 5, ends))
    int_end = mstart + int_len
    dot = buf[int_end + _PAD] == ord(".")
    frac_len = np.where(dot, e_at - int_end - 1, 0)
    ok = (int_len >= 1) & np.where(dot, frac_len >= 1, int_end == e_at)
    frac_len = np.clip(frac_len, 0, 24)
    frac, ok_frac, small = _digit_values(buf, e_at, frac_len)
    ok &= ok_frac
    whole = (buf[mstart + _PAD] - _ASCII_ZERO).astype(np.int64)
    long_ = np.flatnonzero(int_len > 1)
    if long_.size:
        value, _, fits = _digit_values(buf, int_end[long_], int_len[long_])
        whole[long_] = value
        small[long_] &= fits
    exp = np.zeros(count, dtype=np.int64)
    sci = np.flatnonzero(e_at < ends)
    if sci.size:
        sign = raw[e_at[sci] + 1]
        mag, ok_exp, _ = _digit_values(buf, ends[sci], ends[sci] - e_at[sci] - 2)
        ok[sci] &= ok_exp & ((sign == ord("+")) | (sign == ord("-")))
        exp[sci] = np.where(sign == ord("-"), -mag, mag)

    for i in np.flatnonzero(~ok):
        value = _SPECIAL.get(data[starts[i]:ends[i]])
        if value is None:
            return False
        out[i] = value
    # at most 18 significant digits: D = whole 10^frac_len + frac < 10^18
    fast = ok & small & (whole < _WHOLE_BELOW.take(frac_len))
    d = np.where(fast, whole * _INT_P10.take(np.minimum(frac_len, 18)) + frac, 0)
    e = exp - frac_len
    zero = fast & (d == 0)
    fast &= zero | ((e >= _E_MIN) & (e <= _E_MAX))
    product = fast & ~zero
    value, certain = _round_product(np.where(product, d, 1),
                                    np.where(product, e, 0))
    value[zero] = 0.0
    fast &= zero | certain
    out[ok] = np.where(neg, -value, value)[ok]
    for i in np.flatnonzero(ok & ~fast):
        out[i] = float(data[starts[i]:ends[i]])
    return True


def parse_table(data, width, start=0):
    """The (rows, width) float64 table of the text rows in the bytes
    data[start:], each value as float() reads its token, when every row
    holds width tokens of the writer's form separated by single spaces and
    ends in a newline, the last one optionally; else None.  The rows are
    read in blocks of whole rows, each of at most _TOKEN_BYTES * max(BLOCK,
    width) bytes, found and counted in place: nothing of data's size is
    allocated but the table."""
    if start >= len(data):
        return None
    rows = data.count(b"\n", start) + (not data.endswith(b"\n"))
    table = np.empty((rows, width))
    flat = table.reshape(-1)
    chunk = _TOKEN_BYTES * max(BLOCK, width)  # one row of the writer's form
    pos, row = start, 0
    while pos < len(data):
        end = data.rfind(b"\n", pos, pos + chunk) + 1
        if end <= pos:
            if pos + chunk < len(data):
                return None
            end = len(data)
        block = data[pos:end]
        if end == len(data) and not block.endswith(b"\n"):
            block += b"\n"
        count = block.count(b"\n")
        if not _parse_block(block, count, width,
                            flat[row * width:(row + count) * width]):
            return None
        pos, row = end, row + count
    return table
