"""Exact float text for whole float64 tables: the bytes of '%.17g' % v and of
json.dumps(v) for every value at once, between fixed separators.

rows_text writes each token as one row of 7 uint64 words of
NUL-padded bytes, with the words of the text before and after its field on
either side; dropping the NULs of the rows, in order, gives the table's
text. For a finite normal value, |v| is scaled to N = |v|·10**s in
[10**16, 10**17) by a double-double product with a table entry of 10**s,
with an error below 1e-14 of a unit of N. N rounded to an integer gives the
17 digits of '%.17g'. repr's digits are those of N rounded to the fewest
digits that still lie within v's rounding interval, half an ulp to either
side.

Python's own formatter writes every value whose rounding or interval test
lies within TOLERANCE (of a unit of N) of its decision, every zero,
non-finite or subnormal value and, for repr, every power of two, whose
interval is lopsided; so the bytes are Python's by construction.
"""

from __future__ import annotations

import functools
import json

import numpy as np

__all__ = ["TOLERANCE", "CHUNK_ROWS", "rows_text"]

# A token's bytes before masking, in 7 little-endian uint64 words; a mask
# per layout case keeps the bytes that case shows:
#   bytes  0-3   NUL, NUL, "-", "0"      sign; the "0" of "0.000ddd"
#   bytes  4-23  "000" and the 17 digits   the digits before the point
#   bytes 24-27  ".", "0", "0", "0"      the point; zeros after "0."
#   bytes 28-47  "000" and the 17 digits   the digits after the point
#   bytes 48-51  "0", "e", "+", "-"      the "0" of repr's "N.0"; exponent
#   bytes 52-55  the exponent's four digits, zero-padded
_WORDS = 7
TOLERANCE = 1e-9
# Rows rows_text formats per step. Besides the text, it holds one chunk's
# words and temporaries (under 1 MB at 512 rows of 8 fields) whatever the
# table's length; much smaller chunks pay numpy's per-call cost more often.
CHUNK_ROWS = 512
_MIN_NORMAL = 2.2250738585072014e-308
_DIGITS = 17
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for a 53-bit product
# decimal exponents a finite normal value's 17 digits can have
_EXP_MIN, _EXP_MAX = -308, 308
# Layout forms: 21 fixed-point exponents -4..16, then four scientific ones
# (exponent >= 0 or < 0, below 100 or not); a case is a form, a digit count
# and a sign.
_FIXED = 21
_FORMS = _FIXED + 4


def rows_text(values, before, after, shortest: bool) -> list[str]:
    """The text of a (rows, fields) float table, CHUNK_ROWS rows per chunk:
    each value's '%.17g' or, if shortest, json.dumps token, between the
    strings before[k] and after[k] of its field k."""
    before, after = _word_rows(tuple(before), tuple(after))
    fields = len(before)
    first, last = before.shape[1], before.shape[1] + _WORDS
    block = np.empty((min(len(values), CHUNK_ROWS) * fields, last + after.shape[1]), np.uint64)
    words = block.reshape(-1, fields, block.shape[1])
    words[:, :, :first] = before
    words[:, :, last:] = after
    parts = []
    for start in range(0, len(values), CHUNK_ROWS):
        rows = values[start:start + CHUNK_ROWS]
        chunk = block[:rows.size]
        _write(rows, chunk[:, first:last], shortest)
        parts.append(chunk.tobytes().translate(None, b"\0").decode("ascii"))
    return parts


@functools.cache
def _word_rows(before: tuple, after: tuple) -> tuple[np.ndarray, ...]:
    """The read-only words of each field's text before and after its token,
    NUL-padded to the widest of each kind; built once per separator tuple."""
    return tuple(_byte_rows(texts, -(-max(map(len, texts)) // 8) * 8).view(np.uint64)
                 for texts in (before, after))


def _byte_rows(texts, width: int) -> np.ndarray:
    """(len(texts), width) uint8: row i holds ASCII texts[i], NUL-padded."""
    padded = "".join(t.ljust(width, "\0") for t in texts)
    return np.frombuffer(padded.encode("ascii"), np.uint8).reshape(len(texts), width)


@functools.lru_cache(maxsize=None)
def _power_of_ten(s: int) -> tuple[float, float, int]:
    """(hi, lo, e) with (hi + lo)·2**e = 10**s to 2**-105 relative, hi in [1, 2]."""
    num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
    shift = 107 + den.bit_length() - num.bit_length()
    m = (num << shift) // den if shift >= 0 else num >> -shift
    top = m.bit_length() - 1
    hi = float(m)
    return hi / 2.0**top, float(m - int(hi)) / 2.0**top, top - shift


def _floor_and_fraction(m, exp2, s, table):
    """floor(N) as int64 and N - floor(N), for N = m·2**exp2·10**s and s
    an index into table (Dekker's two-product; numpy has no fused multiply-add)."""
    t_hi, t_lo, t_exp, t_big, t_small = (column.take(s) for column in table)
    p = m * t_hi
    big = m * _SPLIT
    big -= big - m
    small = m - big
    err = ((big * t_big - p) + big * t_small + small * t_big) + small * t_small
    q = err + m * t_lo
    hi = p + q
    lo = q - (hi - p)
    scale = exp2 + t_exp
    hi = np.ldexp(hi, scale)  # an integer: N >= 1e16 > 2**53
    lo = np.ldexp(lo, scale)
    floor_lo = np.floor(lo)
    return hi.astype(np.int64) + floor_lo.astype(np.int64), lo - floor_lo


def _write(values, out, shortest: bool) -> None:
    """Each value's '%.17g' or, if shortest, json.dumps token into its row of out."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if not v.size:
        return
    a = np.abs(v)
    fast = np.isfinite(a) & (a >= _MIN_NORMAL)
    a[~fast] = 1.0
    m, exp2 = np.frexp(a)
    if shortest:
        fast &= m != 0.5

    # N = |v|·10**s in [1e16, 1e17); log10 may miss the exponent by one
    s = (_DIGITS - 1) - np.floor(np.log10(a)).astype(np.int32)
    base = int(s.min()) - 1
    hi_t, lo_t, exp_t = np.array([_power_of_ten(x) for x in range(base, int(s.max()) + 2)]).T
    big_t = hi_t * _SPLIT
    big_t -= big_t - hi_t
    table = (hi_t, lo_t, exp_t.astype(np.int32), big_t, hi_t - big_t)
    s -= base
    n, frac = _floor_and_fraction(m, exp2, s, table)
    off = (n < 10**(_DIGITS - 1)).astype(np.int32) - (n >= 10**_DIGITS)
    redo = np.flatnonzero(off)
    if redo.size:
        s[redo] += off[redo]
        n[redo], frac[redo] = _floor_and_fraction(m[redo], exp2[redo], s[redo], table)
    near = np.abs(frac - 0.5) < TOLERANCE
    digits = n + (frac > 0.5)
    if shortest:
        half_ulp = np.ldexp(hi_t.take(s), exp2 + table[2].take(s) - 54)
        _shorten(digits, n, frac, half_ulp, near)
    exp10 = (_DIGITS - 1 - base) - s
    top = digits == 10**_DIGITS
    digits[top] = 10**(_DIGITS - 1)
    exp10 += top
    _layout(digits, exp10, np.signbit(v), shortest, out)

    slow = np.flatnonzero(~fast | near)
    if slow.size:
        python = json.dumps if shortest else "%.17g".__mod__
        texts = [python(x) for x in v[slow].tolist()]
        out[slow] = _byte_rows(texts, 8 * _WORDS).view(np.uint64)


def _shorten(digits, n, frac, half_ulp, near) -> None:
    """repr's digits in place of digits: N rounded to the tens or hundreds
    where that lies within half an ulp of v (in units of N).

    Half an ulp is under 12 units, so only one multiple of 100 can lie
    that close; when N rounded to the hundreds does, it is N rounded to
    every coarser place where any value lies that close, and its trailing
    zeros are the digits repr drops.
    """
    low = (n % 10**8).astype(np.int32)
    for unit in (10, 100):
        rem = low % unit
        # (N mod unit) - unit/2, doubled: its sign rounds, its size is the margin
        excess = (2 * rem - unit) + 2.0 * frac
        step = (excess > 0) * unit - rem  # the rounded value minus floor(N)
        distance = np.abs(step - frac)
        near |= (np.abs(excess) < 2 * TOLERANCE) | (np.abs(distance - half_ulp) < TOLERANCE)
        np.copyto(digits, n + step, where=distance < half_ulp)


@functools.cache
def _layout_tables(shortest: bool):
    """The read-only tables of _layout: '%04d' % i as a half-word and its
    trailing zeros, the first word by leading digit, what turns a first word
    into the point's word, the last word and the case base by decimal
    exponent, and each word's mask by case."""
    two = np.empty((100, 2), np.uint8)
    two[:, 0] = np.arange(100) // 10 + ord("0")
    two[:, 1] = np.arange(100) % 10 + ord("0")
    two = two.view(np.uint16).ravel()
    four = np.empty((100, 100, 2), np.uint16)
    four[:, :, 0] = two[:, None]
    four[:, :, 1] = two[None, :]
    four = four.view(np.uint32).ravel().astype(np.uint64)  # entry i: '%04d' % i
    zeros = np.zeros(10**4, np.int8)  # entry i: the trailing zeros of '%04d' % i
    for step in (1, 10, 100, 1000):
        zeros[::step * 10] += 1
    sign, point, exponent = (int.from_bytes(t, "little") for t in (b"\0\0-0", b".000", b"0e+-"))
    lead = four[:10] << 32 | sign

    exp10 = np.arange(_EXP_MIN, _EXP_MAX + 2)
    fixed = (exp10 >= -4) & (exp10 < (16 if shortest else _DIGITS))
    form = np.where(fixed, exp10 + 4,
                    _FIXED + 2 * (exp10 < 0) + (np.abs(exp10) >= 100))
    exponent_words = four[np.abs(exp10)] << 32 | exponent

    case = np.arange(_FORMS * _DIGITS * 2).reshape(-1, 1)
    form_, used, negative = case // (2 * _DIGITS), case // 2 % _DIGITS + 1, case % 2
    x = form_ - 4
    scientific = form_ >= _FIXED
    whole = ~scientific & (x >= 0)
    fraction = ~scientific & (x < 0)
    last = np.where(whole, x, np.where(scientific, 0, -1))  # last digit before the point
    column = np.arange(_DIGITS)
    keep = np.zeros((len(form_), 8 * _WORDS), bool)
    keep[:, 2:3] = negative == 1
    keep[:, 3:4] = fraction
    keep[:, 7:24] = column <= last
    keep[:, 24:25] = fraction | (used > last + 1) | (shortest & whole)
    keep[:, 25:28] = fraction & (x <= -2 - np.arange(3))
    keep[:, 31:48] = (column > last) & (column < used)
    keep[:, 48:49] = shortest & whole & (used <= x + 1)
    keep[:, 49:50] = scientific
    keep[:, 50:51] = scientific & (form_ < _FIXED + 2)
    keep[:, 51:52] = form_ >= _FIXED + 2
    keep[:, 53:54] = scientific & ((form_ - _FIXED) % 2 == 1)
    keep[:, 54:56] = scientific
    masks = np.ascontiguousarray((keep * np.uint8(255)).view(np.uint64).T)
    # case = form_base[exponent] + 2 * used + negative
    form_base = 2 * _DIGITS * form - 2
    tables = four, zeros, lead, point ^ sign, exponent_words, form_base, masks
    for table in tables:
        if isinstance(table, np.ndarray):
            table.setflags(write=False)
    return tables


def _layout(digits, exp10, negative, shortest: bool, out) -> None:
    """Write the tokens of 17-digit integers and decimal exponents into out,
    in '%.17g''s layout or, if shortest, in repr's."""
    four, zeros, lead, lead_to_point, exponent_words, form_base, masks = _layout_tables(shortest)
    high, low = np.divmod(digits, 10**8)
    high, low = high.astype(np.int32), low.astype(np.int32)
    high, group2 = np.divmod(high, 10**4)
    group0, group1 = np.divmod(high, 10**4)
    group3, group4 = np.divmod(low, 10**4)
    first = lead.take(group0)
    middle = four.take(group1) | four.take(group2) << 32
    tail = four.take(group3) | four.take(group4) << 32
    exp_index = exp10 - _EXP_MIN

    # the 17 digits' trailing zeros, a group of four at a time from the last;
    # the leading digit is never 0
    trailing = zeros.take(group4)
    all_zero = group4 == 0
    for group in (group3, group2, group1):
        trailing += all_zero * zeros.take(group)
        all_zero &= group == 0
    case = form_base.take(exp_index) + 2 * (_DIGITS - trailing) + negative
    for word, value in enumerate((first, middle, tail, first ^ lead_to_point, middle, tail,
                                  exponent_words.take(exp_index))):
        np.bitwise_and(value, masks[word].take(case), out=out[:, word])
