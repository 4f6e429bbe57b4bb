"""Decimal text of whole float64 and int64 columns.

``repr_text(values)`` gives, for a block of values, the text of ``repr(v)``
(the shortest digits that read back as v, nearest to v), ``g17_text`` that
of ``'%.17g' % v`` (17 significant digits, correctly rounded) and
``int_text`` that of ``'%d' % v``. Each returns an (n, width) uint8 array whose
row i holds the ASCII text of value i, in order, with NUL bytes between and
around the characters; the row assembler ``fieldio.write_rows`` drops them.

The digits come from y = |x| * 10**p, with p chosen so that 1e16 <= y < 1e17,
held as a double-double hi + lo: Dekker's exact product (Numer. Math. 18,
1971) of x and 10**p as a double-double from a table, or, where 10**-p is a
double, the quotient by it with its exact remainder. Every row is then
certified against the error bound of y (``_MARGIN``), in the pattern of
Grisu3 (Loitsch, PLDI 2010): a row whose rounding, or whose rounding
interval, lies too close to a decision boundary to decide, and every |x|
outside [1e-280, 1e280] (subnormals and non-finite values among them), is
formatted by CPython's ``repr`` or ``%`` instead. Zeros and exact powers of
ten are exact and need no fallback.

The text of a row is built in three little-endian 64-bit words of digits
and a word on each side, and each step runs over whole columns of words.
Callers pass blocks of a few thousand values (``BLOCK_VALUES``): numpy's
cost per call dominates much smaller blocks, and every temporary of a block
stays under 128 KiB.
"""

from __future__ import annotations

import functools

import numpy as np

# Values per kernel call: its largest temporary, the text at 32 bytes a
# value, stays under 128 KiB.
BLOCK_VALUES = 4000

# Error bound of y = hi + lo, in units of its 17th digit. With y < 2**57 the
# product errs by at most 2.5 * 2**-106 * y < 2**-47 (the table's 10**p errs
# by 2**-107 relative, x * lo(10**p) and the sum of the low parts by 2**-107
# and 1.5 * 2**-106), the quotient by at most 2**-48; the distances compared
# with the rounding interval add at most 2**-49 each in rounding, and the
# interval's half width 2**-48. A decision closer than this margin to its
# boundary, 8 times the sum of the errors, goes to CPython.
_MARGIN = 2.0 ** -44
_LIMITS = (1e-280, 1e280)
# 10**p for every p the kernel can ask for: 16 - floor(log10 |x|), +-1
_P_MIN, _P_MAX = -265, 297
_EXACT_MAX = 22  # 10**22 is the largest power of ten that is a double
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's constant: splits a double into two 26-bit halves
_EXPONENT_BITS, _FRACTION_BITS = 0x7FF << 52, (1 << 52) - 1
_POINT, _ZERO, _MINUS, _PLUS, _E = b".0-+e"
_WORD = np.dtype("<u8")
_NO_POINT = 18  # the point position of a row without a point
# The 32 bytes of a row: 2 unused, the sign, "0." and up to three zeros
# (fixed notation below 1), 17 digits with a point among them, the "0" of
# repr's ".0", then "e", the exponent's sign and three exponent digits.
_SIGN, _BODY, _DOT0, _EXP = 2, 8, 26, 27


def _split(a: np.ndarray):
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


def _word_table(where: np.ndarray, byte: int) -> np.ndarray:
    """Byte rows (k, 24), ``byte`` where ``where`` else NUL, as their three
    little-endian words, one row per word: (3, k)."""
    return np.ascontiguousarray(np.where(where, byte, 0).astype(np.uint8).view(_WORD).T)


@functools.lru_cache(maxsize=None)
def _tables():
    """The powers of ten and the byte masks of the kernel, built on first use.

    ``pow10``: 10**p for p in [_P_MIN, _P_MAX] as double-double columns (hi,
    hi's two halves, lo), indexed by p - _P_MIN. ``ascii4``: "0000".."9999"
    as little-endian words, and ``lead4`` the same without leading zeros.
    Word tables, indexed by k: ``below``, the mask of bytes 0..k-1; ``dot``, a
    point at byte k (none for k = 18). ``zeros4``: the trailing zeros of 0000..9999;
    ``prefix[k]``: "0." and k zeros at bytes 3..7 of a row.
    """
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            power = 10 ** p
            h = float(power)  # int -> float and int / int round correctly
            lo.append(float(power - int(h)))
        else:
            den = 10 ** -p
            h = 1 / den
            num, two = h.as_integer_ratio()
            lo.append((two - num * den) / (two * den))
        hi.append(h)
    hi = np.array(hi)
    ascii4 = np.zeros((10, 10, 10, 10, 8), dtype=np.uint8)
    for place in range(4):
        ascii4[..., place] = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8).reshape([10 if i == place else 1
                                                                                 for i in range(4)])
    ascii4 = ascii4.reshape(10000, 8)
    lead4 = np.where(np.logical_and.accumulate(ascii4 == _ZERO, axis=1), 0, ascii4).astype(np.uint8)
    groups = np.arange(10000)
    at = np.arange(24)
    k = np.arange(_NO_POINT + 1)[:, None]
    prefix = np.zeros((4, 8), dtype=np.uint8)
    prefix[:, 3:5] = (_ZERO, _POINT)
    for zeros in range(4):
        prefix[zeros, 5:5 + zeros] = _ZERO
    return {
        "pow10": (hi, *_split(hi), np.array(lo)),
        "ascii4": ascii4.view(_WORD).ravel(),
        "lead4": lead4.view(_WORD).ravel(),
        "below": _word_table(at < k, 0xFF),
        "dot": _word_table((at == k) & (k < _NO_POINT), _POINT),
        "zeros4": np.where(groups == 0, 4, sum(groups % 10 ** i == 0 for i in (1, 2, 3))),
        "prefix": prefix.view(_WORD).ravel(),
    }


def _scaled(a: np.ndarray, p: np.ndarray):
    """hi + lo = a * 10**p for positive a, within the error of ``_MARGIN``,
    and 10**p rounded to a double."""
    t_hi, t_hh, t_hl, t_lo = _tables()["pow10"]
    i = p - _P_MIN
    scale = t_hi[i]
    prod = a * scale
    ah, al = _split(a)
    hh, hl = t_hh[i], t_hl[i]
    err = ((ah * hh - prod) + ah * hl + al * hh) + al * hl  # a * scale - prod, exactly
    low = err + a * t_lo[i]
    hi = prod + low
    lo = low - (hi - prod)
    if a.max(initial=0.0) >= 1e16:  # some p may be negative
        div = np.flatnonzero((p < 0) & (p >= -_EXACT_MAX))
        if len(div):  # 10**-p is a double: divide by it, so that exact quotients stay exact
            q = t_hi[-p[div] - _P_MIN]
            num = a[div]
            quot = num / q
            prod = quot * q
            qh, ql = _split(quot)
            dh, dl = _split(q)
            err = ((qh * dh - prod) + qh * dl + ql * dh) + ql * dl
            hi[div] = quot
            lo[div] = ((num - prod) - err) / q
    return hi, lo, scale


def _scale17(a: np.ndarray, kernel: np.ndarray):
    """floor(y), frac(y), p and 10**p of y = a * 10**p in [1e16, 1e17);
    rows whose y cannot be brought into that range leave ``kernel``."""

    def split(hi, lo):  # hi is an integer-valued double
        floor_lo = np.floor(lo)
        return hi.astype(np.int64) + floor_lo.astype(np.int64), lo - floor_lo

    p = 16 - np.floor(np.log10(a)).astype(np.int64)
    hi, lo, scale = _scaled(a, p)
    whole, frac = split(hi, lo)
    redo = np.flatnonzero((whole < 10 ** 16) | (whole >= 10 ** 17))
    if len(redo):  # log10 was one off
        p[redo] += np.where(whole[redo] < 10 ** 16, 1, -1)
        hi, lo, scale[redo] = _scaled(a[redo], p[redo])
        whole[redo], frac[redo] = split(hi, lo)
        kernel[redo[(whole[redo] < 10 ** 16) | (whole[redo] >= 10 ** 17)]] = False
    return whole, frac, p, scale


def _shortest(a, whole, frac, scale):
    """The multiple of the largest power of ten inside the rounding interval
    of a, nearest to y, in units of y, and the rows that are uncertain.

    The interval is at most 22.2 units wide (half of a's spacing, times
    10**p, is at most y * 2**-53), so at most one multiple of 100 lies in
    it: its digits, trailing zeros dropped, are the shortest. Without one,
    the nearest multiple of 10 inside has 16 digits, and without that the
    nearest integer (always inside, the half width being over 0.55) has 17.
    """
    bits = a.view(np.int64)
    # half of a's spacing in units of y; below a power of two the doubles are twice as dense
    w_hi = (bits & _EXPONENT_BITS).view(float) * scale * 2.0 ** -53
    w_lo = np.where(bits & _FRACTION_BITS == 0, 0.5 * w_hi, w_hi)
    # the integers y - j inside are those with j < reach_lo, y + 1 + j those with j < reach_hi
    reach_lo = w_lo - frac
    reach_hi = (w_hi + frac) - 1.0
    r100 = whole - whole // 100 * 100
    r10 = r100 - r100 // 10 * 10
    f100, f10 = r100.astype(float), r10.astype(float)
    lo100, hi100 = f100 < reach_lo, 99.0 - f100 < reach_hi
    lo10, hi10 = f10 < reach_lo, 9.0 - f10 < reach_hi
    # both multiples of 10 inside: the nearer one
    up10 = hi10 & ~(lo10 & (f10 + frac < 5.0))
    in100, in10 = lo100 | hi100, lo10 | hi10
    out = np.where(in100, whole + (100 * hi100 - r100),
                   np.where(in10, whole + (10 * up10 - r10), whole + (frac > 0.5)))
    # a boundary hit of a candidate that decides, a near-tie between the two
    # multiples of 10 inside, or a near-tie of the nearest integer
    hit100 = (np.abs(f100 - reach_lo) < _MARGIN) | (np.abs(99.0 - f100 - reach_hi) < _MARGIN)
    hit10 = ((np.abs(f10 - reach_lo) < _MARGIN) | (np.abs(9.0 - f10 - reach_hi) < _MARGIN)
             | lo10 & hi10 & (np.abs(f10 + frac - 5.0) < _MARGIN))
    uncertain = hit100 | ~in100 & (hit10 | ~in10 & (np.abs(frac - 0.5) < _MARGIN))
    return out, uncertain


def _digit_words(number: np.ndarray):
    """The 17 ASCII digits of each number below 1e17 at bytes 0..16 of three
    little-endian words (3, n), leading zeros kept, the other bytes NUL; and
    the count of digits up to the last that is not 0 (0 for zero)."""
    tables = _tables()
    ascii4 = tables["ascii4"]
    groups = []  # the four groups of four digits, last first
    rest = number
    for _ in range(4):
        high = rest // 10000
        groups.append(rest - high * 10000)
        rest = high
    g4, g3, g2, g1 = (ascii4[g] for g in groups)
    out = np.empty((3, len(number)), dtype=_WORD)
    out[0] = (rest + _ZERO).astype(_WORD) | (g1 << 8) | (g2 << 40)
    out[1] = (g2 >> 24) | (g3 << 8) | (g4 << 40)
    out[2] = g4 >> 24
    zeros4 = tables["zeros4"]
    sig = 17 - zeros4[groups[0]]
    deep = np.flatnonzero(groups[0] == 0)
    if len(deep):  # the last four digits are 0: count the zeros further up
        zeros = rest[deep] == 0
        for group in reversed(groups):
            group = group[deep]
            zeros = zeros4[group] + (group == 0) * zeros
        sig[deep] = 17 - zeros
    return out, sig


def _fallback(out: np.ndarray, rows: np.ndarray, texts, at: int) -> np.ndarray:
    """``out`` with ``rows`` holding ``texts`` from byte ``at``, widened to fit them."""
    cells = np.array([t.encode("ascii") for t in texts], dtype=bytes)
    need = at + cells.dtype.itemsize
    if need > out.shape[1]:
        out = np.concatenate([out, np.zeros((len(out), need - out.shape[1]), dtype=np.uint8)], axis=1)
    out[rows] = 0
    out[rows, at:need] = cells.view(np.uint8).reshape(len(rows), -1)
    return out


def repr_text(values: np.ndarray) -> np.ndarray:
    """``repr(v)`` of every value, as NUL-padded ASCII rows."""
    return _float_text(values, shortest=True)


def g17_text(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of every value, as NUL-padded ASCII rows."""
    return _float_text(values, shortest=False)


def _float_text(values: np.ndarray, shortest: bool) -> np.ndarray:
    """``repr(v)`` (``shortest``) or ``'%.17g' % v`` of every value."""
    tables = _tables()
    x = np.ascontiguousarray(values, dtype=float)
    n = len(x)
    a = np.abs(x)
    kernel = (a >= _LIMITS[0]) & (a <= _LIMITS[1])  # False for nan
    zero = a == 0.0
    a[~kernel] = 1.0  # zero, like 1.0, has its point after the first digit
    kernel |= zero
    whole, frac, p, scale = _scale17(a, kernel)
    if shortest:
        number, uncertain = _shortest(a, whole, frac, scale)
    else:
        number, uncertain = whole + (frac > 0.5), np.abs(frac - 0.5) < _MARGIN
    del a, whole, frac, scale  # each step frees what it no longer needs, to bound the peak
    kernel &= ~uncertain
    carry = number == 10 ** 17
    number[carry] = 10 ** 16
    number[zero] = 0
    point = (17 + carry) - p  # |x| = 0.d1d2...d17 * 10**point
    del p, carry
    digits, sig = _digit_words(number)
    del number
    np.maximum(sig, 1, out=sig)  # zero has one significant digit
    # exponent = point - 1 below -4, or at 16 (repr) or 17 ('%.17g') and above
    sci = (point < -3) | (point > (16 if shortest else 17))
    fixed = ~sci
    # the digits kept: the significant ones, and an integer's zeros before the point
    kept = np.where(fixed, np.maximum(sig, point), sig)
    pos = np.where(fixed, np.where((point >= 1) & ((sig > point) | shortest), point, _NO_POINT),
                   np.where(sig > 1, 1, _NO_POINT))
    digits &= np.take(tables["below"], kept, axis=1)
    under = digits & np.take(tables["below"], pos, axis=1)
    digits ^= under  # the digits after the point, which move up one byte
    under |= np.take(tables["dot"], pos, axis=1)
    out = np.zeros((n, 4), dtype=_WORD)
    out[:, 1] = under[0] | (digits[0] << 8)
    out[:, 2] = under[1] | (digits[1] << 8) | (digits[0] >> 56)
    out[:, 3] = under[2] | (digits[2] << 8) | (digits[1] >> 56)
    del digits, under
    first, last = _BODY, _BODY + min(int(np.max(kept, initial=0)) + 1, 18)
    signed = np.signbit(x)
    small = fixed & (point <= 0)
    if signed.any() or small.any():
        # -point is 0..3 on the rows below 1
        lead = np.where(small, tables["prefix"][-point & 3], np.uint64(0))
        lead |= signed.view(np.uint8).astype(_WORD) * np.uint64(_MINUS << 8 * _SIGN)
        out[:, 0] = lead
        first = _SIGN if signed.any() else 3
    ints = fixed & (point >= 1) & (sig <= point) & shortest  # repr's ".0"
    if ints.any():
        out[:, 3] |= np.where(ints, np.uint64(_ZERO << 8 * (_DOT0 - 24)), np.uint64(0))
        last = _DOT0 + 1
    if sci.any():
        exponent = point - 1
        e = np.abs(exponent).astype(_WORD)
        text = (np.uint64(_E) | np.where(exponent < 0, np.uint64(_MINUS << 8), np.uint64(_PLUS << 8))
                | np.where(e >= 100, (e // 100 + _ZERO) << 16, np.uint64(0))
                | (e // 10 % 10 + _ZERO) << 24 | (e % 10 + _ZERO) << 32)
        out[:, 3] |= np.where(sci, text << 8 * (_EXP - 24), np.uint64(0))
        last = 32
    cells = out.view(np.uint8)
    rows = np.flatnonzero(~kernel)
    if len(rows):
        fmt = repr if shortest else "%.17g".__mod__
        cells = _fallback(cells, rows, map(fmt, x[rows].tolist()), _SIGN)
        first, last = _SIGN, cells.shape[1]
    return np.ascontiguousarray(cells[:, first:last])


def int_text(values: np.ndarray) -> np.ndarray:
    """``'%d' % v`` of every integer, as NUL-padded ASCII rows."""
    tables = _tables()
    v = np.asarray(values, dtype=np.int64)
    kernel = (v >= 0) & (v < 10 ** 16)
    rest = np.where(kernel, v, 0)
    groups = []  # groups of four digits, last first, as many as the largest value needs
    for _ in range(-(-len(str(int(np.max(rest, initial=0)))) // 4)):
        high = rest // 10000
        groups.append(rest - high * 10000)
        rest = high
    out = np.empty((len(v), len(groups)), dtype=_WORD)
    lead = np.ones(len(v), dtype=bool)  # the groups before are all 0
    for col, group in enumerate(reversed(groups)):
        out[:, col] = np.where(lead, tables["lead4"][group], tables["ascii4"][group])
        lead &= group == 0
    out[lead, -1] = _ZERO  # zero itself
    cells = out.view(np.uint8)
    rows = np.flatnonzero(~kernel)
    if len(rows):
        cells = _fallback(cells, rows, map("%d".__mod__, v[rows].tolist()), 0)
    return cells
