"""Decimal text of whole float64 and int64 columns, and floats of whole columns of decimal text.

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
and a word on each side, and each step that most rows need runs over whole
columns of words. The steps that few rows need (a zero, a rounding up to
10**17, the exponent of exponent notation, repr's ".0") run on those rows
alone, found with ``nonzero``: a block pays for them by the rows that need
them, not by its length. Callers pass blocks of ``BLOCK_VALUES`` values:
numpy's cost per call, ~0.1 ms, dominates much smaller blocks; the kernel
holds ~100 bytes a value at its peak, under 1 MiB a block, the heap's
thresholds (``heap``).

``read_floats(text, starts, ends)`` is the inverse: the values of the number
tokens ``text[starts[i]:ends[i]]`` of a block of bytes, and the mask of the
tokens it certifies. It takes the grammar ``-?(0|[1-9][0-9]*)(\\.[0-9]+)?
(e[+-]?[0-9]+)?`` (also without point and exponent unless ``ints`` is
false), tokens of at most 24 bytes whose mantissa M (the digits, point
dropped) is below 9e18 and whose exponent has at most 8 digits. The 24 bytes
that end each token are read as three little-endian words of digit values;
the integer digits move up one byte over the point, and M comes from the
SWAR eight-digit step of Lemire's fast_float ("Number parsing at a gigabyte
per second", Softw. Pract. Exp. 51(8), 2021). Every M then takes one path:
for k in [-265, 260], the value M * 10**k is the double-double product of M
and 10**k from the writers' table, in the pattern of Eisel-Lemire: it errs
by under 2**-49 of half the spacing of doubles there, and is certified when
it lies farther than ``_READ_MARGIN`` (32 times that) from a rounding
boundary. Any other token (outside the grammar, beyond that range, an exact
tie such as 1e23 or a subnormal) is left to the caller, which reads it with
CPython's ``float`` (``float_tokens``), so every value read is ``float``'s,
bit for bit. The steps update a few columns in place, with the small ones
as int32 or bytes, and hold under 70 bytes a token besides a copy of the
text. The readers pass blocks of 128 KiB (rays.csv) and 192 KiB (field
files), about 7 000 tokens: numpy's cost per call dominates smaller blocks,
and a block, what its reader holds and the kernel's temporaries then stay
under the 1 MiB thresholds of the heap that the package keeps (``heap``).
"""

from __future__ import annotations

import functools

import numpy as np

# Values per kernel call: its temporaries, ~100 bytes a value at their
# peak, stay under the heap's 1 MiB thresholds.
BLOCK_VALUES = 8000

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
_TOKEN_BYTES = 24  # the reader refuses a longer token
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
    ``front[2 * c + s]``: bytes 2..7 of a row, a minus sign if s, and for
    c > 0 "0." and c - 1 zeros. The reader's word tables of 24-byte windows:
    ``high[n]``, the last n bytes; ``whole[c]``, the bytes before a point
    with c - 1 digits after it, and none for c = 0 (no point).
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
    front = np.zeros((5, 2, 8), dtype=np.uint8)
    front[:, 1, _SIGN] = _MINUS
    front[1:, :, 3:5] = (_ZERO, _POINT)
    for zeros in range(4):
        front[1 + zeros, :, 5:5 + zeros] = _ZERO
    low = np.arange(_TOKEN_BYTES + 1)[:, None] > np.arange(_TOKEN_BYTES)
    high = low[:, ::-1]
    whole = low[::-1].copy()
    whole[0] = False
    return {
        "pow10": np.array([hi, *_split(hi), lo]),
        "whole": _word_table(whole, 0xFF),
        "high": _word_table(high, 0xFF),
        "ascii4": ascii4.view(_WORD).ravel(),
        "lead4": lead4.view(_WORD).ravel(),
        "below": _word_table(at < k, 0xFF),
        "dot": _word_table((at == k) & (k < _NO_POINT), _POINT),
        "zeros4": np.where(groups == 0, 4, sum(groups % 10 ** i == 0 for i in (1, 2, 3))),
        "front": front.view(_WORD).ravel(),
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
    del ah, al, hh, hl
    low = err + a * t_lo[i]
    hi = prod + low
    lo = low - (hi - prod)
    if a.max(initial=0.0) >= 1e16:  # some p may be negative
        div = ((p < 0) & (p >= -_EXACT_MAX)).nonzero()[0]
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
    redo = ((whole < 10 ** 16) | (whole >= 10 ** 17)).nonzero()[0]
    if len(redo):  # log10 was one off
        p[redo] += np.where(whole[redo] < 10 ** 16, 1, -1)
        hi, lo, scale[redo] = _scaled(a[redo], p[redo])
        whole[redo], frac[redo] = split(hi, lo)
        kernel[redo[(whole[redo] < 10 ** 16) | (whole[redo] >= 10 ** 17)]] = False
    return whole, frac, p, scale


def _shortest(whole, frac, w, pow2):
    """The multiple of the largest power of ten inside the rounding interval
    of a, nearest to y, in units of y, and the rows that are uncertain;
    ``w`` is half the spacing of the doubles above a, in units of y, which
    this overwrites, and ``pow2`` the rows where a is a power of two, below
    which the doubles are twice as dense.

    The interval is at most 22.2 units wide (half of a's spacing, times
    10**p, is at most y * 2**-53), so at most one multiple of 100 lies in
    it: its digits, trailing zeros dropped, are the shortest. Without one,
    the nearest multiple of 10 inside has 16 digits, and without that the
    nearest integer (always inside, the half width being over 0.55) has 17.
    """
    # the integers y - j inside are those with j < reach_lo, y + 1 + j those with j < reach_hi
    reach_hi = (w + frac) - 1.0
    reach_lo = w
    reach_lo[pow2] *= 0.5
    reach_lo -= frac
    f100 = (whole - whole // 100 * 100).astype(float)  # the last two digits of y
    f10 = f100 - np.floor(f100 * 0.1) * 10.0  # and the last one: 0.1 is a little above 1/10, so the floor is exact
    lo100, hi100 = f100 < reach_lo, 99.0 - f100 < reach_hi
    lo10, hi10 = f10 < reach_lo, 9.0 - f10 < reach_hi
    # both multiples of 10 inside: the nearer one
    up10 = hi10 & ~(lo10 & (f10 + frac < 5.0))
    in100, in10 = lo100 | hi100, lo10 | hi10
    out = np.where(in100, 100 * hi100 - f100, np.where(in10, 10 * up10 - f10, frac > 0.5)).astype(np.int64)
    out += whole
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
    zeros4 = tables["zeros4"]
    sig = 17 - zeros4[groups[0]]
    deep = (groups[0] == 0).nonzero()[0]
    if len(deep):  # the last four digits are 0: count the zeros further up
        zeros = rest[deep] == 0
        for group in reversed(groups):
            group = group[deep]
            zeros = zeros4[group] + (group == 0) * zeros
        sig[deep] = 17 - zeros
    # the first digit at byte 0, then the groups, first to last, at bytes 1, 5, 9 and 13
    out = np.zeros((3, len(number)), dtype=_WORD)
    out[0] = rest + _ZERO
    del rest, high
    for bit in (8, 40, 72, 104):
        group = ascii4[groups.pop()]
        out[bit // 64] |= group << (bit % 64)
        if bit % 64 > 32:  # the group spans two words
            out[bit // 64 + 1] |= group >> (64 - bit % 64)
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
    """``repr(v)`` (``shortest``) or ``'%.17g' % v`` of every value.

    The steps every row needs run on whole columns; the rare ones (the
    rows outside the kernel's range, zeros, a rounding up to 10**17, the
    exponent and repr's ".0") run only on the rows that need them.
    """
    tables = _tables()
    x = np.ascontiguousarray(values, dtype=float)
    n = len(x)
    a = np.abs(x)
    kernel = (a >= _LIMITS[0]) & (a <= _LIMITS[1])  # False for nan
    odd = (~kernel).nonzero()[0]
    zero = odd[a[odd] == 0.0]
    a[odd] = 1.0  # zero, like 1.0, has its point after the first digit
    kernel[zero] = True
    whole, frac, p, scale = _scale17(a, kernel)
    bits = a.view(np.int64)
    if shortest:
        w = (bits & _EXPONENT_BITS).view(float)  # half the spacing of the doubles above a, in units of y
        w *= scale
        w *= 2.0 ** -53
        pow2 = (bits & _FRACTION_BITS == 0).nonzero()[0]
        del a, bits, scale  # each step frees what it no longer needs, to bound the peak
        number, uncertain = _shortest(whole, frac, w, pow2)
        del w
    else:
        del a, bits, scale
        number, uncertain = whole + (frac > 0.5), np.abs(frac - 0.5) < _MARGIN
    del whole, frac
    kernel &= ~uncertain
    point = np.subtract(17, p, out=p)  # |x| = 0.d1d2...d17 * 10**point
    carry = (number == 10 ** 17).nonzero()[0]
    number[carry] = 10 ** 16
    point[carry] += 1
    number[zero] = 0
    digits, sig = _digit_words(number)
    del number
    np.maximum(sig, 1, out=sig)  # zero has one significant digit
    # exponent = point - 1 below -4, or at 16 (repr) or 17 ('%.17g') and above
    sci = ((point < -3) | (point > (16 if shortest else 17))).nonzero()[0]
    # the digits kept: the significant ones, and an integer's zeros before the point
    kept = np.maximum(sig, point)
    pos = np.where((point >= 1) & ((sig > point) | shortest), point, _NO_POINT)
    kept[sci] = sig[sci]
    pos[sci] = np.where(sig[sci] > 1, 1, _NO_POINT)
    first, last = _BODY, _BODY + min(int(kept.max(initial=0)) + 1, 18)
    mask = np.take(tables["below"], kept, axis=1)
    del kept
    digits &= mask
    words = np.take(tables["dot"], pos, axis=1)  # bytes 8..31 of each row: the digits and the point
    np.take(tables["below"], pos, axis=1, out=mask, mode="clip")  # unbuffered; pos is in range
    del pos
    mask &= digits  # the digits before the point
    digits ^= mask  # the digits after it, which move up one byte
    words |= mask
    del mask
    words[1:] |= digits[:2] >> 56
    digits <<= 8
    words |= digits
    del digits
    out = np.empty((n, 4), dtype=_WORD)
    out[:, 1:] = words.T
    del words
    # bytes 2..7: the sign, and "0." and -point zeros in fixed notation below 1
    front = np.clip(1 - point, 0, 4)
    front[sci] = 0
    front <<= 1
    signed = np.signbit(x)
    front += signed
    out[:, 0] = tables["front"][front]
    first = _SIGN if signed.any() else 3 if front.any() else first
    if shortest:
        ints = ((point >= 1) & (point <= 16) & (sig <= point)).nonzero()[0]  # repr's ".0"
        if len(ints):
            out[ints, 3] |= np.uint64(_ZERO << 8 * (_DOT0 - 24))
            last = _DOT0 + 1
    if len(sci):
        exponent = point[sci] - 1
        e = np.abs(exponent).astype(_WORD)
        text = (np.uint64(_E) | np.where(exponent < 0, np.uint64(_MINUS << 8), np.uint64(_PLUS << 8))
                | np.where(e >= 100, (e // 100 + _ZERO) << 16, np.uint64(0))
                | (e // 10 % 10 + _ZERO) << 24 | (e % 10 + _ZERO) << 32)
        out[sci, 3] |= text << 8 * (_EXP - 24)
        last = 32
    cells = out.view(np.uint8)
    rows = (~kernel).nonzero()[0]
    if len(rows):
        fmt = repr if shortest else "%.17g".__mod__
        cells = _fallback(cells, rows, map(fmt, x[rows].tolist()), _SIGN)
        first, last = _SIGN, cells.shape[1]
    return cells[:, first:last]


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


# The reader: float(token) of whole columns of decimal tokens.
_ZEROS = np.uint64(0x3030303030303030)
_BYTE, _TOP = np.uint64(8), np.uint64(56)
# Word j of a row: the sum of the positions (8j + byte) of its bytes that are 1, in the top byte of the product
_PLACES = np.array([[sum((7 - k + 8 * j) << 8 * k for k in range(8))] for j in range(3)], dtype=np.uint64)
# The sum of the bytes of a word, in the top byte of the product, while that sum is below 256
_ONES = np.uint64(0x0101010101010101)
_DOT = np.uint64(_POINT ^ _ZERO)  # a point, XORed with "0" as the digits are
_M_MAX = np.uint64(9 * 10 ** 18)  # below this, M is exact as int64 and as hi + lo
_EXP_DIGITS = 8  # the most exponent digits, one word
_EXP_PLACES = 10.0 ** np.arange(7, -1, -1)  # of the digits of the last word of a window
_K_MAX = 260  # M * 10**k stays below 1e280, and above 1e-265 for k >= _P_MIN
# Error bound of M * 10**k as prod + low, relative to half the spacing of the
# doubles around it: M = M_hi + M_lo exactly, 10**k as a double-double errs
# by 2**-107, M_hi * lo(10**k) and M_lo * hi(10**k) each round by at most
# 2**-106, the dropped M_lo * lo(10**k) is below 2**-158, and the two sums
# of the low parts add at most 2**-105 and 2**-104.4: under 2**-103 of the
# value, which is under 2**-49 of the half spacing. A result whose distance to
# the nearest rounding boundary is below this margin, 32 times that bound,
# goes to CPython.
_READ_MARGIN = 2.0 ** -44
# Half the spacing of the doubles in [2**e, 2**(e+1)) is 2**e times this, less the margin
_HALF_SPACING = 2.0 ** -53 * (1.0 - _READ_MARGIN)
# the constants of the SWAR eight-digit step
_TEN, _PAIR, _PAIRS, _TIMES_HIGH, _TIMES_LOW, _HALF = (np.uint64(c) for c in (
    10, 16, 0x000000FF000000FF, 100 + (1000000 << 32), 1 + (10000 << 32), 32))
_TEN8 = np.uint64(10 ** 8)


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """The numbers of words that each hold 8 digit values, the first in the
    low byte, in place: the SWAR step of Lemire's fast_float."""
    t = v >> _BYTE
    v *= _TEN
    v += t
    np.right_shift(v, _PAIR, out=t)
    t &= _PAIRS
    t *= _TIMES_LOW
    v &= _PAIRS
    v *= _TIMES_HIGH
    v += t
    v >>= _HALF
    return v


def _count_and_place(flags: np.ndarray, scratch: np.ndarray):
    """How many bytes of each window are set, of (3, 8n) byte flags, and the
    sum of their places; ``scratch`` is a (3, n) word array to overwrite,
    which may be the flags' own memory."""
    words = flags.view(_WORD)
    count = words[0] + words[1]  # each byte at most 3 after the third word
    count += words[2]
    count *= _ONES
    count >>= _TOP
    np.multiply(words, _PLACES, out=scratch)
    scratch >>= _TOP
    place = scratch[0]  # in place: the sums are the first row of ``scratch``
    place += scratch[1]
    place += scratch[2]
    return count.view(np.int64), place.view(np.int64)


def _windows(buf: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The 24 bytes of ``buf`` that end at each of ``ends``, XORed with "0"s
    so that a digit is its value and any other byte over 9, as (3, n)
    little-endian words: byte j of window i is in word j // 8 of column i.
    One gather of 24-byte items costs as much as one of unaligned words."""
    items = np.ndarray((len(buf) - _TOKEN_BYTES + 1,), dtype="V24", buffer=buf, strides=(1,))
    d = np.ascontiguousarray(items[ends].view(_WORD).reshape(len(ends), 3).T)
    d ^= _ZEROS
    return d


def _product(a: np.ndarray, a_lo: np.ndarray, k: np.ndarray):
    """M * 10**k rounded to a double, and whether that is certified: the
    double-double product of M = a + a_lo and 10**k, within
    ``_READ_MARGIN`` of no rounding boundary, for k in [-265, 260]. Each
    step works in place: ``a``, ``a_lo`` and ``k`` are overwritten."""
    t_hi, t_hh, t_hl, t_lo = _tables()["pow10"]
    i = k
    i -= _P_MIN
    in_range = i.view(_WORD) <= _K_MAX - _P_MIN
    i *= in_range  # 10**-265 for a k out of range, so that no product overflows
    hi = np.take(t_hi, i, mode="clip")
    prod = a * hi
    a_lo *= hi
    low = np.take(t_lo, i, out=hi, mode="clip")
    low *= a
    low += a_lo  # M_hi * lo(10**k) + M_lo * hi(10**k)
    # a * hi(10**k) - prod, exactly: Dekker's product of the 26-bit halves (Veltkamp's split)
    ah = np.multiply(a, _SPLITTER, out=a_lo)
    hh = ah - a
    ah -= hh
    al = np.subtract(a, ah, out=a)
    np.take(t_hh, i, out=hh, mode="clip")
    err = ah * hh
    err -= prod
    hl = np.take(t_hl, i, mode="clip")
    ah *= hl
    err += ah
    hh *= al
    err += hh
    al *= hl
    err += al
    del hh, hl
    err += low
    total = np.add(prod, err, out=low)
    resid = np.subtract(err, np.subtract(total, prod, out=prod), out=err)  # prod + low - total, exactly
    # half the spacing of the doubles just below total: the smaller side
    # when total is a power of two, and for zero, which is exact, infinity
    half = np.subtract(total.view(np.int64), 1, out=prod.view(np.int64))
    half &= _EXPONENT_BITS
    half = half.view(float)
    half *= _HALF_SPACING
    np.abs(resid, out=resid)
    certified = resid < half
    certified &= in_range
    return total, certified


def read_floats(text: bytes, starts: np.ndarray, ends: np.ndarray, ints: bool = True):
    """``float(text[a:b])`` of every token (a, b) of ``starts`` and ``ends``,
    and the mask of the tokens the kernel certifies; the other values are
    undefined.

    The kernel takes the tokens of the grammar ``-?(0|[1-9][0-9]*)(\\.[0-9]+)?
    (e[+-]?[0-9]+)?`` of at most 24 bytes, with a point or an exponent unless
    ``ints``, whose mantissa M (the digits, point dropped) is below 9e18 and
    whose exponent has at most 8 digits. Each value is M * 10**k for k in
    [-265, 260], the double-double product of M and 10**k (``_product``),
    certified when it lies farther than ``_READ_MARGIN`` from a rounding
    boundary. The steps work in place on a few columns: the kernel holds
    under 70 bytes a token besides its copy of the text.
    """
    tables = _tables()
    high = tables["high"]
    starts, ends = np.asarray(starts, dtype=np.intp), np.asarray(ends, dtype=np.intp)
    # the text with _TOKEN_BYTES NULs on each side, so that the window of
    # the 24 bytes that end a token lies inside it
    buf = np.zeros(len(text) + 2 * _TOKEN_BYTES, dtype=np.uint8)
    buf[_TOKEN_BYTES:_TOKEN_BYTES + len(text)] = np.frombuffer(text, dtype=np.uint8)
    head = buf[_TOKEN_BYTES:]
    neg = head[starts] == _MINUS
    zero = head[starts + neg] == _ZERO  # a first digit 0
    del head
    length = np.subtract(ends, starts, dtype=np.int32)  # of the token after its sign
    length -= neg
    fits = length <= _TOKEN_BYTES
    np.minimum(length, _TOKEN_BYTES, out=length)  # of its window
    d = _windows(buf, ends)  # 0 before the token
    scratch = np.empty_like(d)  # masks and byte flags, in turn
    np.take(high, length, axis=1, out=scratch, mode="clip")
    d &= scratch
    flags = scratch.view(np.bool_)
    np.greater(d.view(np.uint8), 9, out=flags)
    n_other, place = _count_and_place(flags, scratch)  # the place of the one non-digit, if one
    place += ends
    point = np.take(buf, place, mode="clip") == _POINT  # the byte at that place
    place -= ends
    point &= n_other == 1
    plain = n_other == 0
    plain |= point
    rest = np.flatnonzero(~plain)
    n_other = n_other[rest]
    # the code of the point: 0 without one, else 1 + the digits after it
    code = np.subtract(_TOKEN_BYTES, place, dtype=np.int32)
    code *= point
    del place, point, flags, scratch
    # The integer digits: one, or more of which the first is not 0. A point
    # needs a digit after it, and a float without one an exponent.
    digits = length - code
    ok = digits > 1
    ok &= ~zero
    ok |= digits == 1
    del digits
    ok &= plain
    ok &= code != 1
    if not ints:
        ok &= code > 0
    del plain
    if len(rest):  # tokens with an exponent, or not in the grammar
        exponent, windows, code[rest], ok[rest] = _exponents(buf, np.take(d, rest, axis=1), ends[rest],
                                                             length[rest], zero[rest], n_other)
    ok &= fits
    del n_other, zero, length, fits, buf
    # zero the point, the one non-digit of a plain token
    scratch = np.empty_like(d)
    flags = scratch.view(np.bool_)
    np.greater(d.view(np.uint8), 9, out=flags)
    scratch *= _DOT
    d ^= scratch
    if len(rest):
        d[:, rest] = windows
        del windows
    # the mantissa's digits, right-aligned in the 3 words: the integer digits
    # move up one byte, over the point (none without a point)
    whole = np.take(tables["whole"], code, axis=1, out=scratch, mode="clip")
    whole &= d
    d ^= whole
    d[1:] |= whole[:2] >> _TOP
    whole <<= _BYTE
    d |= whole
    del whole, scratch, flags
    v = _eight_digits(d)
    m = v[0] * _TEN8
    m += v[1]
    m *= _TEN8
    m += v[2]
    ok &= v[0] < 1000  # at most 19 digits
    ok &= m < _M_MAX
    np.minimum(m, _M_MAX, out=m)  # so that M near 2**64, refused, casts to a float and back in range
    del v, d
    # k: the exponent less the digits after the point
    k = np.subtract(1, code, dtype=np.int64)
    np.minimum(k, 0, out=k)
    del code
    if len(rest):
        k[rest] += exponent
    m_hi = m.astype(float)
    m -= m_hi.astype(_WORD)
    m_lo = m.view(np.int64).astype(float)
    del m
    value, certified = _product(m_hi, m_lo, k)
    ok &= certified
    sign = neg.view(np.uint8).astype(_WORD)
    sign <<= np.uint64(63)
    bits = value.view(_WORD)
    bits |= sign
    return value, ok


def _exponents(buf, rd, ends, length, zero, n_other):
    """For the tokens that are not plain, given their windows ``rd``,
    ``ends``, window ``length``, ``zero`` and ``n_other``: their exponents,
    the windows of the 24 bytes that end their mantissas with the point
    zeroed, their point codes, and which of them are in the grammar."""
    high = _tables()["high"]
    r = len(ends)
    # the points and the "e"s of the windows, counted and placed in one call
    flags = np.empty((3, 2 * r), dtype=_WORD)
    np.equal(rd.view(np.uint8), _DOT, out=flags[:, :r].view(np.bool_))
    np.equal(rd.view(np.uint8), _E ^ _ZERO, out=flags[:, r:].view(np.bool_))
    count, place = _count_and_place(flags.view(np.bool_), flags)
    n_p, n_e, q = count[:r], count[r:], place[r:]
    p = np.where(n_p == 1, place[:r], q)  # the end of the integer digits
    sign = buf[ends + np.minimum(q + 1, _TOKEN_BYTES - 1)]
    signed = (sign == _PLUS) | (sign == _MINUS)
    n_exp = _TOKEN_BYTES - 1 - q - signed
    # one "e" after at most one point, then a sign or none and 1 to 8
    # digits; every other byte a digit
    exp = ((n_e == 1) & (n_p <= 1) & (p <= q) & (n_other == n_p + 1 + signed) & (n_exp >= 1)
           & (n_exp <= _EXP_DIGITS))
    q *= exp  # outside the grammar q is a sum of places, up to 276: keep its window inside the text
    e = (rd[2] & high[2][n_exp * exp]).view(np.uint8).reshape(r, 8) @ _EXP_PLACES
    first = _TOKEN_BYTES - length
    digits = p - first  # before the point, or the "e"
    code = (q - p) * (exp & (n_p == 1))
    ok = exp & ((digits == 1) | (digits > 1) & ~zero) & (code != 1)
    # the window that ends at the mantissa, its point zeroed
    rd = _windows(buf, np.maximum(ends - _TOKEN_BYTES + q, 0))
    rd &= np.take(high, q - first, axis=1, mode="clip")
    rd ^= np.greater(rd.view(np.uint8), 9).view(_WORD) * _DOT
    exponent = e.astype(np.int64)
    np.negative(exponent, out=exponent, where=sign == _MINUS)
    return exponent, rd, code, ok


def float_tokens(text: bytes, starts: np.ndarray, ends: np.ndarray) -> list:
    """CPython's ``float`` of every token: the reader's fallback and its oracle."""
    return [float(text[a:b]) for a, b in zip(starts.tolist(), ends.tolist())]
