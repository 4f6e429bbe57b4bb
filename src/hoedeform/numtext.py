"""Decimal text of whole float64 and int64 columns, and floats of whole columns of decimal text.

``repr_text(values)`` gives, for a block of values, the text of ``repr(v)``
(the shortest digits that read back as v, nearest to v), ``g17_text`` that
of ``'%.17g' % v`` (17 significant digits, correctly rounded) and
``int_text`` that of ``'%d' % v``. Each returns an (n, width) uint8 array whose
row i holds the ASCII text of value i, in order, with NUL bytes between and
around the characters; the row assembler ``fieldio.write_rows`` drops them.

The digits come from y = |x| * 10**p, with p chosen so that 1e16 <= y < 1e17,
held as a double-double hi + lo: Dekker's exact product (Numer. Math. 18,
1971) of x and 10**p as a double-double from a table (``_dd_product``, which
the reader shares). Every row is then certified against the error bound of
y (``_MARGIN``), in the pattern of Grisu3 (Loitsch, PLDI 2010): a row whose
rounding, or whose rounding interval, lies too close to a decision boundary
to decide, and every |x| outside [1e-280, 1e280] (subnormals and non-finite
values among them), is formatted by CPython's ``repr`` or ``%`` instead.
Zeros and the powers of ten up to 1e15, whose y is exact, need no fallback.

p itself is 16 - floor(log10 |x|), from numpy's ``log10``; a row a decade
off, as next to a power of ten, goes through the product again. The text
of a row is built in three little-endian 64-bit words of digits and a word
before them, and the steps run in place over whole columns, the small ones
as int16. Only the exponent of exponent notation runs on the rows that need
it, found with ``nonzero``: a block pays for it by those rows, not by its
length. Callers pass blocks of ``BLOCK_VALUES`` values: numpy's cost per
call, ~0.1 ms, dominates much smaller blocks. The kernel holds at most 80
bytes a value at its peak, and a block is the largest whose writer
(``fieldio.write_rows``), with the kernel, the block's text and the rows it
writes, stays under the 1 MiB thresholds of the heap (``heap``).

``read_floats(text, starts, ends)`` is the inverse: the values of the number
tokens ``text[starts[i]:ends[i]]`` of a block of bytes, and the mask of the
tokens it certifies. It takes plain decimals, the grammar
``-?(0|[1-9][0-9]*)(\\.[0-9]+)?`` (with the point required unless ``ints``),
tokens of at most 24 bytes whose mantissa M (the digits, point dropped) is
below 9e18. The 24 bytes that end each token are read as three
little-endian words of digit values; the integer digits move up one byte
over the point, and M comes from the SWAR eight-digit step of Lemire's
fast_float ("Number parsing at a gigabyte per second", Softw. Pract. Exp.
51(8), 2021). Every M then takes one path: the value M * 10**k, k minus the
digits after the point, is the writers' double-double product of M and
10**k (``_dd_product``), in the pattern of Eisel-Lemire: it errs by under
2**-48 of half the spacing of doubles there, and is certified when it lies
farther than ``_READ_MARGIN`` (16 times that) from a rounding boundary. Any
other token (outside the grammar, exponent notation among it, or an exact
tie between two doubles such as 9007199254740993) is left to the caller,
which reads it with CPython's ``float`` (``float_tokens``), so every value
read is ``float``'s, bit for bit. The steps update a few columns in place,
with the small ones as int32 or bytes, and hold under 70 bytes a token
besides a copy of the text. The readers pass blocks of 128 KiB (rays.csv)
and 192 KiB (field files), about 7 000 tokens: numpy's cost per call
dominates smaller blocks, and a block, what its reader holds and the
kernel's temporaries then stay under the 1 MiB thresholds of the heap that
the package keeps (``heap``).
"""

from __future__ import annotations

import functools

import numpy as np

# Values per kernel call: the largest block whose writer, kernel and text
# included, stays under the heap's 1 MiB thresholds (``heap``).
BLOCK_VALUES = 9000

# Error bound of y = hi + lo, in units of its 17th digit. With y < 2**57 the
# product (``_dd_product``) errs by at most 3.5 * 2**-106 * y < 2**-47 (the
# table's 10**p errs by 2**-107 relative, x * lo(10**p), at most 2**-53 y,
# rounds by 2**-106 y, and its sum with Dekker's exact low part, at most
# 2**-52 y, by 2**-105 y); the distances compared with the rounding
# interval add at most 2**-49 each in rounding, and the interval's half
# width 2**-48. A decision closer than this margin to its boundary, 8 times
# the sum of the errors, goes to CPython.
_MARGIN = 2.0 ** -44
_LIMITS = (1e-280, 1e280)
# 10**p for every p the kernel can ask for: 16 - floor(log10 |x|), +-1
_P_MIN, _P_MAX = -265, 297
_TOKEN_BYTES = 24  # the reader refuses a longer token
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's constant: splits a double into two 26-bit halves
_EXPONENT_BITS, _FRACTION_BITS = 0x7FF << 52, (1 << 52) - 1
_POINT, _ZERO, _MINUS, _PLUS, _E = b".0-+e"
_WORD = np.dtype("<u8")
_BYTE, _TOP = np.uint64(8), np.uint64(56)
_GROUP_HIGH, _GROUP_LOW = np.uint64(24), np.uint64(40)  # a group at byte 5 of a word: its last byte, and the rest
_NO_POINT = 18  # the point position of a row without a point
# The 32 bytes of a row: 2 unused, then up to 6 bytes that end at byte 7,
# the sign, "0." and up to three zeros (fixed notation below 1), 17 digits
# with a point among them, the "0" of repr's ".0", then "e", the exponent's
# sign and three exponent digits.
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
    Word tables, indexed by k:
    ``below``, the mask of bytes 0..k-1; ``dot``, a point at byte k (none for
    k = 18). ``zeros4``: the trailing zeros of 0000..9999;
    ``front[2 * c + s]``: bytes 2..7 of a row, ending in a minus sign if s,
    then for c > 0 "0." and c - 1 zeros. The reader's word tables of 24-byte
    windows: ``high[n]``, the last n bytes; ``whole[c]``, the bytes before a
    point with c - 1 digits after it, and none for c = 0 (no point).
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
    for c in range(5):
        for s in range(2):
            text = b"-"[:s] + (b"0." + b"0" * (c - 1) if c else b"")
            front[c, s, _BODY - len(text):] = np.frombuffer(text, dtype=np.uint8)
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
        "front": front.view(_WORD).ravel(),
        "zeros4": np.where(groups == 0, 4, sum(groups % 10 ** i == 0 for i in (1, 2, 3))).astype(np.int16),
    }


def _dd_product(a: np.ndarray, i: np.ndarray, low=None):
    """(a + low) * 10**p as a double-double hi + lo, given the index ``i`` =
    p - _P_MIN of 10**p in the power table (``low`` is 0 if None, else a
    column that this overwrites): a * hi(10**p) exactly by Dekker's product of
    Veltkamp's halves of a (ah + al) and of hi(10**p) (hh + hl, from the
    table), plus a * lo(10**p) and low * hi(10**p). The steps run on five
    columns besides ``a`` and ``low``."""
    t_hi, t_hh, t_hl, t_lo = _tables()["pow10"]
    prod = t_hi.take(i, mode="clip")
    if low is not None:
        low *= prod
    prod *= a
    ah = np.multiply(a, _SPLITTER)
    al = np.subtract(ah, a)
    ah -= al
    np.subtract(a, ah, out=al)
    part = t_hh.take(i, mode="clip")
    err = np.multiply(ah, part)
    err -= prod
    part *= al
    err += part
    t_hl.take(i, out=part, mode="clip")
    ah *= part
    err += ah
    al *= part
    err += al
    del al
    t_lo.take(i, out=part, mode="clip")
    part *= a
    if low is not None:
        part += low
    err += part
    del part
    hi = np.add(prod, err, out=ah)
    lo = np.subtract(err, np.subtract(hi, prod, out=prod), out=err)  # prod + err - hi, exactly
    return hi, lo


def _scaled(a: np.ndarray, i: np.ndarray):
    """floor(y) and frac(y) of y = a * 10**p for positive a, given the index
    ``i`` = p - _P_MIN of 10**p in the power table, within the error of
    ``_MARGIN``."""
    hi, lo = _dd_product(a, i)
    # hi is a whole number and |lo| <= 8: floor(y) = hi + floor(lo)
    whole = hi.astype(np.int64)
    floor_lo = np.floor(lo, out=hi)
    lo -= floor_lo
    whole += floor_lo.astype(np.int8)
    return whole, lo


def _scale17(a: np.ndarray, kernel: np.ndarray):
    """floor(y), frac(y) and the index i = p - _P_MIN of y = a * 10**p in
    [1e16, 1e17); rows whose y cannot be brought into that range leave
    ``kernel``.

    p = 16 - floor(log10 a), with numpy's rounded ``log10``: a value next to
    a power of ten may come out a decade off, and such rows, whose y is out
    of range, are scaled again with p moved by one."""
    i = np.log10(a)
    np.floor(i, out=i)
    i = np.subtract(16 - _P_MIN, i).astype(np.intp)
    whole, frac = _scaled(a, i)
    redo = ((whole < 10 ** 16) | (whole >= 10 ** 17)).nonzero()[0]
    if len(redo):
        i[redo] += np.where(whole[redo] < 10 ** 16, 1, -1)
        whole[redo], frac[redo] = _scaled(a[redo], i[redo])
        kernel[redo[(whole[redo] < 10 ** 16) | (whole[redo] >= 10 ** 17)]] = False
    return whole, frac, i


def _near(u, v) -> np.ndarray:
    """|u - v| < _MARGIN."""
    d = np.subtract(u, v)
    np.abs(d, out=d)
    return d < _MARGIN


def _shortest(whole, frac, w, pow2):
    """The multiple of the largest power of ten inside the rounding interval
    of a, nearest to y, in units of y, written over ``whole``, and the rows
    that are uncertain; ``w`` is half the spacing of the doubles above a, in
    units of y, which this overwrites, and ``pow2`` the rows where a is a
    power of two, below which the doubles are twice as dense.

    The interval is at most 22.2 units wide (half of a's spacing, times
    10**p, is at most y * 2**-53), so at most one multiple of 100 lies in
    it: its digits, trailing zeros dropped, are the shortest. Without one,
    the nearest multiple of 10 inside has 16 digits, and without that the
    nearest integer (always inside, the half width being over 0.55) has 17.
    """
    # y - j is inside for j < reach_lo, y + 1 + j for j < reach_hi: with f
    # the last digits of y, the multiple below, y - f, is inside if f <
    # reach_lo, and the one above if f > 99 - reach_hi (100s) or 9 - reach_hi (10s)
    above = np.add(w, frac)
    np.subtract(100.0, above, out=above)  # 99 - reach_hi
    reach_lo = w
    reach_lo[pow2] *= 0.5
    reach_lo -= frac
    f100 = whole // 100  # the last two digits of y, exact as float32
    f100 *= -100
    f100 += whole
    f100 = f100.astype(np.float32)
    f10 = np.multiply(f100, np.float32(0.1))  # and the last one: 0.1 is a little above 1/10, so the floor is exact
    np.floor(f10, out=f10)
    f10 *= -10.0
    f10 += f100
    # a boundary hit of a candidate that decides
    lo100, hi100 = f100 < reach_lo, f100 > above
    hit100 = _near(f100, reach_lo)
    hit100 |= _near(f100, above)
    above -= 90.0  # 9 - reach_hi
    lo10, hi10 = f10 < reach_lo, f10 > above
    hit10 = _near(f10, reach_lo)
    hit10 |= _near(f10, above)
    del above, reach_lo
    in100 = lo100 | hi100
    del lo100
    # both multiples of 10 inside: the nearer one, and a near-tie between them
    both10 = lo10 & hi10
    step = np.add(f10, frac)
    hit10 |= both10 & _near(step, 5.0)
    up10 = step >= 5.0
    up10 &= both10
    in10 = lo10 | hi10
    hi10 &= ~lo10
    up10 |= hi10
    del both10, lo10, hi10
    # the step from y to the candidate: the multiple of 100, else of 10, else the nearest integer
    np.multiply(up10, 10.0, out=step)
    step -= f10
    nearest = frac > 0.5
    step -= nearest
    step *= in10
    step += nearest
    to100 = np.multiply(hi100, np.float32(100.0))
    to100 -= f100
    to100 -= step
    to100 *= in100
    step += to100
    del to100
    whole += step.astype(np.int8)
    # and a near-tie of the nearest integer
    tie = _near(frac, 0.5)
    tie &= ~in10
    hit10 |= tie
    hit10 &= ~in100
    hit100 |= hit10
    return whole, hit100


def _groups(number: np.ndarray):
    """The first digit and the four groups of four digits that follow it of
    each number below 1e17, as int16 rows (5, n), and the count of digits
    up to the last that is not 0 (0 for zero), as int16. ``number`` is
    overwritten.

    The groups are split in float64, exactly: each half of the number is
    below 2**53, and 1e-4 is a little above 1/10**4, so the floor of a
    product by it is the quotient."""
    groups = np.empty((5, len(number)), dtype=np.int16)
    top = number // 10 ** 8  # the first 9 digits
    number -= top * 10 ** 8  # the last 8, in place
    for half, row in ((number, 3), (top, 1)):
        rest = half.astype(float)
        high = np.multiply(rest, 1e-4)
        np.floor(high, out=high)
        rest -= high * 1e4
        groups[row + 1] = rest
        if row == 1:  # the first digit, and the first group
            np.multiply(high, 1e-4, out=rest)
            np.floor(rest, out=rest)
            groups[0] = rest
            rest *= 1e4
            high -= rest
        groups[row] = high
        del rest, high
    del top
    zeros4 = _tables()["zeros4"]
    sig = zeros4.take(groups[4])
    np.subtract(17, sig, out=sig)
    deep = (groups[4] == 0).nonzero()[0]
    if len(deep):  # the last four digits are 0: count the zeros further up
        zeros = groups[0, deep] == 0
        for group in groups[1:, deep]:
            zeros = zeros4[group] + (group == 0) * zeros
        sig[deep] = 17 - zeros
    return groups, sig


def _digit_words(groups: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of the (5, n) ``groups``, leading zeros kept, at
    bytes 8..24 of little-endian words 1..3 of a row, (3, n), the other
    bytes NUL. ``groups`` is overwritten."""
    ascii4 = _tables()["ascii4"]
    # the first digit at byte 8, then the groups, first to last, at bytes 9, 13, 17 and 21
    out = np.empty((3, groups.shape[1]), dtype=_WORD)
    index = groups[4].astype(np.intp)
    group = ascii4.take(index, mode="clip")
    np.right_shift(group, _GROUP_HIGH, out=out[2])
    np.left_shift(group, _GROUP_LOW, out=out[1])
    for k in (3, 2, 1):
        index[...] = groups[k]
        ascii4.take(index, out=group, mode="clip")
        if k == 2:  # across two words
            out[1] |= group >> _GROUP_HIGH
            np.left_shift(group, _GROUP_LOW, out=out[0])
        else:  # at byte 1 of the word
            group <<= _BYTE
            out[(k - 1) // 2] |= group
    del group, index
    groups[0] += _ZERO
    out[0] |= groups[0].astype(_WORD)
    return out


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

    The steps run on whole columns, in place where they can, with the small
    columns as int16, except the exponent of exponent notation and the rows
    left to CPython, which run only on the rows that need them. The digits
    and the point are assembled in three rows of words (3, n), their masks
    in the memory of the rows of text, which they are then written to.
    """
    tables = _tables()
    x = np.ascontiguousarray(values, dtype=float)
    n = len(x)
    a = np.abs(x)
    kernel = (a >= _LIMITS[0]) & (a <= _LIMITS[1])  # False for nan
    zero = a == 0.0
    a[~kernel] = 1.0  # zero, like 1.0, has its point after the first digit
    kernel |= zero
    number, frac, i = _scale17(a, kernel)
    if shortest:
        bits = a.view(np.int64)
        pow2 = (bits & _FRACTION_BITS == 0).nonzero()[0]
        bits &= _EXPONENT_BITS  # a's binade starts at 2**e: half the spacing there, in units of y
        w = a
        w *= tables["pow10"][0].take(i)
        w *= 2.0 ** -53
        del a, bits
    point = np.subtract(17 - _P_MIN, i, dtype=np.int16)  # |x| = 0.d1d2...d17 * 10**point
    del i
    if shortest:
        number, uncertain = _shortest(number, frac, w, pow2)
        del w
    else:
        del a
        number += frac > 0.5
        frac -= 0.5
        uncertain = _near(frac, 0.0)
    del frac
    kernel &= ~uncertain
    del uncertain
    carry = number == 10 ** 17
    number -= carry * (9 * 10 ** 16)
    point += carry
    number[zero] = 0
    groups, sig = _groups(number)
    del number
    digits = _digit_words(groups)
    del groups
    np.maximum(sig, 1, out=sig)  # zero has one significant digit
    # exponent notation below 1e-4, and from 1e16 (repr) or 1e17 ('%.17g')
    sci = ((point < -3) | (point > (16 if shortest else 17))).nonzero()[0]
    if len(sci):
        exponent = point[sci] - 1
        point[sci] = 0
    # the byte of the point: after the integer digits, none in fixed notation
    # below 1 and none in '%.17g' of an integer
    at_point = point >= 1
    if not shortest:
        at_point &= sig > point
    pos = np.subtract(point, _NO_POINT, dtype=np.intp)
    pos *= at_point
    pos += _NO_POINT
    if len(sci):
        pos[sci] = np.where(sig[sci] > 1, 1, _NO_POINT)
    out = np.empty((n, 4), dtype=_WORD)
    scratch = out.reshape(4, n)  # out's memory, until the rows are written
    # the digits kept: the significant ones, and an integer's zeros before the point
    kept = np.maximum(sig, point, out=scratch[0].view(np.intp))
    last = _BODY + min(int(kept.max(initial=0)) + 1, 18)
    mask = tables["below"].take(kept, axis=1, out=scratch[1:], mode="clip")
    del kept
    digits &= mask
    tables["below"].take(pos, axis=1, out=mask, mode="clip")
    mask &= digits  # the digits before the point
    digits ^= mask  # the digits after it, which move up one byte
    for k in (1, 2):
        mask[k] |= np.right_shift(digits[k - 1], _TOP, out=scratch[0])
    digits <<= _BYTE
    digits |= mask
    digits |= tables["dot"].take(pos, axis=1, out=mask, mode="clip")
    del mask, scratch, pos
    for k in range(3):
        out[:, k + 1] = digits[k]
    del digits
    # bytes 2..7: the sign, and "0." and -point zeros in fixed notation below 1
    front = np.subtract(1, point)
    np.maximum(front, 0, out=front)
    if len(sci):
        front[sci] = 0
    front <<= 1
    signed = np.signbit(x)
    front += signed
    out[:, 0] = tables["front"].take(front, mode="clip")
    widest = int(front.max(initial=0)) >> 1  # c of "0." and c - 1 zeros
    first = _BODY - int(signed.any()) - (widest + 1 if widest else 0)
    if shortest:
        ints = at_point & (sig <= point)  # repr's ".0"
        out[:, 3] |= ints * np.uint64(_ZERO << 8 * (_DOT0 - 24))
        last = _DOT0 + 1 if ints.any() else last
    if len(sci):
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
# Word j of a row: the sum of the positions (8j + byte) of its bytes that are 1, in the top byte of the product
_PLACES = np.array([[sum((7 - k + 8 * j) << 8 * k for k in range(8))] for j in range(3)], dtype=np.uint64)
# The sum of the bytes of a word, in the top byte of the product, while that sum is below 256
_ONES = np.uint64(0x0101010101010101)
_DOT = np.uint64(_POINT ^ _ZERO)  # a point, XORed with "0" as the digits are
_M_MAX = np.uint64(9 * 10 ** 18)  # below this, M is exact as int64 and as hi + lo
# Error bound of M * 10**k as the hi + lo of ``_dd_product``, relative to half
# the spacing of the doubles around it: M = M_hi + M_lo exactly with |M_lo|
# at most 2**-53 M_hi, 10**k as a double-double errs by 2**-107, M_hi *
# lo(10**k) and M_lo * hi(10**k) each round by at most 2**-106, the dropped
# M_lo * lo(10**k) is below 2**-106, and the two sums of the low parts add
# at most 2**-105 and 3 * 2**-106: 8.5 * 2**-106 of the value, which is under
# 2**-48 of the half spacing (at least 2**-54 of the value). A result whose
# distance to the nearest rounding boundary is below this margin, 16 times
# that bound, goes to CPython.
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
    double-double product of M = a + a_lo and 10**k (``_dd_product``),
    within ``_READ_MARGIN`` of no rounding boundary, for k in [-23, 0].
    ``a_lo`` and ``k`` are overwritten."""
    k -= _P_MIN
    total, resid = _dd_product(a, k, a_lo)
    # half the spacing of the doubles just below total: the smaller side
    # when total is a power of two, and for zero, which is exact, infinity
    half = np.subtract(total.view(np.int64), 1, out=a_lo.view(np.int64))
    half &= _EXPONENT_BITS
    half = half.view(float)
    half *= _HALF_SPACING
    np.abs(resid, out=resid)
    certified = resid < half
    return total, certified


def read_floats(text: bytes, starts: np.ndarray, ends: np.ndarray, ints: bool = True):
    """``float(text[a:b])`` of every token (a, b) of ``starts`` and ``ends``,
    and the mask of the tokens the kernel certifies; the other values are
    undefined.

    The kernel takes the plain decimals of the grammar
    ``-?(0|[1-9][0-9]*)(\\.[0-9]+)?`` of at most 24 bytes, with a point unless
    ``ints``, whose mantissa M (the digits, point dropped) is below 9e18; a
    token with an exponent is refused like any other outside the grammar.
    Each value is M * 10**k, k minus the digits after the point, the
    double-double product of M and 10**k (``_product``), certified when it
    lies farther than ``_READ_MARGIN`` from a rounding boundary. The steps
    work in place on a few columns: the kernel holds under 70 bytes a token
    besides its copy of the text.
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
    del n_other
    # the code of the point: 0 without one, else 1 + the digits after it
    code = np.subtract(_TOKEN_BYTES, place, dtype=np.int32)
    code *= point
    del place, point, flags, scratch
    # The integer digits: one, or more of which the first is not 0. A point
    # needs a digit after it, and a float a point.
    digits = length - code
    ok = digits > 1
    ok &= ~zero
    ok |= digits == 1
    del digits
    ok &= plain
    ok &= code != 1
    if not ints:
        ok &= code > 0
    ok &= fits
    del plain, zero, length, fits, buf
    # zero the point, the one non-digit of a plain token
    scratch = np.empty_like(d)
    flags = scratch.view(np.bool_)
    np.greater(d.view(np.uint8), 9, out=flags)
    scratch *= _DOT
    d ^= scratch
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
    # k: minus the digits after the point, in [-23, 0] (code is at most 24), inside the power table
    k = np.subtract(1, code, dtype=np.int64)
    np.minimum(k, 0, out=k)
    del code
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


def float_tokens(text: bytes, starts: np.ndarray, ends: np.ndarray) -> list:
    """CPython's ``float`` of every token: the reader's fallback and its oracle."""
    return [float(text[a:b]) for a, b in zip(starts.tolist(), ends.tolist())]
