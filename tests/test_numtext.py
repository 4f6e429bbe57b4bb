"""The number kernels against CPython, which is their fallback and their oracle.

``repr_text`` must give ``repr(v)``, ``g17_text`` ``'%.17g' % v`` and
``int_text`` ``'%d' % v``, byte for byte, and ``read_floats`` the bits of
``float(token)`` for every token it certifies. The values below stress their
decisions: exact decimal ties (dyadic values with few significant bits),
rounding interval boundaries (powers of two and ten and their neighbours),
the range limits and subnormals they leave to CPython.
"""

import io
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak

from hoedeform import fieldio, heap, numtext, scene
from hoedeform.config import load_scene_config
from hoedeform.deformation import induce_forward
from hoedeform.geometry import Vec3
from hoedeform.recording import PolarGrid, record
from hoedeform.surfaces import SurfaceProfile
from hoedeform.waves import Wave, Wavelength
from hoedeform.fieldio import write_rows
from hoedeform.numtext import BLOCK_VALUES, float_tokens, g17_text, int_text, read_floats, repr_text


SRC = Path(__file__).resolve().parent.parent / "src"
LAM = Wavelength(500.0)


def _kernel_lines(values, shortest: bool) -> bytes:
    """The kernel's text of ``values`` as ``_cpython_lines`` lays it out, joined by the writers' assembler."""
    buf = io.BytesIO()
    values = np.asarray(values, dtype=float)
    if shortest:
        write_rows(buf, [(repr_text, values)], len(values), sep=b", ")
        return b"[" + buf.getvalue() + b"]"
    write_rows(buf, [(g17_text, values), b"\n"], len(values))
    return buf.getvalue()


def _cpython_lines(values, shortest: bool) -> bytes:
    """repr of the list of ``values`` (repr of each, the quickest way), or '%.17g' of each on its own line."""
    values = list(values)
    return (str(values) if shortest else ("%.17g\n" * len(values)) % tuple(values)).encode("ascii")


def _edge_values():
    """Powers of ten and of two with their neighbours, dyadic ties, the range limits and specials."""
    tens = np.array([float(f"1e{k}") for k in range(-330, 311)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    rng = np.random.default_rng(1)
    # at most 21 significant bits: a decimal with 17 or 18 digits, many of them exact ties
    dyadic = np.ldexp(rng.integers(1, 2 ** 21, 2_000).astype(float), rng.integers(-60, 40, 2_000))
    special = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e16, 1e17, 1e22, 1e23,
               float(2 ** 53 + 1), 2.0 ** 53 + 2, 1e-280, 1e280, 9.999999999999999e279, 1.7976931348623157e308,
               0.1, 0.3, 1.0, 123.0, 1e-5, 1e-4, 1 + 2.0 ** -17, 5e-5, 0.5, 2.5]
    base = np.concatenate([tens, twos, dyadic, special])
    with np.errstate(over="ignore"):
        base = np.concatenate([base, np.nextafter(base, 0.0), np.nextafter(base, np.inf)])
    base = base[np.isfinite(base)]
    return np.concatenate([base, -base])


def _million_values():
    """10**6 seeded values: the edge values, and the rest (random bit
    patterns, values of every magnitude, dyadic ties) shuffled."""
    rng = np.random.default_rng(20100601)
    bits = rng.integers(-2 ** 63, 2 ** 63 - 1, 100_000, dtype=np.int64).view(np.float64)
    spread = rng.standard_normal(600_000) * 10.0 ** rng.uniform(-15, 15, 600_000)
    dyadic = np.ldexp(rng.integers(1, 2 ** 21, 280_000).astype(float), rng.integers(-70, 50, 280_000))
    edge = _edge_values()
    rest = np.concatenate([bits[np.isfinite(bits)], spread, dyadic])
    rng.shuffle(rest)
    assert len(edge) + len(rest) >= 10 ** 6
    return edge, rest


def test_kernel_matches_cpython_on_a_million_values():
    """The edge values in both formats, the rest half against repr and half against '%.17g'."""
    edge, rest = _million_values()
    for shortest, values in ((True, np.concatenate([edge, rest[::2]])), (False, np.concatenate([edge, rest[1::2]]))):
        got, want = _kernel_lines(values, shortest), _cpython_lines(values.tolist(), shortest)
        if got != want:
            got, want = got.strip(b"[]").split(), want.strip(b"[]").split()
            bad = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            pytest.fail(f"{'repr' if shortest else '%.17g'} of {values[bad]!r}: {got[bad]} != {want[bad]}")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_kernel_matches_cpython_on_any_floats(values):
    for shortest in (True, False):
        assert _kernel_lines(values, shortest) == _cpython_lines(values, shortest)


@pytest.mark.parametrize("value, shortest, text", [
    (1 + 2.0 ** -17, False, "1.0000076293945312"),  # 1.00000762939453125: a tie, to even
    (1 + 3 * 2.0 ** -17, False, "1.0000228881835938"),  # 1.00002288818359375: a tie, to even
    (1e23, True, "1e+23"),  # 10**23 is exactly on the rounding interval's boundary
    (9007199254740993.0, True, "9007199254740992.0"),
    (5e-324, True, "5e-324"),
    (1.7976931348623157e308, False, "1.7976931348623157e+308"),
])
def test_ties_and_boundaries(value, shortest, text):
    assert _kernel_lines([value], shortest) == _cpython_lines([value], shortest)
    assert (repr(value) if shortest else "%.17g" % value) == text


@pytest.fixture
def fallbacks(monkeypatch):
    """The values the kernel leaves to CPython, recorded as it runs."""
    seen = []
    fallback = numtext._fallback

    def record(out, rows, texts, at):
        texts = list(texts)
        seen.extend(texts)
        return fallback(out, rows, texts, at)

    monkeypatch.setattr(numtext, "_fallback", record)
    return seen


def test_zeros_and_powers_of_ten_need_no_fallback(fallbacks):
    """Zeros and the powers of ten up to 1e15, whose y is exact, stay in the
    kernel; from 1e16 the product by 10**p is not exact, and a power of ten
    may go to CPython, but its text is CPython's either way."""
    values = [0.0, -0.0, *(10.0 ** k for k in range(16)), *(-(10.0 ** k) for k in range(16)), 0.5, 0.25, 2.0]
    for shortest in (True, False):
        assert _kernel_lines(values, shortest) == _cpython_lines(values, shortest)
    assert fallbacks == []
    large = [*(10.0 ** k for k in range(16, 23)), *(-(10.0 ** k) for k in range(16, 23))]
    for shortest in (True, False):
        assert _kernel_lines(large, shortest) == _cpython_lines(large, shortest)


def test_refused_values_go_to_cpython(fallbacks):
    values = [1e300, 5e-324, 1e-300, 1 + 2.0 ** -17]
    assert _kernel_lines(values, False) == _cpython_lines(values, False)
    assert fallbacks == ["%.17g" % v for v in values]


def test_a_refused_value_inside_a_block(fallbacks):
    values = np.linspace(0.1, 1000.0, BLOCK_VALUES)
    values[BLOCK_VALUES // 2] = -1e-310
    for shortest in (True, False):
        assert _kernel_lines(values, shortest) == _cpython_lines(values.tolist(), shortest)
    assert fallbacks == [repr(-1e-310), "%.17g" % -1e-310]


@pytest.mark.parametrize("values", [[], [math.nan, math.inf, -math.inf, -0.0]], ids=["empty", "non_finite"])
def test_empty_and_non_finite_columns(values):
    for shortest in (True, False):
        assert _kernel_lines(values, shortest) == _cpython_lines(values, shortest)


def test_the_text_is_the_rows_with_their_nuls_dropped():
    cells = repr_text(np.array([-1.5, 2.0, 1e-7]))
    assert cells.dtype == np.uint8 and cells.ndim == 2
    assert [bytes(row).replace(b"\0", b"") for row in cells] == [b"-1.5", b"2.0", b"1e-07"]


@pytest.mark.parametrize("values", [
    [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 9999, 10000, 10001],
    list(range(0, 130)),
    [7, 10 ** 15 + 3, 10 ** 16 - 1, 10 ** 16, 2 ** 62, -1, -12345],
    [],
    [5, -1234567890123],
], ids=["decades", "0_to_129", "large_and_negative", "empty", "fallback_widens_the_cells"])
def test_int_text_matches_percent_d(values):
    cells = int_text(np.array(values, dtype=np.int64))
    assert [bytes(row).replace(b"\0", b"").decode() for row in cells] == ["%d" % v for v in values]


def test_the_power_table_is_built_on_first_use():
    numtext._tables.cache_clear()
    assert numtext._tables.cache_info().currsize == 0
    assert _kernel_lines([math.pi], True) == b"[3.141592653589793]"
    assert numtext._tables.cache_info().currsize == 1


# Rows that the kernel's rare steps patch: exponent notation, repr's ".0",
# zeros, the decades where y reaches 10**17, and the values left to CPython
_EXPONENT = st.one_of(st.floats(1e-300, 9.99e-5), st.floats(1e17, 1e300), st.sampled_from([1e-5, 1e16, 1e22, 5e-324]))
_RARE = st.one_of(_EXPONENT, st.integers(-2 ** 53, 2 ** 53).map(float),
                  st.sampled_from([0.0, -0.0, 1e16, 1e17, 9999999999999998.0, 99999999999999999.0, 1e-280, 1e280,
                                   9.999999999999999e279, 2.2250738585072014e-308, 1e-310, 1e-4, 0.0001, 1e15]))
_COMMON = st.floats(1e-3, 1e3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rare_rows_among_common_ones(data):
    """Blocks of common values with rare rows drawn in, exponent rows first
    and last: every row is CPython's text, in both formats."""
    n = data.draw(st.integers(2, 300))
    values = data.draw(st.lists(_COMMON, min_size=n, max_size=n))
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=30)):
        values[i] = data.draw(_RARE)
    values[0], values[-1] = data.draw(_EXPONENT), data.draw(_EXPONENT)
    values = [-v if flip else v for v, flip in zip(values, data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))]
    x = np.array(values)
    for kernel, fmt in ((repr_text, repr), (g17_text, "%.17g".__mod__)):
        assert [bytes(row).replace(b"\0", b"").decode() for row in kernel(x)] == list(map(fmt, values))


def _row_by_row(parts, n, sep=b""):
    """What ``write_rows(fh, parts, n, sep)`` writes, formatted one value at a
    time by CPython; a ``_live_text`` cell is empty on a row that is not live."""
    fmt = {repr_text: repr, g17_text: "%.17g".__mod__, int_text: "%d".__mod__, scene._live_text: "%.17g".__mod__}
    rows = []
    for i in range(n):
        cells = []
        for part in parts:
            if isinstance(part, bytes):
                cells.append(part)
            elif part[0] is scene._live_text and not part[2][i]:
                cells.append(b"")
            else:
                cells.append(fmt[part[0]](part[1][i].item()).encode("ascii"))
        rows.append(b"".join(cells))
    return sep.join(rows)


def _written(parts, n, sep=b""):
    buf = io.BytesIO()
    write_rows(buf, parts, n, sep)
    return buf.getvalue()


def _runs(rng, n, values):
    """n values in runs of 1 to 40 equal rows, each run a value of ``values``."""
    lengths = rng.integers(1, 41, n)
    return np.repeat(rng.choice(values, len(lengths)), lengths)[:n]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 2671, 24011, BLOCK_VALUES // 3 + 5, 3 * BLOCK_VALUES + 11])
def test_write_rows_with_run_parts(n):
    """Parts in runs of equal rows, among parts without, of the same and of
    other functions: the bytes are those of formatting every row, however
    the runs meet the block edges (a block of these parts is
    BLOCK_VALUES // 3 rows). The fixed sizes 2671 and 24011 keep their
    seeded data whatever BLOCK_VALUES is; the last two sizes follow it."""
    rng = np.random.default_rng(n)
    distinct = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
    stepped = _runs(rng, n, rng.standard_normal(50))
    flat = np.full(n, 2.5)
    ints = _runs(rng, n, np.arange(-3, 1000)).astype(np.int64)
    parts = [(repr_text, stepped), b",", (repr_text, distinct), b";", (repr_text, flat), b" ", (int_text, ints),
             b"|", (g17_text, stepped), b"\n"]
    assert _written(parts, n, b"#") == _row_by_row(parts, n, b"#")
    if n >= 4:
        assert all(fieldio._run_starts((a,), n) is not None for a in (stepped, flat, ints))
        assert fieldio._run_starts((distinct,), n) is None


def test_a_run_across_a_block_edge():
    """A run that starts at row 0, one that spans the edge between the first
    two blocks, and one that ends at the last row."""
    block = BLOCK_VALUES // 2
    n = 2 * block + 9
    column = np.full(n, 1.25)
    column[block - 3:block + 4] = -7.5
    column[-2:] = 1e-9
    other = np.linspace(1.0, 2.0, n)
    parts = [(g17_text, column), b",", (g17_text, other), b"\n"]
    assert fieldio._run_starts((column,), n) is not None
    assert _written(parts, n) == _row_by_row(parts, n)


@pytest.mark.parametrize("column", [[0.0] * 6 + [-0.0] * 6 + [0.0] * 6, [math.nan] * 12, [-0.0, 0.0] + [0.0] * 10,
                                    [math.inf] * 5 + [-math.inf] * 5 + [math.nan] * 5],
                         ids=["zero_next_to_minus_zero", "equal_nans", "minus_zero_first", "non_finite_runs"])
def test_runs_compare_bits(column):
    """Runs are of bit-identical values: 0.0 and -0.0 differ, equal nans do not."""
    column = np.array(column)
    parts = [(repr_text, column), b"\n"]
    assert fieldio._run_starts((column,), len(column)) is not None
    assert _written(parts, len(column)) == _row_by_row(parts, len(column))


def test_an_evanescent_row_splits_a_run_of_eta():
    """rays.csv leaves the efficiency of an evanescent row empty: the live
    mask ends a run of equal eta, so the row inside it is written empty."""
    n = 40
    eta = np.ones(n)
    live = np.ones(n, dtype=bool)
    live[17] = False
    assert np.count_nonzero(fieldio._run_starts((eta, live), n)) == 3
    parts = [(g17_text, np.arange(n, dtype=float)), b",", (scene._live_text, eta, live), b"\n"]
    written = _written(parts, n)
    assert written == _row_by_row(parts, n)
    assert written.split(b"\n")[17] == b"17,"


def _read(tokens, ints=True):
    """The kernel's values and certificates of ``tokens``, read from one comma-separated text."""
    text = b",".join(tokens)
    ends = np.cumsum([len(t) + 1 for t in tokens]) - 1
    return (text, ends - [len(t) for t in tokens], ends), read_floats(text, ends - [len(t) for t in tokens], ends,
                                                                      ints=ints)


def test_reader_matches_float_on_a_million_values():
    """repr(v) and '%.17g' % v of the writers' million values, a block of
    BLOCK_VALUES tokens at a time: the kernel certifies every token in plain
    notation and refuses every one in exponent notation, which goes to float
    as the readers send it, and every value has the bits of float(token)."""
    edge, rest = _million_values()
    values = np.concatenate([edge, rest])
    for fmt in (repr, "%.17g".__mod__):
        tokens = [fmt(v).encode("ascii") for v in values.tolist()]
        plain = np.array([b"e" not in t for t in tokens])
        assert plain.sum() > len(tokens) // 2
        for lo in range(0, len(tokens), BLOCK_VALUES):
            block = tokens[lo:lo + BLOCK_VALUES]
            (text, starts, ends), (got, certified) = _read(block)
            if (certified != plain[lo:lo + BLOCK_VALUES]).any():
                bad = np.flatnonzero(certified != plain[lo:lo + BLOCK_VALUES])[0]
                pytest.fail(f"{block[bad]!r} {'certified' if certified[bad] else 'refused'}")
            got[~certified] = float_tokens(text, starts[~certified], ends[~certified])
            want = values[lo:lo + BLOCK_VALUES]
            if got.tobytes() != want.tobytes():
                bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))[0]
                pytest.fail(f"{block[bad]!r} read as {got[bad]!r}, float gives {want[bad]!r}")


# token, and whether the kernel certifies it: tokens outside the grammar
# (exponent notation among them), and those it cannot decide (exact ties
# between two doubles such as 2**53 + 1), go to float
EDGE_TOKENS = [
    (b"-0", True), (b"0.0", True), (b"-0.0", True), (b"1E5", False), (b"1e+05", False), (b"1e-7", False),
    (b"1e007", False), (b"01", False), (b".5", False), (b"5.", False), (b"+1", False), (b"1_0", False),
    (b" 1", False), (b"1 ", False), (b"nan", False), (b"inf", False), (b"-", False), (b"", False), (b"1e", False),
    (b"1.5.2", False), (b"1e5.2", False), (b"1-2", False), (b"1e5e3", False),
    (b"12345678901234567890", False), (b"1234567890123456789", True), (b"0.000000000000000000001", True),
    (b"1e23", False), (b"9007199254740993", False), (b"9007199254740992", True), (b"5e-324", False),
    (b"2.2250738585072009e-308", False), (b"1.7976931348623157e308", False), (b"1e309", False),
    (b"-0.00012345678901234567", True), (b"123456789012345678901234", False),
    (b"100000000000000000000000.5", False),  # 26 bytes: the window holds 0000000000000000000000.5
    (b"1e5.", False),  # a point after the "e"
    (b"8999999999999999999e297", False), (b"9999999999999999999e300", False),
    (b"0.0000000000000000000001", True),  # 24 bytes: k = -22, the least a token in the grammar has
    (b"18446744073709551615", False), (b"18446744073709551615.5", False),  # M of 20 digits, near 2**64
    # exact ties between adjacent doubles (spacing 0.125), which a reader
    # without the _READ_MARGIN certificate rounds the wrong way: float rounds them to even
    (b"791063134009679.9375", False), (b"-575768912037131.9375", False), (b"842522472762870.4375", False),
    (b"eee", False), (b"1eee", False),  # several "e"s, last in the one-block test
]


@pytest.mark.parametrize("token, certified", EDGE_TOKENS, ids=[t.decode() or "empty" for t, _ in EDGE_TOKENS])
def test_reader_edge_tokens(token, certified):
    (text, starts, ends), (got, ok) = _read([b"7", token, b"-3.25"])
    assert ok.tolist() == [True, certified, True]
    assert got[[0, 2]].tolist() == [7.0, -3.25]
    if certified:
        assert got[1].tobytes() == np.float64(float(token)).tobytes()


def test_reader_edge_tokens_in_one_block():
    tokens = [t for t, _ in EDGE_TOKENS]
    (text, starts, ends), (got, ok) = _read(tokens)
    assert ok.tolist() == [c for _, c in EDGE_TOKENS]
    for token, value in zip(compress(tokens, ok), got[ok].tolist()):
        assert np.float64(value).tobytes() == np.float64(float(token)).tobytes(), token


@pytest.mark.parametrize("token", [b"eee", b"1eee", b"e" * 24, b"1e" * 12, b"-" + b"e" * 23])
def test_reader_refuses_many_e_at_the_end_of_the_text(token):
    """A token with several "e"s, last in the text: the window of its
    mantissa stays inside the text and the token is refused."""
    (_, _, _), (got, ok) = _read([b"7", token])
    assert ok.tolist() == [True, False] and got[0] == 7.0


def test_reader_without_ints_refuses_int_tokens():
    (_, _, _), (got, ok) = _read([b"-0", b"5", b"1e5", b"100000.0", b"5.0", b"-0.0"], ints=False)
    assert ok.tolist() == [False, False, False, True, True, True]
    assert got[3:].tolist() == [1e5, 5.0, -0.0] and np.signbit(got[5])


def test_byte_flag_counts_and_places():
    """How many bytes of each 24-byte window are set, and the sum of their
    places, for windows with no, one, several and all 24 bytes set."""
    rng = np.random.default_rng(5)
    flags = rng.random((200, 24)) < rng.random((200, 1))
    flags[:3] = [np.zeros(24, bool), np.ones(24, bool), np.arange(24) == 23]
    windows = np.ascontiguousarray(flags.reshape(200, 3, 8).transpose(1, 0, 2)).reshape(3, 1600)
    count, place = numtext._count_and_place(windows, np.empty((3, 200), dtype=np.uint64))
    assert count.tolist() == flags.sum(axis=1).tolist()
    one = count == 1
    assert place[one].tolist() == np.argmax(flags[one], axis=1).tolist()


def test_reader_needs_no_numpy_2_function(monkeypatch):
    """The reader runs on the numpy versions the package declares (>= 1.23):
    here without np.bitwise_count, which numpy 2.0 added."""
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    tokens = [t for t, _ in EDGE_TOKENS]
    (_, _, _), (got, ok) = _read(tokens)
    assert ok.tolist() == [c for _, c in EDGE_TOKENS]
    assert got[ok].tobytes() == np.array([float(t) for t in compress(tokens, ok)]).tobytes()


def _production_blocks(tmp_path, monkeypatch):
    """The largest block each block reader reads of a 16 001-sample field and
    its rays.csv, as the writers write them, and the ``read_floats``
    arguments its reader passes: {"field": (block, (args, kwargs)), "rays": ...}."""
    field = record(Wave.diverging(Vec3(-30, 0, -40), LAM), Wave.converging(Vec3(0, 0, 80), LAM),
                   SurfaceProfile.sphere_cap(50.0, 10.0), PolarGrid(100, 160))
    assert len(field) == 16_001
    fieldio.save_field(field, tmp_path / "field.json")
    scene.write_rays_csv(scene.trace_field(field, Wave.plane(Vec3(0, 0, 1), LAM)), tmp_path / "rays.csv")
    blocks = {}
    for name, module, reader, path in [("field", fieldio, "_saved_samples", "field.json"),
                                       ("rays", scene, "_plain_rows", "rays.csv")]:
        seen = []
        read_block, kernel = getattr(module, reader), module.read_floats

        def spy_block(block, read_block=read_block, seen=seen):
            seen.append([block])
            return read_block(block)

        def spy_kernel(*args, kernel=kernel, seen=seen, **kwargs):
            seen[-1].append((args, kwargs))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(module, reader, spy_block)
        monkeypatch.setattr(module, "read_floats", spy_kernel)
        (fieldio.load_field if name == "field" else scene.read_rays_csv)(tmp_path / path)
        monkeypatch.undo()
        blocks[name] = max(seen, key=lambda b: len(b[0]))
        assert len(blocks[name][0]) > module.READ_BLOCK_BYTES - 1024
    return blocks


def test_reader_memory_budget(tmp_path, monkeypatch):
    """On a block of READ_BLOCK_BYTES of each file format, read_floats holds
    at most 109 bytes a token and _saved_samples at most 119; and a block
    and all its reader holds while it reads it stay under the heap's 1 MiB
    thresholds, so that the block sizes cannot outgrow the heap unnoticed
    and a file read block after block gets no memory mapped or trimmed."""
    blocks = _production_blocks(tmp_path, monkeypatch)
    for name, (block, (args, kwargs)) in blocks.items():
        tokens = len(args[1])
        peak = traced_peak(lambda: read_floats(*args, **kwargs))
        assert peak / tokens <= 109, f"read_floats held {peak / tokens:.0f} bytes a token on a {name} block"
    block, ((_, starts, _), _) = blocks["field"]
    peak = traced_peak(lambda: fieldio._saved_samples(block))
    assert peak / len(starts) <= 119, f"_saved_samples held {peak / len(starts):.0f} bytes a token"
    for name, read in [("field", fieldio._saved_samples), ("rays", scene._plain_rows)]:
        block = blocks[name][0]
        whole = len(block) + traced_peak(lambda: read(block))
        assert whole < heap.MALLOC_THRESHOLD_BYTES, f"a {name} block of {len(block)} bytes peaked at {whole} bytes"


def _combiner_writes(tmp_path):
    """The four writes of a 16 001-sample run of combiner_deformed.json, as
    the benchmark's bent combiner makes them, and the columns they format."""
    doc = json.loads((SRC / "hoedeform" / "configs" / "combiner_deformed.json").read_text())
    doc["recording"]["grid"].update(n_s=100, n_phi=160)
    (tmp_path / "scene.json").write_text(json.dumps(doc))
    cfg = load_scene_config(tmp_path / "scene.json")
    field = record(cfg.recording.w1, cfg.recording.w2, cfg.recording.carrier, cfg.recording.grid)
    assert len(field) == 16_001
    deformed = induce_forward(field, cfg.deformation.target_profile, cfg.deformation.projection)
    trace = scene.trace_field(deformed, cfg.probe)
    planes = [scene.intersect_plane(trace.rays(), z) for z in cfg.analysis.detector_z_mm]
    writes = {"field": lambda: fieldio.save_field(field, tmp_path / "field.json"),
              "deformed field": lambda: fieldio.save_field(deformed, tmp_path / "deformed.json"),
              "rays": lambda: scene.write_rays_csv(trace, tmp_path / "rays.csv"),
              "hits": lambda: scene.write_hits_csv(planes, tmp_path / "hits.csv")}
    columns = {"field": (deformed.s, deformed.phi, *deformed.pos.T, *deformed.g.T),
               "rays": (trace.s, trace.phi, *trace.pos.T, *trace.direction.T)}
    return writes, columns


def test_writer_memory_budget(tmp_path):
    """On blocks of BLOCK_VALUES values of a field and of rays, repr_text and
    g17_text hold at most 80 bytes a value; and each writer's whole-block
    peak (the kernel, the block's text and the rows it writes) at 16 001
    samples stays under the heap's 1 MiB thresholds, so that BLOCK_VALUES
    cannot outgrow the heap unnoticed."""
    writes, columns = _combiner_writes(tmp_path)
    repr_text(np.ones(1))  # the tables, built once
    for name, cols in columns.items():
        values = np.concatenate(cols)
        for lo in (0, len(values) // 2, len(values) - BLOCK_VALUES):
            block = values[lo:lo + BLOCK_VALUES].copy()
            for kernel in (repr_text, g17_text):
                peak = traced_peak(lambda: kernel(block))
                assert peak / BLOCK_VALUES <= 80, f"{kernel.__name__} held {peak / BLOCK_VALUES:.0f} bytes a value"
    for name, write in writes.items():
        write()
        peak = traced_peak(write)
        assert peak < heap.MALLOC_THRESHOLD_BYTES, f"writing the {name} peaked at {peak} bytes"


def _decade_values() -> np.ndarray:
    """Every power of ten from 1e-280 to 1e280 and its neighbours, the powers
    of two between, and values whose y lies next to 1e16 and 1e17."""
    tens = np.array([float(f"1e{k}") for k in range(-280, 281)])
    twos = np.ldexp(1.0, np.arange(-930, 931))
    edges = np.array([float(f"{m}e{k}") for k in range(-280, 264) for m in ("9.9999999999999999", "9.999999999999999",
                                                                             "1.0000000000000001", "1.000000000000001")])
    base = np.concatenate([tens, twos, edges])
    base = np.concatenate([base, np.nextafter(base, 0.0), np.nextafter(base, np.inf)])
    return base[(base >= 1e-280) & (base <= 1e280)]


def test_decade_step_against_exact_decades():
    """The decade from log10, with the redo step, gives y = |x| * 10**p in
    [1e16, 1e17) with p = 16 - floor(log10 |x|) exactly (Decimal's exact
    exponent) on every row the kernel keeps, and it keeps every value below
    1e16; and the kernel's text of all these values is repr's and '%.17g''s."""
    values = _decade_values()
    kernel = np.ones(len(values), dtype=bool)
    whole, _, index = numtext._scale17(values.copy(), kernel)
    assert kernel[values < 1e16].all()
    assert ((whole[kernel] >= 10 ** 16) & (whole[kernel] < 10 ** 17)).all()
    exact = [16 - Decimal(v).adjusted() for v in values[kernel].tolist()]
    assert (index[kernel] + numtext._P_MIN).tolist() == exact
    for shortest in (True, False):
        assert _kernel_lines(values, shortest) == _cpython_lines(values.tolist(), shortest)


@pytest.mark.parametrize("low, bound", [(False, 3.5), (True, 8.5)], ids=["writer", "reader"])
def test_double_double_product_against_exact_arithmetic(low, bound):
    """hi + lo of (a + low) * 10**p (``_dd_product``) against Fraction's exact
    value, for every p of the power table and seeded mantissas: within the
    error bound of ``_MARGIN``'s comment without a low term (3.5 * 2**-106
    of the value; the writers' y, in [1e16, 1e17)) and within that of
    ``_READ_MARGIN``'s with one (8.5 * 2**-106; values from 1e-5 to 1e19, a
    low term of up to half the spacing of a, as the reader's M_lo)."""
    rng = np.random.default_rng(21)
    p = np.repeat(np.arange(numtext._P_MIN, numtext._P_MAX + 1), 8)
    y = 10.0 ** rng.uniform(-5, 19, len(p)) if low else rng.uniform(1e16, 1e17, len(p))
    a = y / 10.0 ** p
    lows = np.spacing(a) * rng.uniform(-0.5, 0.5, len(p)) if low else np.zeros(len(p))
    hi, lo = numtext._dd_product(a, p - numtext._P_MIN, lows.copy() if low else None)
    for a_, low_, p_, hi_, lo_ in zip(a.tolist(), lows.tolist(), p.tolist(), hi.tolist(), lo.tolist()):
        exact = (Fraction(a_) + Fraction(low_)) * Fraction(10) ** p_
        assert abs(Fraction(hi_) + Fraction(lo_) - exact) <= Fraction(bound) / 2 ** 106 * exact, (a_, low_, p_)


def test_import_builds_no_tables():
    """A fresh ``import hoedeform`` leaves the kernel's tables unbuilt: they
    cost milliseconds, which would go to every run's start-up time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    probe = "import hoedeform; from hoedeform import numtext; print(numtext._tables.cache_info().currsize)"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0"]
