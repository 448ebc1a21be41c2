"""Text tables whose cells print as "%.17g" % x or "%d" % i, byte for
byte, without a format call per value.

A float 2**-80 <= |x| < 2**52 is rounded to 17 digits in uint64
arithmetic. Its sign, binary exponent E and decade pick a row of tables
built lazily. The decade is e0 = floor(E log10 2), or e0 + 1 once |x|
reaches the least float that "%.17g" prints in that decade, so that no
rounding carries into the next one. The row holds 5**(16 - e), e the
decade, in three 32-bit limbs (5**41 < 2**96), shifted so that the
mantissa, itself shifted by the row, times it is an exact product whose
top word is floor(2 |x| 10**(16 - e)); the last bit of that word and the
mantissa's bits below it round half to even. The 17 digits are the
leading one and four groups of four from one divmod by 10**4, each group
four bytes of a 10 000-entry ASCII table, spread to the odd bytes of a
word. One AND with a word mask, picked by the digits "%g" prints and the
place of its ".", keeps those digits and writes the ".". An integer
0 <= i < 10**8 is two groups of the same table. Python formats what is
neither such a float, a zero nor such an integer. A cell fills fixed
slots, 0 in the unused ones, and the 0 bytes of a block of rows are
deleted at once."""

from __future__ import annotations

import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

_U = np.uint64
# values per block, which bounds the slot arrays: a block's uint64 temporaries
# (64 KiB) stay below glibc's default 128 KiB mmap threshold, so that a call
# reuses heap pages rather than mapping and faulting fresh ones
_BLOCK = 8192
_LOW, _HIGH = -80, 51  # the binary exponents of the uint64 path
_M32 = _U(0xFFFFFFFF)


def _place(k: int, symbols: bytes) -> bytes:
    """symbols[d] for d the digit k (0 the thousands) of each of 0 to 9999."""
    return b"".join(bytes([c]) * 10 ** (3 - k) for c in symbols) * 10 ** k


def _row_tables() -> tuple:
    """(slots, least, columns) of the uint64 path.

    slots, by the sign and exponent bits of a float: 2 + sign + 2 (E - _LOW)
    for a binary exponent E of the path, else the sign. least, by slot:
    the bits of the least float that "%.17g" prints in the decade above
    10**e0, e0 = floor(E log10 2) (inf when the binade holds none, and the
    least positive float for slots 0 and 1). columns, of the rows by
    2 slot + (|x| reaches least), for the decade e of the leading digit:
    the three limbs of 5**(16 - e) 2**c; the right shift that takes the
    mantissa times 2**11 to it times 2**b, where b + c + j = 96 and
    2 |x| 10**(16 - e) = mantissa 5**(16 - e) / 2**j; a mask of the
    shifted mantissa's bits below 2**j; 10 (5 sign + z) of the head;
    21 (point + 4) + 4 of the masks; the exponent word "e-XX". Rows 0 to 3
    are +0, the values left to Python, -0 and those again."""
    least = [5e-324] * 2
    rows = [(0, 0, 0, 0, 0, 50 * sign, 88, 0) for sign in (0, 1) for _ in (0, 1)]
    slots = [0] * 2048 + [1] * 2048
    floors = [len(str(2 ** E)) - 1 if E >= 0 else len(str(5 ** -E)) - 1 + E  # floor(E log10 2)
              for E in range(_LOW, _HIGH + 2)]
    for E, e0, above in zip(range(_LOW, _HIGH + 1), floors, floors[1:]):
        near = float(f"1e{e0 + 1}")  # no float of the binade reaches it unless above > e0
        least += 2 * [next(y for y in (math.nextafter(near, 0), near, math.nextafter(near, math.inf))
                           if int(("%.16e" % y).split("e")[1]) > e0) if above > e0 else math.inf]
        pair = []
        for e in (e0, e0 + 1):
            p, j = 5 ** (16 - e), 35 - E + e
            b = max(0, p.bit_length() - j)
            p <<= 96 - j - b
            pair.append((p & 0xFFFFFFFF, p >> 32 & 0xFFFFFFFF, p >> 64, 11 - b,
                         ((1 << max(j, 0)) - 1) << b & 2 ** 64 - 1, 10 * (-e if -4 <= e < 0 else 0),
                         21 * ((e if e >= -4 else 0) + 4) + 4,
                         int.from_bytes(b"e-%02d" % -e if e < -4 else b"", "little")))
        for sign in (0, 1):
            slots[2048 * sign + 1023 + E] = len(rows) // 2
            rows += [row[:5] + (row[5] + 50 * sign,) + row[6:] for row in pair]
    types = [np.uint32] * 3 + [np.uint8, _U, np.int16, np.int16, _U]
    return (np.array(slots, np.uint16), np.array(least).view(_U),
            [np.array(column, t) for column, t in zip(zip(*rows), types)])


@lru_cache(maxsize=None)
def _tables() -> SimpleNamespace:
    """The kernel's tables, built on the first render, not at import, so
    that a process that writes no table does not build them.

    They are built from bytes, and with no numpy loop that rendering does
    not use itself: each other loop pages in more of numpy's code, which
    the resident set of the process would carry."""
    t = SimpleNamespace()
    t.ascii = np.frombuffer(b"".join(_place(k, b"0123456789") for k in range(4)), np.uint8)
    t.ascii = t.ascii.reshape(4, -1).T.copy().view(np.uint32).ravel()  # by g: "%04d" % g
    # by g: the place of its last nonzero digit, 1 to 4, and -16 for 0000, so
    # that 4 k + it, at most over the k-th groups behind the leading digit, is
    # sig, how many of those 16 digits end at their last nonzero one (-4 for none)
    last = [np.frombuffer(_place(k, bytes([240] + [k + 1] * 9)), np.int8) for k in range(4)]
    t.sig = np.maximum(np.maximum(last[0], last[1]), np.maximum(last[2], last[3]))
    # by 21 (point + 4) + sig + 4, the four group words' masks: "%g" prints
    # max(point, sig) digits behind the leading one, and a "." behind digit
    # `point` when a digit follows it (point is 0 in exponent form)
    t.masks = np.frombuffer(b"".join(
        (b"\0\xff" * point + b".\xff" + b"\0\xff" * (sig - point - 1) if 0 <= point < sig
         else b"\0\xff" * max(point, sig)).ljust(32, b"\0")
        for point in range(-4, 17) for sig in range(-4, 17)), _U).reshape(-1, 4)
    # by the digits of 0 <= i < 10**8 less 1: the last of the 8 digits of two groups
    t.keep = np.frombuffer(b"".join((b"\xff" * k).rjust(8, b"\0") for k in range(1, 9)),
                           np.uint32).reshape(-1, 2)
    t.tens = np.array([10 ** k for k in range(1, 8)])
    # the first 8 slots of a float by 10 (5 sign + z) + leading digit: "-",
    # then "0." and z - 1 zeros
    t.head = np.frombuffer(b"".join(
        b"-"[:sign].ljust(1, b"\0") + b"0.000"[:z + 1 if z else 0].ljust(6, b"\0") + b"%d" % digit
        for sign in (0, 1) for z in range(5) for digit in range(10)), _U)
    t.slot, t.least, columns = _row_tables()
    *t.power, t.right, t.sticky, t.head_at, t.point_at, t.exponent = columns
    return t


def _fallback(field: np.ndarray, values: np.ndarray, where, form: str) -> np.ndarray:
    """field with its rows `where` replaced by form % value, left-aligned."""
    text = [(form % v).encode() for v in values[where].tolist()]
    out = np.zeros((len(field), max(field.shape[1], *map(len, text))), np.uint8)
    out[:, :field.shape[1]] = field
    out[where] = np.frombuffer(b"".join(t.ljust(out.shape[1], b"\0") for t in text),
                               np.uint8).reshape(len(text), -1)
    return out


def _ints(values: np.ndarray) -> np.ndarray:
    """(n, w) slots of "%d" % values[k]."""
    t = _tables()
    fast = (values >= 0) & (values < 10 ** 8)
    u = np.where(fast, values, 0)
    high = u // 10_000
    words = t.ascii.take(np.stack([high, u - high * 10_000], axis=1))
    words &= t.keep.take(np.searchsorted(t.tens, u, side="right"), axis=0)
    field = words.view(np.uint8)
    return field if fast.all() else _fallback(field, values, ~fast, "%d")


def _decimal(x: np.ndarray) -> tuple:
    """(row, d): the table row of each x, and d = round(|x| 10**(16 - e))
    with 10**16 <= d < 10**17, or 0 for a zero or a value left to Python."""
    t = _tables()
    bits = x.view(_U)
    slot = t.slot.take((bits >> _U(52)).view(np.int64)).astype(np.intp)
    row = slot + slot + ((bits & _U(2 ** 63 - 1)) >= t.least.take(slot))
    m = ((bits << _U(11)) | _U(2 ** 63)) >> t.right.take(row)  # the mantissa times 2**b
    mh, ml = m >> _U(32), m & _M32
    p0, p1, p2 = (limb.take(row) for limb in t.power)
    x1 = ml * p1 + (ml * p0 >> _U(32))
    x2 = ml * p2 + (x1 >> _U(32))
    y2 = mh * p1 + (x2 & _M32) + ((mh * p0 + (x1 & _M32)) >> _U(32))
    top = mh * p2 + (x2 >> _U(32)) + (y2 >> _U(32))  # floor(2 |x| 10**(16 - e))
    half = top >> _U(1)
    return row, half + (top & (half | np.minimum(m & t.sticky.take(row), _U(1))) & _U(1))


def _floats(x: np.ndarray) -> np.ndarray:
    """(n, 48) slots of "%.17g" % x[k]: sign, "0.000", the leading digit,
    16 digits each behind a slot for the ".", then "e-XX"."""
    t = _tables()
    row, d = _decimal(x)
    lead = d // _U(10 ** 16)
    rest = d - lead * _U(10 ** 16)
    high = rest // _U(10 ** 8)
    halves = np.stack([high, rest - high * _U(10 ** 8)], axis=1).view(np.int64)
    fours = halves // 10_000
    groups = np.stack([fours, halves - fours * 10_000], axis=2).reshape(-1, 4)
    last = [t.sig.take(groups[:, k]) for k in range(4)]
    sig = np.maximum(np.maximum(last[0], last[1] + 4), np.maximum(last[2] + 8, last[3] + 12))
    # the digits in odd bytes, all ones in the even ones, so that an AND
    # with a mask clears a slot or writes "." into it
    words = np.full((len(x), 32), 0xFF, np.uint8)
    words[:, 1::2] = t.ascii.take(groups).view(np.uint8)
    words = words.view(_U)
    words &= t.masks.take(t.point_at.take(row) + sig, axis=0)
    cell = np.concatenate([t.head.take(t.head_at.take(row) + lead.view(np.int64))[:, None], words,
                           t.exponent.take(row)[:, None]], axis=1).view(np.uint8)
    python = (row | 2) == 3
    return _fallback(cell, x, python, "%.17g") if python.any() else cell


def render(columns, sep: str = ",", prefix: str = "", blank=None) -> str:
    """The lines prefix + sep.join(cells) + "\\n" of the rows of the
    equal-length 1-D arrays `columns` (sep is one character): a cell of a
    float column is "%.17g" % x, of an integer or bool column "%d" % i
    (within int64), and empty where the (rows, len(columns)) boolean mask
    blank is set."""
    floating = np.array([np.issubdtype(c.dtype, np.floating) for c in columns])
    kinds = [(picked, dtype, cells_of) for picked, dtype, cells_of in (
        (np.flatnonzero(floating), float, _floats), (np.flatnonzero(~floating), np.int64, _ints))
        if len(picked)]
    lead, ends = (np.frombuffer(text.encode(), np.uint8)
                  for text in (prefix, sep * (len(columns) - 1) + "\n"))
    step, chunks = _BLOCK // len(columns), []
    for start in range(0, len(columns[0]), step):
        rows, fields = slice(start, start + step), {}
        for picked, dtype, cells_of in kinds:
            cells = np.column_stack([columns[j][rows] for j in picked]).astype(dtype, copy=False)
            if blank is not None:  # a blank cell renders as 0, then its slots are cleared
                empty = blank[rows][:, picked]
                cells = np.where(empty, cells.dtype.type(0), cells)
            cells = cells_of(cells.ravel()).reshape(*cells.shape, -1)
            if blank is not None:
                cells = cells * ~empty[..., None]
            fields.update(zip(picked, cells.transpose(1, 0, 2)))
        line = np.empty((len(fields[0]), len(lead) + sum(f.shape[1] + 1 for f in fields.values())),
                        np.uint8)
        line[:, :len(lead)], at = lead, len(lead)
        for j, end in enumerate(ends):
            line[:, at:at + fields[j].shape[1]] = fields[j]
            at += fields[j].shape[1] + 1
            line[:, at - 1] = end
        chunks.append(line.tobytes().translate(None, b"\0").decode())
    return "".join(chunks)
