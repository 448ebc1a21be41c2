"""Text tables whose cells print as "%.17g" % x or "%d" % i, byte for
byte, without a format call per value. A float 2**-36 <= |x| < 2**52 is
rounded to 17 digits in uint64 arithmetic: its 53-bit mantissa times
5**s (s <= 27, so 5**s < 2**63) is an exact two-limb product, shifted
right and rounded half to even; the decimal exponent comes from the
truncated quotient. Python formats what is neither such a float, a zero
nor an integer 0 <= i < 10**8. A cell fills fixed slots, 0 in the unused
ones, and the 0 bytes of a block of rows are deleted at once."""

from __future__ import annotations

import numpy as np

_U = np.uint64
_BLOCK = 16384  # values per block, which bounds the slot arrays
_LOW, _HIGH = -36, 51  # the binary exponents of the uint64 path

_TRAILING = np.zeros(10_000, np.uint8)  # the trailing zeros of "%04d" % n
for _k in (10, 100, 1000, 10_000):
    _TRAILING[::_k] += 1
# by k, a mask of the last k + 1 of 8 slots: the digits of "%08d" % i, 10**k <= i < 10**(k + 1)
_KEEP = np.frombuffer(b"".join((b"\xff" * k).rjust(8, b"\0") for k in range(1, 9)), _U)
_TENS = 10 ** np.arange(1, 8, dtype=np.uint32)
# by E - _LOW for x in [2**E, 2**(E+1)): e0 = floor(E log10 2) <= floor(log10 x) <= e0 + 1,
# 5**(16 - e0) in 32-bit halves, and the shift that takes 2m * 5**(16 - e0) to the quotient
_E = range(_LOW, _HIGH + 1)
_E0 = np.array([len(str(2 ** e)) - 1 if e >= 0 else len(str(5 ** -e)) - 1 + e for e in _E])
_POW_HI, _POW_LO = (np.array([f(5 ** (16 - e0)) for e0 in _E0.tolist()], dtype=_U)
                    for f in (lambda p: p >> 32, lambda p: p & 0xFFFFFFFF))
_SHIFT = np.array([37 - e + e0 for e, e0 in zip(_E, _E0)], dtype=_U)
# the first 8 slots of a float by (sign, z, leading digit): "-", then "0." and z - 1 zeros
_HEAD = np.frombuffer(b"".join(b"-"[:sign].ljust(1, b"\0") + b"0.000"[:z + 1 if z else 0]
                               .ljust(6, b"\0") + b"%d" % digit
                               for sign in (0, 1) for z in range(5) for digit in range(10)), _U)
_EXPONENT = np.frombuffer(b"\0" * 40 + b"".join(b"e-%02d\0\0\0\0" % k for k in range(5, 13)), _U)


def _fallback(field: np.ndarray, values: np.ndarray, where, form: str) -> np.ndarray:
    """field with its rows `where` replaced by form % value, left-aligned."""
    text = [(form % v).encode() for v in values[where].tolist()]
    out = np.zeros((len(field), max(field.shape[1], *map(len, text))), np.uint8)
    out[:, :field.shape[1]] = field
    out[where] = np.frombuffer(b"".join(t.ljust(out.shape[1], b"\0") for t in text),
                               np.uint8).reshape(len(text), -1)
    return out


def _digits(q: np.ndarray) -> tuple:
    """The 4-digit groups and the 8k ASCII digits, most significant first,
    of the (n, k) uint32 values q < 10**8."""
    fours = np.stack(np.divmod(q, np.uint32(10_000)), axis=-1).reshape(len(q), -1)
    twos = np.stack(np.divmod(fours.astype(np.uint16), np.uint16(100)), axis=-1).astype(np.uint8)
    ones = np.stack(np.divmod(twos, np.uint8(10)), axis=-1).reshape(len(q), -1)
    return fours, ones + np.uint8(ord("0"))


def _ints(values: np.ndarray) -> np.ndarray:
    """(n, w) slots of "%d" % values[k]."""
    fast = (values >= 0) & (values < 10 ** 8)
    u = np.where(fast, values, 0).astype(np.uint32)
    words = _digits(u[:, None])[1].view(_U).ravel()
    keep = _KEEP.take(np.searchsorted(_TENS, u, side="right"))
    field = (words & keep).view(np.uint8).reshape(len(u), 8)
    return field if fast.all() else _fallback(field, values, ~fast, "%d")


def _floats(x: np.ndarray) -> np.ndarray:
    """(n, 48) slots of "%.17g" % x[k]: sign, "0.000", the leading digit,
    16 digits each behind a slot for the ".", then "e-XX"."""
    bits = x.view(_U)
    index = ((bits >> _U(52)) & _U(0x7FF)) - _U(1023 + _LOW)
    fast = index <= _U(_HIGH - _LOW)
    index = np.where(fast, index, _U(0))
    m = ((bits & _U(2 ** 52 - 1)) | _U(2 ** 52)) << _U(1)
    mh, ml, ph, pl = m >> _U(32), m & _U(0xFFFFFFFF), _POW_HI[index], _POW_LO[index]
    low, mid = ml * pl, ml * ph + mh * pl
    lo = low + (mid << _U(32))
    hi = mh * ph + (mid >> _U(32)) + (lo < low)
    k = _SHIFT[index]
    t = (hi << (_U(64) - k)) | (lo >> k)  # trunc(|x| 10**(16 - e0)): 17 or 18 digits
    rest, half = lo & ((_U(1) << k) - _U(1)), _U(1) << (k - _U(1))
    wide = t >= _U(10 ** 17)
    q, r = np.divmod(t, _U(10))
    d = np.where(wide, q + ((r > _U(5)) | (r == _U(5)) & ((rest > _U(0)) | (q & _U(1) == _U(1)))),
                 t + ((rest > half) | (rest == half) & (t & _U(1) == _U(1))))
    # d < 10**17: no float of the uint64 path lies within 5e-18 (relative)
    # below a power of ten, so none rounds up to the next decade
    zero = x == 0
    d = np.where(zero, _U(0), d)
    e = np.where(zero, 0, _E0[index] + wide)  # the exponent of the leading digit
    lead, low8 = np.divmod(d, _U(10 ** 8))
    lead, high8 = np.divmod(lead, _U(10 ** 8))
    fours, chars = _digits(np.stack([high8, low8], axis=1).astype(np.uint32))
    tz = _TRAILING.take(fours)  # 4 for a group 0000
    zeros = tz[:, 3] + (tz[:, 3] == 4) * (tz[:, 2] + (tz[:, 2] == 4) * (
        tz[:, 1] + (tz[:, 1] == 4) * tz[:, 0]))
    # "%g": fixed for -4 <= e < 17, the "." behind digit `point`; else "d.ddde-XX"
    point = np.where(e < -4, 0, e)
    digits = np.maximum(17 - zeros, point + 1)  # the digits printed
    cell = np.zeros((len(x), 6), _U)
    cell[:, 0] = _HEAD.take((np.signbit(x) * 5 + np.where(point < 0, -point, 0)) * 10
                            + lead.astype(np.intp))
    cell[:, 5] = _EXPONENT.take(np.where(e < -4, -e, 0))
    cell = cell.view(np.uint8)
    cell[:, 9:40:2] = chars
    cell[:, 8:40] *= np.arange(32, dtype=np.uint8) < (2 * digits - 2).astype(np.uint8)[:, None]
    dot = np.flatnonzero((point >= 0) & (digits > point + 1))
    cell.ravel()[dot * 48 + 8 + 2 * point[dot]] = ord(".")
    return cell if (fast | zero).all() else _fallback(cell, x, ~(fast | zero), "%.17g")


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
        n = len(fields[0])
        parts = [np.broadcast_to(lead, (n, len(lead)))]
        for j, end in enumerate(ends):
            parts += [fields[j], np.broadcast_to(end, (n, 1))]
        chunks.append(np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode())
    return "".join(chunks)
