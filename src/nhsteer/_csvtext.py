"""CSV text of float blocks, every cell byte-identical to ``repr(float(v))``.

Python's ``repr`` of a float is the shortest decimal string that reads back
as the same float, the one nearest the float when several are that short
(David Gay's mode 0), in fixed notation when its decimal exponent is -4 to
15 and in exponent notation otherwise.  ``csv_block`` computes that text for
a block of cells with array arithmetic, after Steele & White (1990), "How to
print floating-point numbers accurately", and Adams (2018), "Ryu: fast
float-to-string conversion":

1. A cell x in [1e-290, 1e290) is scaled to y = x 10^k in [1e16, 1e17),
   k = 16 - e, e = floor(log10 x) (corrected where log10 rounds across a
   power of ten).  10^k is the double-double hi + lo of two normal doubles,
   rounded from exact integers, and y = p + err: Dekker's exact product
   x hi = p + err0, and err = err0 + x lo.  For k = 0 ... 22, 10^k is a
   double, lo = 0 and y is exact.  Otherwise hi + lo is within 2^-106 of
   10^k, and rounding x lo (at most 12 units of the 17th digit) and its sum
   with err0 (at most 8) adds at most 2^-53 of each, so y is within 2^-100 y,
   under 1e-13 units of the 17th digit, and the scaled half-ulp of step 2,
   computed with hi, within 2e-15 units: far inside the 1e-9 margin below.
2. The nearest 15-, 16- and 17-digit decimals are the multiples of 100, 10
   and 1 nearest y.  The shortest of them closer to y than half an ulp of x,
   scaled like y, reads back as x and is the text's digits, trailing zeros
   dropped.  A shorter string that reads back is, padded with zeros, the
   15-digit one.
3. The digits, a '.', the sign and the separator are laid out in a fixed
   32-byte row per cell in which every byte not in the text is NUL, and the
   rows are joined by dropping the NULs.  The exponent suffix, such as 'e-05'
   or 'e+100', is put into exponent-notation rows by one scatter per block.

``repr`` itself writes every cell the arithmetic does not decide: within
1e-9 of a rounding tie or of the half-ulp bound, a power of two (whose ulp
below is half the ulp above), nan, inf, and any nonzero |x| outside
[1e-290, 1e290), subnormals among them.  ``repr`` stays the only definition
of a cell.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["csv_block"]

_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two halves
_UNSURE = 1e-9  # nearer a tie or the half-ulp bound, in units of the 17th digit, repr decides
_LO, _HI = 1e-290, 1e290  # 10^(16-e) and its lo part stay normal doubles for e = -292 ... 292
_E = 292  # the tables of 10^(16-e) and of exponent suffixes are indexed by e + _E
# A cell's row is 32 bytes, four little-endian words: E = '0000000' D0 .. D16,
# the 17 digits behind seven zeros, with '.' inserted before E[dot], dot = e + 8,
# so that the integer part is E[start:dot] ('0' for e < 0) and the fraction
# E[dot:end]; the sign, if any, in byte 0 and the separator in byte 31.  Every
# other byte is NUL and is dropped when the rows are joined.  In exponent
# notation E is moved a word down, to D0 in byte 3, '.' (if more digits follow)
# in byte 4 and the other digits from byte 5 on, leaving bytes 4 + ndig ... 30
# for the suffix.
_ROW = 32
_DOTS, _DIGITS = 25, 18  # fixed notation: dot = e + 8 in 4 ... 23; dot 24 is exponent notation; 1 <= ndig <= 17


@functools.cache
def _tables():
    """Per e = -292 ... 292 the row (hi, the Dekker halves of hi, lo) of
    10^(16-e) = hi + lo, the exponent suffixes, the four-digit words (as the
    low and the high half of a word), the trailing zeros of four digits, and
    the layout words of a row by dot, digit count, sign and separator, built
    on the first call."""
    hi_lo = []
    for e in range(-_E, _E + 1):  # 10^(16-e) = P / Q; int / int rounds correctly
        P, Q = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        num, den = (P / Q).as_integer_ratio()
        hi_lo.append((num / den, (P * den - num * Q) / (Q * den)))
    pow10, pow10_dd = np.array(hi_lo).T.copy()
    mantissa, exponent = np.frexp(pow10)  # split the mantissa, so that 10^308 * _SPLIT cannot overflow
    pow10_hi = np.ldexp(mantissa * _SPLIT - (mantissa * _SPLIT - mantissa), exponent)
    suffixes = np.frombuffer(b"".join((b"e%+03d" % e).ljust(5, b"\0") for e in range(-_E, _E + 1)), dtype=np.uint8)
    quads = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), dtype="<u4").astype("<u8")
    trailing = np.array([4] + [len(s) - len(s.rstrip("0")) for s in map(str, range(1, 10000))])
    pos = np.arange(_ROW)
    expo = (np.arange(_DOTS) == _DOTS - 1)[:, None, None]
    dot = np.where(expo, 4, np.arange(_DOTS)[:, None, None])
    ndig = np.arange(_DIGITS)[None, :, None]
    start = np.where(dot > 7, 7, dot - 1)
    end = np.where(expo, 3 + ndig, np.maximum(7 + ndig, dot + 1))
    point = (pos == dot) & ~(expo & (ndig == 1))
    # per (dot, ndig, sign, separator): the bytes kept of E, of E shifted one
    # byte up, and the marks put in
    layout = np.zeros((_DOTS, _DIGITS, 2, 2, 3, _ROW), dtype=np.uint8)
    layout[..., 0, :] = 255 * ((pos >= start) & (pos < dot))[:, :, None, None]
    layout[..., 1, :] = 255 * ((pos > dot) & (pos <= end))[:, :, None, None]
    layout[..., 2, :] = np.where(point, ord("."), 0)[:, :, None, None]
    layout[:, :, 1, :, 2, 0] = ord("-")
    layout[..., 2, _ROW - 1] = (ord(","), ord("\n"))
    words = np.ascontiguousarray(layout.reshape(-1, 3, _ROW).transpose(1, 0, 2)).view("<u8")
    powers = np.stack((pow10, pow10_hi, pow10 - pow10_hi, pow10_dd), axis=1)
    return powers, suffixes.reshape(-1, 5), quads, quads << 32, trailing, words


def _scaled(x, i):
    """(hi, p, err), e = i - _E: hi is 10^(16-e) rounded, and p + err is
    x 10^(16-e), exact for e = -6 ... 16 (Dekker's product), within 2^-100 of
    it otherwise."""
    b, b_hi, b_lo, b_dd = _tables()[0].take(i, axis=0).T
    p = x * b
    t = x * _SPLIT
    x_hi = t - (t - x)
    x_lo = x - x_hi
    return b, p, ((x_hi * b_hi - p) + x_hi * b_lo + x_lo * b_hi) + x_lo * b_lo + x * b_dd


def _shortest(x):
    """(q, r, e, unsure) for x in [_LO, _HI): the digits of 100 q + r, which
    has 17 (or 18 after a carry, r = 100), trailing zeros dropped, are the
    shortest that read back as x = D0.D1... 10^e; ``unsure`` marks the cells
    that repr must decide."""
    i = np.floor(np.log10(x)).astype(np.intp) + _E
    b, p, err = _scaled(x, i)
    below = (p - 1e16) + err < 0.0
    fix = np.flatnonzero(below | ((p - 1e17) + err >= 0.0))
    if len(fix):  # log10 rounded across a power of ten
        i[fix] += np.where(below[fix], -1, 1)
        b[fix], p[fix], err[fix] = _scaled(x[fix], i[fix])
    whole = np.floor(err)
    n = p.astype(np.int64) + whole.astype(np.int64)
    q = n // 100
    g = (n - 100 * q).astype(float) + (err - whole)  # y mod 100
    mantissa, exponent = np.frexp(x)
    half_ulp = np.ldexp(b, exponent - 54)
    d15 = np.minimum(g, 100.0 - g)
    g16 = g - np.floor(g / 10.0) * 10.0
    d16 = np.minimum(g16, 10.0 - g16)
    f = g16 - np.floor(g16)
    step = 1.0 + 9.0 * (d16 < half_ulp) + 90.0 * (d15 < half_ulp)
    r = np.rint(g / step) * step
    margin = np.minimum(np.abs(d15 - half_ulp), np.abs(d16 - half_ulp))
    np.minimum(margin, np.abs(d16 - 5.0), out=margin)
    np.minimum(margin, np.abs(f - 0.5), out=margin)
    return q.astype(float), r, i - _E, (margin < _UNSURE) | (mantissa == 0.5)


def csv_block(cells: np.ndarray, last: np.ndarray) -> str:
    """The CSV text of ``cells``, float64 in row order, where ``last`` marks the
    last cell of each row: ``repr`` of every cell, ',' after a cell and a
    newline after a last one."""
    *_, suffixes, quads, quads_hi, trailing, layout = _tables()
    x = np.abs(cells)
    fast = (x >= _LO) & (x < _HI)
    q, r, e, unsure = _shortest(np.where(fast, x, 1.0))
    carry = r == 100.0
    q += carry
    r[carry] = 0.0
    carry = q == 1e15
    q[carry] = 1e14
    e += carry
    zero = np.flatnonzero(x == 0.0)
    q[zero] = r[zero] = e[zero] = 0
    fast &= ~unsure
    fast[zero] = True
    fixed = (e >= -4) & (e <= 15)
    # the 17 digits of 100 q + r: the first in t, then four chunks of four
    chunks = np.empty((4, len(x)), dtype=np.intp)
    t = np.floor(q / 100.0)
    chunks[3] = (q - t * 100.0) * 100.0 + r
    for i in (2, 1, 0):
        s = np.floor(t / 1e4)
        chunks[i] = t - s * 1e4
        t = s
    ndig = 17 - trailing.take(chunks[3])
    for i in (2, 1, 0):
        more = np.flatnonzero(ndig == 4 * i + 5)
        if not len(more):
            break
        ndig[more] -= trailing.take(chunks[i, more])
    ndig[zero] = 1
    rows = np.empty((len(x), _ROW // 8), dtype="<u8")  # E, then the text
    np.bitwise_or(quads[0], quads_hi.take(t.astype(np.intp)), out=rows[:, 0])
    np.bitwise_or(quads.take(chunks[0]), quads_hi.take(chunks[1]), out=rows[:, 1])
    np.bitwise_or(quads.take(chunks[2]), quads_hi.take(chunks[3]), out=rows[:, 2])
    rows[:, 3] = 0
    expo = np.flatnonzero(fast & ~fixed)
    if len(expo):
        half = rows.view("<u4")
        half[expo, :7] = half[expo, 1:]
    digits = rows.ravel()
    shifted = digits << 8  # E a byte up
    shifted[1:] |= digits[:-1] >> 56
    dot = np.where(fixed, e + 8, _DOTS - 1)
    kind = ((dot * _DIGITS + ndig) * 2 + np.signbit(cells)) * 2 + last
    keep, keep_shifted, marks = layout
    digits &= keep.take(kind, axis=0).ravel()
    shifted &= keep_shifted.take(kind, axis=0).ravel()
    digits |= shifted
    digits |= marks.take(kind, axis=0).ravel()
    raw = rows.view(np.uint8).ravel()
    if len(expo):
        raw[(expo * _ROW + 4 + ndig[expo])[:, None] + np.arange(5)] = suffixes[e[expo] + _E]
    slow = np.flatnonzero(~fast)
    if len(slow):  # each row becomes repr's text, then the separator
        raw.reshape(-1, _ROW)[slow, : _ROW - 1] = 0
        texts = [repr(v) for v in cells[slow].tolist()]
        size = np.array([len(text) for text in texts])
        ends = np.cumsum(size)
        at = np.repeat(slow * _ROW - (ends - size), size) + np.arange(ends[-1])
        raw[at] = np.frombuffer("".join(texts).encode(), dtype=np.uint8)
    return rows.tobytes().translate(None, b"\0").decode("ascii")
