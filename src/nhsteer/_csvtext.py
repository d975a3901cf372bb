"""CSV text of float blocks, every cell byte-identical to ``repr(float(v))``.

Python's ``repr`` of a float is the shortest decimal string that reads back
as the same float, the one nearest the float when several are that short
(David Gay's mode 0), in fixed notation when its decimal exponent is -4 to
15 and in exponent notation otherwise.  ``csv_block`` computes that text for
a block of cells with array arithmetic, after Steele & White (1990), "How to
print floating-point numbers accurately", and Adams (2018), "Ryu: fast
float-to-string conversion":

1. A cell x in [2^-17, 2^56) is scaled to y = x 10^(16-e) in [1e16, 1e17),
   e = floor(log10 x) (corrected where log10 rounds across a power of ten).
   Every power 10^0 ... 10^22 is a double, so Dekker's product gives y
   exactly, as p + err.
2. The nearest 15-, 16- and 17-digit decimals are the multiples of 100, 10
   and 1 nearest y.  The shortest of them closer to y than half an ulp of x,
   scaled like y, reads back as x and is the text's digits, trailing zeros
   dropped.  A shorter string that reads back is, padded with zeros, the
   15-digit one.
3. The digits, a '.', the sign and the separator are laid out in a fixed
   28-byte row per cell in which every byte not in the text is NUL, and the
   rows are joined by dropping the NULs.

``repr`` itself writes every cell the arithmetic does not decide: within
1e-9 of a rounding tie or of the half-ulp bound, a power of two (whose ulp
below is half the ulp above), exponent notation, nan, inf, and any |x|
outside [2^-17, 2^56).  ``repr`` stays the only definition of a cell.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["csv_block"]

_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two halves
_UNSURE = 1e-9  # nearer a tie or the half-ulp bound, in units of the 17th digit, repr decides
_LO, _HI = 2.0**-17, 2.0**56  # every fixed-notation cell lies in between
# A cell's row is 28 bytes, seven little-endian words: E = '0000000' D0 .. D16,
# the 17 digits behind seven zeros, with '.' inserted before E[dot], dot = e + 8,
# so that the integer part is E[start:dot] ('0' for e < 0) and the fraction
# E[dot:end]; the sign, if any, in byte 0 and the separator in byte 27.  Every
# other byte is NUL and is dropped when the rows are joined.
_ROW = 28
_DOTS, _DIGITS = 25, 18  # dot = e + 8 <= 24 for |x| < 2^56; 1 <= ndig <= 17


@functools.cache
def _tables():
    """10^k and its Dekker halves (k = 0 .. 22), the four-digit words, the
    trailing zeros of four digits, and the layout words of a row by dot,
    digit count, sign and separator, built on the first call."""
    pow10 = np.array([float(10**k) for k in range(23)])
    pow10_hi = pow10 * _SPLIT - (pow10 * _SPLIT - pow10)
    quads = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), dtype="<u4")
    trailing = np.array([4] + [len(s) - len(s.rstrip("0")) for s in map(str, range(1, 10000))])
    pos = np.arange(_ROW)
    dot = np.arange(_DOTS)[:, None, None]
    ndig = np.arange(_DIGITS)[None, :, None]
    start = np.where(dot > 7, 7, dot - 1)
    end = np.maximum(7 + ndig, dot + 1)
    # per (dot, ndig, sign, separator): the bytes kept of E, of E shifted one
    # byte up, and the marks put in
    layout = np.zeros((_DOTS, _DIGITS, 2, 2, 3, _ROW), dtype=np.uint8)
    layout[..., 0, :] = 255 * ((pos >= start) & (pos < dot))[:, :, None, None]
    layout[..., 1, :] = 255 * ((pos > dot) & (pos <= end))[:, :, None, None]
    layout[..., 2, :] = np.where(pos == dot, ord("."), 0)[:, :, None, None]
    layout[:, :, 1, :, 2, 0] = ord("-")
    layout[..., 2, _ROW - 1] = (ord(","), ord("\n"))
    words = np.ascontiguousarray(layout.reshape(-1, 3 * _ROW).view("<u4").T)
    return pow10, pow10_hi, pow10 - pow10_hi, quads, trailing, words


def _exact_product(x, b, b_hi, b_lo):
    """x b as the unevaluated sum p + err, exactly (Dekker's product)."""
    p = x * b
    t = x * _SPLIT
    x_hi = t - (t - x)
    x_lo = x - x_hi
    return p, ((x_hi * b_hi - p) + x_hi * b_lo + x_lo * b_hi) + x_lo * b_lo


def _shortest(x):
    """(q, r, e, unsure) for x in [_LO, _HI): the digits of 100 q + r, which
    has 17 (or 18 after a carry, r = 100), trailing zeros dropped, are the
    shortest that read back as x = D0.D1... 10^e; ``unsure`` marks the cells
    that repr must decide."""
    pow10, pow10_hi, pow10_lo, *_ = _tables()
    e = np.floor(np.log10(x)).astype(np.intp)
    k = 16 - e
    p, err = _exact_product(x, pow10.take(k), pow10_hi.take(k), pow10_lo.take(k))
    below = (p - 1e16) + err < 0.0
    fix = np.flatnonzero(below | ((p - 1e17) + err >= 0.0))
    if len(fix):  # log10 rounded across a power of ten
        e[fix] += np.where(below[fix], -1, 1)
        k[fix] = kf = 16 - e[fix]
        p[fix], err[fix] = _exact_product(x[fix], pow10[kf], pow10_hi[kf], pow10_lo[kf])
    whole = np.floor(err)
    n = p.astype(np.int64) + whole.astype(np.int64)
    q = n // 100
    g = (n - 100 * q).astype(float) + (err - whole)  # y mod 100
    mantissa, exponent = np.frexp(x)
    half_ulp = np.ldexp(pow10.take(k), exponent - 54)
    d15 = np.minimum(g, 100.0 - g)
    g16 = g - np.floor(g / 10.0) * 10.0
    d16 = np.minimum(g16, 10.0 - g16)
    f = g16 - np.floor(g16)
    step = 1.0 + 9.0 * (d16 < half_ulp) + 90.0 * (d15 < half_ulp)
    r = np.rint(g / step) * step
    margin = np.minimum(np.abs(d15 - half_ulp), np.abs(d16 - half_ulp))
    np.minimum(margin, np.abs(d16 - 5.0), out=margin)
    np.minimum(margin, np.abs(f - 0.5), out=margin)
    return q.astype(float), r, e, (margin < _UNSURE) | (mantissa == 0.5)


def csv_block(cells: np.ndarray, last: np.ndarray) -> str:
    """The CSV text of ``cells``, float64 in row order, where ``last`` marks the
    last cell of each row: ``repr`` of every cell, ',' after a cell and a
    newline after a last one."""
    *_, quads, trailing, layout = _tables()
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
    fast &= ~unsure & (e >= -4) & (e <= 15)
    fast[zero] = True
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
    digits = np.empty((_ROW // 4, len(x)), dtype="<u4")  # E, and E a byte up
    digits[0] = quads[0]
    digits[1] = quads.take(t.astype(np.intp))
    digits[2:6] = quads.take(chunks)
    digits[6] = 0
    shifted = digits << 8
    shifted[1:] |= digits[:-1] >> 24
    masks = layout.take((((e + 8) * _DIGITS + ndig) * 2 + np.signbit(cells)) * 2 + last, axis=1)
    digits &= masks[:7]
    shifted &= masks[7:14]
    digits |= shifted
    digits |= masks[14:]
    out = digits.T.copy()
    slow = np.flatnonzero(~fast)
    if len(slow):  # each row becomes repr's text, then the separator
        raw = out.view(np.uint8)
        raw[slow, : _ROW - 1] = 0
        texts = [repr(v) for v in cells[slow].tolist()]
        size = np.array([len(text) for text in texts])
        ends = np.cumsum(size)
        at = np.repeat(slow * _ROW - (ends - size), size) + np.arange(ends[-1])
        raw.ravel()[at] = np.frombuffer("".join(texts).encode(), dtype=np.uint8)
    return out.tobytes().translate(None, b"\0").decode("ascii")
