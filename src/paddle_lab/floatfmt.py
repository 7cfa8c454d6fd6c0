"""Exact vectorized `"%.17e"` formatting of float64 arrays, as bytes.

`format_e17(values)` returns a NUL-padded uint8 matrix whose row k, with
its NUL bytes dropped, is `("%.17e" % values[k]).encode()`: the same bytes,
not an approximation of them. `%` runs a correctly rounded binary-to-decimal
conversion per value (Gay, 1990); here one pass of array operations does
the same for every value whose rounding it can prove:

1. The decimal exponent e comes from floor(log10|x|), which can be off by
   one next to a power of ten; the digit count of step 2 shows that, and
   those values are scaled again with e corrected by one.
2. The 18 significant digits D = round(|x| * 10^(17-e)) come from a
   double-double product (Dekker, 1971): 10^p is tabled as hi + lo, and
   |x|*hi is split exactly into p1 + err by Veltkamp splitting, so
   |x|*10^p = p1 + r with p1 an integer and r = err + |x|*lo accurate to
   about 1e-13. D rounds r's fraction to nearest; a fraction within
   TIE_WINDOW of 0.5 is left undecided, unless 0 <= 17-e <= 22: there 10^p
   is an exact double (lo = 0), so r and its fraction are exact and D
   rounds half to even, as `%` does. D never rounds up to 10^18 (a carry
   to the next exponent): no double with a two-digit exponent lies within
   5e-19 below a power of ten, the closest, below 10^-79, is 1.1e-18 off.
3. The characters are gathered from small tables: 4-digit groups of D, the
   "-d.d" head and the exponent, as native 32-bit words of the output rows.

What the kernel cannot prove goes to `%`, once per distinct bit pattern:
nan and the infinities, exponents of three digits (|x| < 1e-99 or
|x| >= 1e100, subnormals included) and the tie window outside
1e-5 <= |x| < 1e18. Zeros and exact powers of ten stay on the fast path.
An array whose values all lie in 1e-99 <= |x| < 1e100 (so no zero) skips
the masks that set the rest aside.
"""
from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

FLOAT_FORMAT = "%.17e"  # 18 significant digits: every float64 round-trips
FIELD_WIDTH = 24        # len("-d.ddddddddddddddddde+dd")
TIE_WINDOW = 2.0**-30   # |fraction - 1/2| below this is decided by %; r is good to ~1e-13
MAX_EXP = 99            # two exponent digits
EXACT_POWER = 22        # 10^p is an exact double for 0 <= p <= 22 (5^22 < 2^53)
# 10^p for p = 17 - e, e in -101..101: the log10 estimate of an exponent in
# -99..99 is off by at most one, and one more on each side is margin
_P_MIN, _P_MAX = 17 - MAX_EXP - 2, 17 + MAX_EXP + 2
_SPLITTER = 2.0**27 + 1.0  # Veltkamp split of a double into two 26-bit halves


@functools.cache
def _tables() -> SimpleNamespace:
    """Powers of ten as double-doubles, and the character tables; built on first use."""
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        scale = 10 ** abs(p)
        h = float(scale) if p >= 0 else 1 / scale  # int division rounds correctly
        num, den = h.as_integer_ratio()
        # the exact 10^p - h, rounded once
        lo.append((scale * den - num) / den if p >= 0 else (den - num * scale) / (den * scale))
        hi.append(h)
    hi = np.array(hi)
    c = _SPLITTER * hi
    hi_head = c - (c - hi)

    def words(chars: np.ndarray) -> np.ndarray:
        """Rows of 4 ASCII codes as native uint32 words holding those bytes in order."""
        return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32).ravel()

    n = np.arange(10_000, dtype=np.uint16)  # small temporaries: this runs inside a command
    digits4 = words(48 + np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1))
    # "[-]d.d" for sign s and the first two digits q: index 100*s + q
    q = np.tile(np.arange(100), 2)
    head = words(np.stack([np.repeat([0, ord("-")], 100), 48 + q // 10,
                           np.full(200, ord(".")), 48 + q % 10], axis=1))
    e = np.arange(-MAX_EXP, MAX_EXP + 1)
    exponent = words(np.stack([np.full(e.size, ord("e")),
                               np.where(e < 0, ord("-"), ord("+")),
                               48 + abs(e) // 10, 48 + abs(e) % 10], axis=1))
    tables = SimpleNamespace(hi=hi, lo=np.array(lo), hi_head=hi_head, hi_tail=hi - hi_head,
                             digits4=digits4, head=head, exponent=exponent)
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, e: np.ndarray, t: SimpleNamespace):
    """floor(y) as int64 and the fraction y - floor(y), for y = a * 10^(17-e)."""
    k = 17 - _P_MIN - e
    p1 = a * t.hi.take(k)
    c = _SPLITTER * a
    a_head = c - (c - a)
    a_tail = a - a_head
    hi_head, hi_tail = t.hi_head.take(k), t.hi_tail.take(k)
    # a*hi - p1 exactly (TwoProduct), plus the tail of the power of ten
    r = (((a_head * hi_head - p1) + a_head * hi_tail + a_tail * hi_head) + a_tail * hi_tail
         + a * t.lo.take(k))
    whole = np.floor(r)
    return p1.astype(np.int64) + whole.astype(np.int64), r - whole


def format_e17(values) -> np.ndarray:
    """(n, width) uint8, NUL-padded: row k is the bytes of FLOAT_FORMAT % values[k].

    width is FIELD_WIDTH, or more when a value formatted by `%` (a
    three-digit exponent) is longer.
    """
    t = _tables()
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    # exactly 10^-99 <= |x| < 10^100: each literal is the double nearest its
    # power of ten and lies above it
    fast = (a >= 1e-99) & (a < 1e100)
    every = np.count_nonzero(fast) == v.size  # then no mask is applied below
    if not every:
        a = np.where(fast, a, 1.0)  # the rest run as 1.0: e = 0, and D = 0 below
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, e, t)
    # the digit count of floor(y), not of its rounding, shows whether e was one off
    redo = ((whole < 10**17) | (whole >= 10**18)).nonzero()[0]
    if redo.size:
        e[redo] += np.where(whole[redo] < 10**17, -1, 1)
        whole[redo], frac[redo] = _scaled(a[redo], e[redo], t)
    D = whole + (frac > 0.5)
    undecided = np.abs(frac - 0.5) < TIE_WINDOW
    if not every:
        D *= fast  # 0 off the fast path: right for zeros, % does the rest
        undecided |= ~fast & (v != 0.0)
    slow = undecided.nonzero()[0]
    if slow.size:
        # where 10^(17-e) is an exact double, r and frac are exact: round half to even
        exact = (e[slow] >= 17 - EXACT_POWER) & (e[slow] <= 17)
        if not every:
            exact &= fast[slow]
        tie = slow[exact]
        D[tie] += (frac[tie] == 0.5) & (whole[tie] % 2 == 1)
        slow = slow[~exact]

    words = np.empty((v.size, FIELD_WIDTH // 4), dtype=np.uint32)
    q = D // 10**16
    words[:, 0] = t.head.take(np.signbit(v) * 100 + q)
    # the other 16 digits in 4-digit groups; floor division by a constant is
    # much faster than divmod on int64
    rest = D - q * 10**16
    for j, scale in enumerate((10**12, 10**8, 10**4), start=1):
        group = rest // scale
        rest -= group * scale
        words[:, j] = t.digits4.take(group)
    words[:, 4] = t.digits4.take(rest)
    words[:, 5] = t.exponent.take(e + MAX_EXP)
    out = words.view(np.uint8)
    if slow.size:
        bits, which = np.unique(v[slow].view(np.uint64), return_inverse=True)
        text = np.array([(FLOAT_FORMAT % x).encode() for x in bits.view(np.float64).tolist()])
        text = text.view(np.uint8).reshape(bits.size, -1)
        if text.shape[1] > FIELD_WIDTH:
            out = np.pad(out, ((0, 0), (0, text.shape[1] - FIELD_WIDTH)))
        out[slow] = 0
        out[slow, :text.shape[1]] = text[which]
    return out
