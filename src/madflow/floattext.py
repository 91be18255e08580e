"""Shortest round-trip text of float64 arrays, vectorized.

`encode_rows(table)` returns, for each row of a 2-D array, the bytes of
`json.dumps(row.tolist(), separators=(",", ":"))[1:-1]`: each float as
CPython's `repr` prints it, joined by commas, with no Python object per
float.  The digits come from Schubfach (R. Giulietti, "The Schubfach way
to render doubles", 2020), which finds the shortest decimal in a double's
rounding interval, and the one closest to it, with integer arithmetic
only: its 126-bit powers of ten are exact integers, and its 126 x 59-bit
products are carried exactly in 32-bit halves of uint64 arrays.  The
text is laid out by `repr`'s rules (positional for a decimal exponent in
[-4, 16), `e+XX`/`e-XX` otherwise, `.0` on an integral value) in 32-byte
rows whose padding is zero bytes, which one `bytes.translate` deletes.

Only finite values have a JSON form here; NaN and infinities raise
ValueError.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_U = np.uint64
_U0, _U1, _U2, _U3, _U4, _U8, _U10, _U32, _U40, _U52, _U56, _U63, _U64 = (
    _U(v) for v in (0, 1, 2, 3, 4, 8, 10, 32, 40, 52, 56, 63, 64))
_E4, _E8, _E16 = _U(10 ** 4), _U(10 ** 8), _U(10 ** 16)
_LOW32, _LOW52, _LOW63 = _U(2 ** 32 - 1), _U(2 ** 52 - 1), _U(2 ** 63 - 1)
_K_MIN, _K_MAX = -324, 292   # floor(log10(2**q)) over the binary exponents q
_NO_DOT = 17                 # the dot position of a row that has none


def _flog2pow10(e):
    """floor(log2(10**e)), exact for |e| <= 6432162."""
    return (e * 913124641741) >> 38


def _field_masks(p: int, q: int) -> tuple[bytes, bytes, bytes]:
    """The 24-byte digit field of a value whose `q` digit slots have a dot
    after the first `p`: which slots keep their own digit, which take the
    digit before them (the dot moved it one slot on) and where the dot
    goes."""
    own, moved, dot = bytearray(24), bytearray(24), bytearray(24)
    for j in range(min(p, q)):
        own[j] = 0xFF
    if q > p:
        dot[p] = ord(".")
        for j in range(p + 1, q + 1):
            moved[j] = 0xFF
    return bytes(own), bytes(moved), bytes(dot)


@cache
def _tables() -> dict[str, np.ndarray]:
    """Every lookup table, built once at first use by exact integer
    arithmetic (about 0.5 MB, under 1 MB while building)."""
    # 10**-k = beta 2**r with 2**125 <= beta < 2**126, and g = floor(beta) + 1
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        num, den = (num, den << r) if r >= 0 else (num << -r, den)
        g.append(num // den + 1)
    # Schubfach's constants for each biased exponent, and again (at +2048)
    # for a power of two, whose gap below is half the gap above: k is
    # floor(log10(2**q)), or floor(log10(3/4 2**q)) for a power of two.
    # A zero (at 2048) gets g = 0, so d = 0, and k = -15, so exponent 0.
    at = np.arange(4096)
    q = np.maximum(at % 2048, 1) - 1075
    k = (q * 661971961083 - (at > 2049) * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    g1 = np.array([v >> 63 for v in g], dtype=_U).take(k - _K_MIN)
    g0 = np.array([v & (2 ** 63 - 1) for v in g], dtype=_U).take(k - _K_MIN)
    g1[2048] = g0[2048] = 0
    k[2048] = -15
    # x = 4c 2**h and the bounds of the rounding interval, x + 2**e and
    # x - 2**e' (e = h + 1, e' = h for a power of two), move Schubfach's
    # Y = floor(g1 x / 2) + floor(g0 x / 2**64) by g1 2**(e-1) + floor(g0
    # 2**e / 2**64), written in base 2**63, and by one more where the low
    # words g0 x mod 2**64 and g0 2**e mod 2**64 carry (or borrow)
    def step(e):
        low = ((g1 << (e - _U1)) & _LOW63) + (g0 >> (_U64 - e))
        return (g1 >> (_U64 - e)) + (low >> _U63), low & _LOW63, g0 << e

    # per binary exponent: the implicit bit, h + 2, g1, g0, and (hi, lo,
    # low word) of the step up and of the step down, a row at a time
    binary = np.empty((10, 4096), dtype=_U)
    binary[0] = (at % 2048 > 0).astype(_U) << _U52
    binary[1] = h + _U2
    binary[2], binary[3] = g1, g0
    binary[4:7] = step(h + _U1)
    binary[7:10] = step(h + _U1 - (at > 2049).astype(_U))
    k = k.astype(np.int16)
    del at, q, h, g1, g0

    def words(rows: list[bytes]) -> np.ndarray:
        return np.frombuffer(b"".join(rows), dtype=_U)

    # per decimal exponent e of repr (index e + 324): the dot position p in
    # the digits (1 in the exponent form, none for [1e-4, 1), else e + 1)
    # times 18, the fewest digit slots, the suffix (e+XX and a comma, or a
    # comma) in the row's last word, and the prefix ([-][0.000])
    dots, least, suffix, prefix = [], [], [], []
    for e in range(_K_MIN, 309):
        sci, small = not -4 <= e < 16, -4 <= e < 0
        dots.append(18 * (1 if sci else _NO_DOT if small else e + 1))
        least.append(0 if sci or small else e + 2)
        suffix.append(b"\0\0" + ((b"e%+03d," % e) if sci else b",").ljust(6, b"\0"))
        lead = b"0." + b"0" * (-e - 1) if small else b""
        prefix += [(sign + lead).ljust(8, b"\0") for sign in (b"\0", b"-")]
    fields = [_field_masks(p, q) for p in range(_NO_DOT + 1) for q in range(18)]
    # four digits of 0..9999 as text, and the significant digits through
    # group i of four (0 for an all-zero group)
    v = np.arange(10000, dtype=np.uint16)
    text = np.zeros((10000, 8), dtype=np.uint8)
    for j in range(4):
        text[:, j] = v // 10 ** (3 - j) % 10 + ord("0")
    kept = (4 - sum((v % 10 ** j == 0).view(np.uint8) for j in (1, 2, 3))
            - (v == 0).view(np.uint8))
    return {
        "binary": binary,
        "k": k,
        "pow10": _U(10) ** np.arange(18, dtype=_U),
        "digits4": text.view(_U).ravel(),
        "last4": np.stack([(kept > 0) * (kept + 4 * i) for i in range(4)]).astype(np.uint8),
        "decimal": np.stack([np.array(dots, dtype=_U), np.array(least, dtype=_U),
                             words(suffix)]),
        "prefix": words(prefix),
        "field": np.concatenate([words([f[i] for f in fields]).reshape(-1, 3).T
                                 for i in range(3)]),
    }


def _mul(a_hi, a_lo, a, x_hi, x_lo, x):
    """(floor(a x / 2**64), a x mod 2**64) from the 32-bit halves of
    a < 2**63 and x < 2**59, whose cross products then sum without
    overflow."""
    mid = a_hi * x_lo + a_lo * x_hi + ((a_lo * x_lo) >> _U32)
    return a_hi * x_hi + (mid >> _U32), a * x


def _shortest(bits, t):
    """(digits, exponent): the shortest decimal that reads back as the
    float of each `bits` (sign ignored), and of those the closest, the even
    one on a tie, as its digits left-aligned in 17 places (zero-filled) and
    the decimal exponent of the first; a zero is 0 and 0.

    This is Schubfach without its two-digit floor on subnormals, since
    `repr` prints 5e-324 where Java prints 4.9E-324."""
    mant = bits & _LOW52
    at = (((bits >> _U52) & _U(0x7FF)) + _U(2048) * (mant == _U0)).view(np.int64)
    (implicit, shift, g1, g0, up_hi, up_lo, up_carry,
     down_hi, down_lo, down_borrow) = t["binary"].take(at, axis=1)
    x = (mant | implicit) << shift   # 4c 2**h
    x_hi, x_lo = x >> _U32, x & _LOW32
    hi1, lo1 = _mul(g1 >> _U32, g1 & _LOW32, g1, x_hi, x_lo, x)
    hi0, lo0 = _mul(g0 >> _U32, g0 & _LOW32, g0, x_hi, x_lo, x)
    del mant, implicit, shift, g1, g0, x, x_hi, x_lo
    # Y = floor(g x / 2**64) for g = g1 2**63 + g0, as y_hi 2**63 + y_lo;
    # rop(Y) = floor(Y / 2**63), its lowest bit set when Y mod 2**63 > 0
    z = (lo1 >> _U1) + hi0
    y_hi, y_lo = hi1 + (z >> _U63), z & _LOW63
    vb = y_hi | ((y_lo + _LOW63) >> _U63)
    r_lo = y_lo + up_lo + ((lo0 + up_carry) < lo0)
    vbr = (y_hi + up_hi + (r_lo >> _U63)) | (((r_lo & _LOW63) + _LOW63) >> _U63)
    l_lo = y_lo - down_lo - (lo0 < down_borrow)
    vbl = (y_hi - down_hi - (l_lo >> _U63)) | (((l_lo & _LOW63) + _LOW63) >> _U63)
    del hi1, lo1, hi0, lo0, z, y_hi, y_lo, r_lo, l_lo
    odd = bits & _U1         # c is odd: the interval is open
    lower = vbl + odd        # 4u lies in the rounding interval iff lower <= 4u
    upper = vbr - odd        # and 4w iff 4w <= upper
    s = vb >> _U2
    s4 = s << _U2
    u_in = lower <= s4
    w_in = s4 + _U4 <= upper
    closer_s = (vb & _U3) + (s & _U1) <= _U2   # u nearer than w = u + 1, or as near and even
    d = s + _U1 - (u_in & (closer_s | ~w_in))  # u or w is always in
    # one digit fewer, if exactly one of its two candidates is in the interval
    s10 = s // _U10 * _U10
    up_in = lower <= s10 << _U2
    wp_in = (s10 << _U2) + _U40 <= upper
    fewer = (up_in != wp_in) & (s >= _U10)
    d += fewer * (s10 + _U10 * wp_in - d)
    # a normal double has 16 or 17 digits, a subnormal 1 to 17
    n = 16 + (d >= _E16)
    tiny = at == 0
    if tiny.any():
        n[tiny] = np.searchsorted(t["pow10"], d[tiny], "right")
    return d * t["pow10"].take(17 - n), t["k"].take(at) + n - 1


def _text(x: np.ndarray) -> bytes:
    """The text of each value of the 1-D float64 array `x`, each followed
    by a comma."""
    if not np.isfinite(x).all():
        raise ValueError("only finite floats have a JSON text")
    t = _tables()
    bits = x.view(_U)
    full, exponent = _shortest(bits, t)
    e10 = exponent - _K_MIN
    # the 17 digits as four groups of four and a last one
    top = full // _U10
    last = full - top * _U10
    hi8 = top // _E8
    lo8 = top - hi8 * _E8
    g0 = (hi8 // _E4).view(np.int64)
    g1 = (hi8 - g0.view(_U) * _E4).view(np.int64)
    g2 = (lo8 // _E4).view(np.int64)
    g3 = (lo8 - g2.view(_U) * _E4).view(np.int64)
    del full, top, hi8, lo8
    last4, digits4 = t["last4"], t["digits4"]
    sig = np.maximum(np.maximum(last4[0].take(g0), last4[1].take(g1)),
                     np.maximum(last4[2].take(g2), last4[3].take(g3)))
    sig = np.maximum(sig, np.uint8(17) * (last != _U0))
    w1 = digits4.take(g0) | (digits4.take(g1) << _U32)
    w2 = digits4.take(g2) | (digits4.take(g3) << _U32)
    w3 = last + _U(ord("0"))
    del g0, g1, g2, g3, last
    # Each row: word 0 the prefix, bytes 8-25 the digit field (at most 17
    # digits and a dot), bytes 26-31 the suffix; unused bytes are zero.
    # The field keeps q >= sig digit slots with a dot after the first p.
    dots, least, suffix = t["decimal"].take(e10, axis=1)
    key = (dots + np.maximum(sig, least)).view(np.int64)
    del dots, least, sig
    own1, own2, own3, moved1, moved2, moved3, dot1, dot2, dot3 = t["field"].take(key, axis=1)
    rows = np.empty((len(x), 4), dtype=_U)
    rows[:, 0] = t["prefix"].take(2 * e10 + (bits >> _U63).view(np.int64))
    rows[:, 1] = (w1 & own1) | ((w1 << _U8) & moved1) | dot1
    rows[:, 2] = (w2 & own2) | (((w2 << _U8) | (w1 >> _U56)) & moved2) | dot2
    rows[:, 3] = (w3 & own3) | (((w3 << _U8) | (w2 >> _U56)) & moved3) | dot3 | suffix
    return rows.tobytes().translate(None, b"\0")


def encode_rows(table) -> list[bytes]:
    """`json.dumps(row.tolist(), separators=(",", ":"))[1:-1]` as bytes, for
    each row of a 2-D array of finite floats, from one pass over all of
    them: the fixed cost of a pass is spread over every row."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    rows, n = table.shape
    if n == 0:
        return [b""] * rows
    text = _text(table.ravel())
    if rows == 1:
        return [text[:-1]]
    ends = np.flatnonzero(np.frombuffer(text, np.uint8) == ord(","))[n - 1::n].tolist()
    return [text[start:end] for start, end in zip([0] + [e + 1 for e in ends[:-1]], ends)]
