"""CSV text of float tables, byte for byte what ``%.15g`` writes, through 32-byte records: each cell's 15 digits decided
exactly in numpy (Dekker's two-product against powers of ten), by one `%` call where numpy cannot or costs more."""

import functools

import numpy as np

_KERNEL_CELLS = 256  # fewer cells per call take `%`: the kernel's numpy calls cost about 0.1 ms however few


def _dekker_halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each double into two of at most 26 significant bits, for Dekker's exact product."""
    high = v * 134217729.0 - (v * 134217729.0 - v)
    return high, v - high


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """`csv_text`'s tables, built on its first call: 10**k for k in [-290, 290] as hi + lo, each the nearest double,
    and hi's Dekker halves; the digits and trailing zeros of each integer below 10**4; per layout (0-18 fixed notation
    at exponents -4..14, 19 scientific, 20 zero) and digit count, the masks of the body bytes; prefixes and suffixes."""
    ten = [(10**k, 1) if k >= 0 else (1, 10**-k) for k in range(-290, 291)]  # 10**k exactly, as num / den
    hi = np.array([num / den for num, den in ten])
    lo = np.array([(num * q - p * den) / (den * q) for (num, den), (p, q) in zip(ten, map(float.as_integer_ratio, hi))])
    n = np.arange(10**4, dtype=np.uint16)
    digits = (n[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48).astype(np.uint8).view("<u4").ravel()
    zeros = sum((n % 10**i == 0).view(np.uint8) for i in range(1, 5))
    layout, count, j = np.arange(21)[:, None, None], np.arange(16)[:, None], np.arange(16)
    point = np.where(layout < 4, 16, np.where(layout < 19, layout - 3, 1))  # digits before the '.' (16: in the prefix)
    dotted = (count > point) & (layout < 20)
    shown = np.where((layout >= 4) & (layout < 19), np.maximum(count, point), count * (layout < 20))  # with no '.'
    before, after = j < np.where(dotted, point, shown), dotted & (point < j) & (j <= count)
    masks = np.concatenate(np.broadcast_arrays(before * 255, after * 255, (dotted & (j == point)) * 46), axis=-1)
    masks = masks.reshape(-1, 48).astype(np.uint8).view("<u8").T.copy()  # 2 words each: before '.', after it, '.'
    prefixes = b"".join(b"%8s" % (sign + lead) for sign in (b"", b"-")
                        for lead in (b"0.000", b"0.00", b"0.0", b"0.", *[b""] * 16, b"0")).replace(b" ", b"\0")
    suffixes = b"".join(((b"e%+03d" % x if x > -331 else b"") + sep).ljust(8, b"\0")
                        for x in range(-331, 331) for sep in (b",", b"\n"))
    return hi, lo, *_dekker_halves(hi), digits, zeros, masks, *(np.frombuffer(t, "<u8") for t in (prefixes, suffixes))


def _decimal_digits(x: np.ndarray, hi, lo, hi_h, hi_l, digits, zeros) -> tuple[np.ndarray, ...]:
    """|x| = m * 10**(e - 14), m in [1e14, 1e15) rounded half-even: "0" and m's 15 digits as two little-endian words,
    the count of significant digits, e, and the cells left to `%` (|x| outside [1e-270, 1e270] but not 0, or within
    1e-6 of a tie).  a * 10**(14 - e) is p + err + a*lo with p + err = a*hi exactly (Dekker), so its residual from
    q = rint(p) is known to about 1e-16; a product just outside [1e14, 1e15) rounds to 10**14 either way."""
    a = np.abs(x)
    scaled = (a >= 1e-270) & (a <= 1e270)
    a[~scaled] = 1.0
    a_h, a_l = _dekker_halves(a)
    e = np.floor(np.log10(a)).astype(np.intp)
    e -= a < hi[e + 290]  # hi[k + 290] is 10**k
    e += a >= hi[e + 291]
    k = 304 - e
    p = a * hi[k]
    err = ((a_h * hi_h[k] - p) + a_h * hi_l[k] + a_l * hi_h[k]) + a_l * hi_l[k]
    q = np.rint(p)
    r = (p - q) + err + a * lo[k]
    q += (r > 0.5).astype(float) - (r < -0.5)
    undecided = np.flatnonzero((np.abs(np.abs(r) - 0.5) <= 1e-6) | (~scaled & (x != 0)))
    e += q == 1e15
    q[q == 1e15] = 1e14
    groups = np.floor(q / [[1e12], [1e8], [1e4], [1.0]])  # exact: a quotient's fraction is 0 or above its error
    groups[1:] -= groups[:-1] * 1e4
    groups = groups.astype(np.intp)
    z = zeros[groups]
    count = 15 - (z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0])))
    words = digits[groups].astype("<u8")
    return words[::2] | words[1::2] << 32, count, e, undecided


def _records(block: np.ndarray, newline: bool = True) -> np.ndarray:
    """The cells of a finite 2-D float block as (block.size, 4) ``<u8`` records: 32 bytes each, the cell's ``%.15g``
    and its separator ("\\n" after a row's last cell if `newline`, else ",") among fill bytes.  A kernel record is laid
    out as `%g` does: prefix (sign, "0.", leading zeros), 16 body bytes (digits, '.'), suffix (exponent, separator).
    Below _KERNEL_CELLS cells one `%` call makes every record, ``%-31.15g`` and the separator, for less."""
    x = block.ravel()
    if x.size < _KERNEL_CELLS:
        row = b"%-31.15g," * (block.shape[1] - 1) + (b"%-31.15g\n" if newline else b"%-31.15g,")
        return np.frombuffer(row * len(block) % tuple(x.tolist()), "<u8").reshape(-1, 4)
    *tables, masks, prefixes, suffixes = _format_tables()
    body, count, e, undecided = _decimal_digits(x, *tables)
    layout = np.where(x == 0, 20, np.where((e >= -4) & (e < 15), e + 4, 19))
    mask = masks.take(layout * 16 + count, axis=1)
    suffix = np.where(layout == 19, 2 * e + 662, 0)
    suffix.reshape(block.shape)[:, -1] += newline  # odd suffixes end in a newline
    record = np.empty((len(x), 4), "<u8")
    record[:, 0] = prefixes[np.signbit(x) * 21 + layout]
    record[:, 1] = (((body[0] >> 8) | (body[1] << 56)) & mask[0]) | (body[0] & mask[2]) | mask[4]  # digits one byte on
    record[:, 2] = ((body[1] >> 8) & mask[1]) | (body[1] & mask[3]) | mask[5]
    record[:, 3] = suffixes[suffix]
    if undecided.size:
        cells = b"".join([b"%-31.15g\n" if end else b"%-31.15g," for end in (suffix[undecided] % 2).tolist()])
        record[undecided] = np.frombuffer(cells % tuple(x[undecided].tolist()), "<u8").reshape(-1, 4)
    return record


def _text(records: np.ndarray) -> str:
    """The text of an array of records: their bytes in order, without the fill (0 bytes and spaces)."""
    return records.tobytes().translate(None, b"\0 ").decode("ascii")


def csv_text(block: np.ndarray) -> str:
    """The rows of a finite 2-D float block as CSV text: byte for byte what the ``%.15g`` row template gives."""
    return _text(_records(block)) if block.size else "\n" * len(block)
