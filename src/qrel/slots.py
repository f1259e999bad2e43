"""The slot codec of the Kronecker kernels: the q-series products and the
theta moments of the class number table."""

from __future__ import annotations

import sys
from array import array
from math import isqrt, lcm

# slots of up to 8 bytes pass through little-endian 64-bit array words
_WORDS = array("Q").itemsize == 8 and sys.byteorder == "little"


class _Slots:
    """The slot codec of the Kronecker kernels: integers in [-bound, bound]
    packed into one integer, one fixed-width slot per index.  The width is
    whole bytes with bound < half, and each slot is written offset by half,
    so it lies in [0, 2*half) and never borrows from its neighbour.  Dense
    slots of up to 8 bytes go through 64-bit words, one strided byte copy
    per slot byte; wider ones are converted one at a time."""

    __slots__ = ("width", "half", "_half_slot")

    def __init__(self, bound: int):
        self.width = bound.bit_length() // 8 + 1    # bytes, so that bound < half
        self.half = 1 << (8 * self.width - 1)
        self._half_slot = self.half.to_bytes(self.width, "little")

    def _biases(self, count: int) -> int:
        return int.from_bytes(self._half_slot * count, "little")

    def pack_dense(self, values) -> int:
        """A nonempty sequence of values as one signed integer: the sum of
        values[n] * 2^(8 width n)."""
        w, half = self.width, self.half
        if w <= 8 and _WORDS:
            wide = array("Q", [c + half for c in values]).tobytes()
            slots = bytearray(w * len(values))
            for j in range(w):
                slots[j::w] = wide[j::8]
        else:
            slots = bytearray()
            for c in values:
                slots += (c + half).to_bytes(w, "little")
        return int.from_bytes(slots, "little") - self._biases(len(values))

    def unpack(self, x: int, index: range) -> list[int]:
        """The slots of x at the indices of an increasing range, when every
        slot up to its last index holds a value in [-bound, bound]."""
        if not index:
            return []
        # With half added back, slots 0..index[-1] are nonnegative, so the
        # mask drops the slots above without a borrow.
        w, half, count = self.width, self.half, index[-1] + 1
        size = w * count
        data = ((x + self._biases(count)) & ((1 << 8 * size) - 1)).to_bytes(
            size, "little")
        if w <= 8 and _WORDS:
            wide = bytearray(8 * count)
            for j in range(w):
                wide[j::8] = data[j::w]
            return [v - half for v in array("Q", wide)[index.start:count:index.step]]
        return [int.from_bytes(data[n * w:(n + 1) * w], "little") - half
                for n in index]


def theta_moments(table, index: range, k_max: int,
                  step: int = 1) -> list[list[int]]:
    """The moments A_k(m) = sum over s = 0 (mod step), s^2 <= m, of
    s^(2k) * table[m - s^2], for k = 0..k_max and each m of an increasing
    range index: the coefficients of table * theta_2k, where theta_2k is
    sum over s = 0 (mod step) of s^(2k) q^(s^2), for table any int sequence.

    index splits into progressions of step lcm(index.step, 4), whose m
    share a residue e mod 4.  As s^2 = c = s % 2 (mod 4), the s of class c
    read only table[r::4], r = (e - c) % 4, in place, packed once: each
    s > 0 adds the copy shifted by (s^2 + r - e)/4 slots, times 2 s^(2k),
    to A_k (for s and -s), s = 0 the class-0 copy to A_0; m is read at slot
    (m - e)/4.  An all-zero class is skipped (half of them for 12 H, zero
    at m = 1, 2 mod 4).  Exact: a part's slot width bounds its moments.
    """
    if not index:
        return [[] for _ in range(k_max + 1)]
    M = index[-1]
    if M >= len(table):
        raise ValueError(f"the table ends at {len(table) - 1}, below {M}")
    ss = range(step, isqrt(M) + 1, step)
    weight = 1 + 2 * sum(s ** (2 * k_max) for s in ss)
    parts = lcm(index.step, 4) // index.step
    out = [[0] * len(index) for _ in range(k_max + 1)]
    for i in range(min(parts, len(index))):
        part = index[i::parts]
        e, top = part[0] % 4, part[-1]
        rows = {c: row for c in (0, 1) if any(row := table[(e - c) % 4:top + 1:4])}
        # |s^(2k)| <= s^(2 k_max) for s != 0, so every A_k of the part, and
        # every entry it reads, lies in [-bound, bound]
        bound = weight * max([max(map(abs, row)) for row in rows.values()], default=0)
        slots = _Slots(bound)
        bits, sums = 8 * slots.width, [0] * (k_max + 1)
        for c, decimated in rows.items():
            r = (e - c) % 4
            packed = slots.pack_dense(decimated)
            sums[0] += packed if c == 0 else 0     # s = 0
            for s in ss[:isqrt(top) // step]:
                if s % 2 == c:      # one more bit doubles: s and -s
                    shifted = packed << bits * ((s * s + r - e) // 4) + 1
                    sums[0] += shifted
                    for k in range(1, k_max + 1):
                        sums[k] += s ** (2 * k) * shifted
        at = range((part[0] - e) // 4, (top - e) // 4 + 1, part.step // 4)
        for k, x in enumerate(sums):
            out[k][i::parts] = slots.unpack(x, at)
    return out
