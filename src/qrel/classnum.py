"""Hurwitz class numbers: the ``12*H`` table, filled in memory from the
reduced forms and written out as CSV.

The table has its own module so that the callers of :mod:`qrel.arith`'s
characters and divisor sums (the indefinite theta series) do not compile
the fill.  ``qrel.arith.HurwitzCache`` and ``hurwitz_cache`` still
resolve, to the objects here.
"""

from __future__ import annotations

import contextlib
import os
import sys
from array import array
from fractions import Fraction
from functools import cache
from math import gcd, isqrt


class HurwitzCache:
    """Table of Hurwitz class numbers, written out as CSV "n,num,den".

    ``_table`` is one ``array("i")`` of 4-byte integers in units of 1/12:
    ``_table[n]`` is ``12*H(n)`` for ``0 <= n <= _max``, so ``_table[0] ==
    -1`` and every entry is an integer (a reduced form counts 12, ``(a, 0,
    a)`` counts 6 and ``(a, a, a)`` counts 4).  No entry exceeds ``12 A (A
    + 1)``, ``A = isqrt(max_n // 3)``: a fill whose bound does not fit 31
    bits (max_n of about 5.4e8 or more) raises ``OverflowError`` before it
    allocates anything.  The relation checks sum these integers directly;
    :func:`hurwitz` turns one entry into the exact ``Fraction``.

    The fill counts reduced forms in Kohnen's plus space: every
    discriminant n = 4ac - b^2 is 0 or 3 (mod 4), and within each of the
    classes n = 4m and n = 4m + 3 the forms (a, b, c), c = a, a + 1, ...,
    step m by a.  Past m = a^2 + a, the contribution of a is periodic and
    goes in as one big-int addition of tiled 4-byte slots; below it, entry
    by entry.  The CSV is output only: nothing reads it back, since
    refilling the table is cheaper than parsing it.

    ``qrel.arith.HurwitzCache`` is this class and ``qrel.arith.hurwitz_cache``
    this module's function, so every reader shares the one table.
    """

    def __init__(self):
        self._bulk_fill(0)

    def _path(self) -> str:
        d = os.environ.get("QREL_CACHE_DIR", "./.qrel-cache")
        return os.path.join(d, "hurwitz.csv")

    def ensure(self, max_n: int) -> None:
        if max_n > self._max:
            self._bulk_fill(max_n)

    def scaled_table(self, max_n: int):
        """The live ``12*H`` table, filled to at least max_n.  Read only.
        It grows geometrically, so callers walking up n refill O(log n)
        times."""
        if max_n > self._max:
            self.ensure(max(max_n, 2 * self._max, 512))
        return self._table

    def _bulk_fill(self, max_n: int) -> None:
        # Slot n >> 1 holds 12*H(n): n = 4m in even slots, 4m + 3 in odd.
        # (a, +-b, c), c = a, a + 1, ..., step the slot by 2a from
        # (4a^2 - b^2) >> 1.  From slot 2a(a + 1) on every b has started,
        # and from 2a's own start the pattern, doubled, is 2a's to add.
        # Each (a, +-b) puts at most one form in a slot, so no slot
        # exceeds 12 top (top + 1) < 2^31 or carries into the next.
        top = isqrt(max_n // 3)
        if 12 * top * (top + 1) >> 31:
            raise OverflowError(f"12*H(n) for n <= {max_n} may not fit 4 bytes")
        size, swap = (max_n >> 1) + 1, sys.byteorder == "big"
        head, handed, acc = array("i", bytes(4 * size)), {}, 0
        for a in range(1, top + 1):
            period = 2 * a
            start = period * (a + 1)
            stop = min(start, size)
            pattern = handed.pop(a, None) or array("i", bytes(4 * period))
            for b in range(a + 1):
                s = 4 * a * a - b * b >> 1
                w = 24 if 0 < b < a else 12
                pattern[s % period] += w
                if s < size:
                    head[s] += 6 if b == 0 else 4 if b == a else 12
                    for t in range(s + period, stop, period):
                        head[t] += w
            if start < size:
                end = 2 * period * (period + 1)     # where 2a's tails start
                if end < size:
                    handed[period] = pattern * 2
                reps = (min(end, size) - start + period - 1) // period
                if swap:
                    pattern.byteswap()
                acc += int.from_bytes(pattern.tobytes() * reps, "little") << 32 * start
        if swap:
            head.byteswap()
        acc += int.from_bytes(head.tobytes(), "little")
        del head
        slots = array("i")
        slots.frombytes(acc.to_bytes(4 * (size + 2 * top), "little"))
        del acc
        if swap:
            slots.byteswap()
        table = array("i", bytes(4 * (max_n + 1)))
        table[0::4] = slots[0:size:2]
        table[3::4] = slots[1:max_n + 1 >> 1:2]
        table[0] = -1
        self._table, self._max = table, max_n

    def get(self, n: int) -> Fraction:
        if n < 0 or n % 4 in (1, 2):
            return Fraction(0)
        return Fraction(self.scaled_table(n)[n], 12)

    def save(self, path: str | None = None, max_n: int | None = None) -> str:
        """Write the table as "n,num,den" lines for n = 0 and every
        discriminant n = 0, 3 (mod 4) up to max_n, filling the table that
        far first (default: as far as it is filled), atomically: a reader
        sees the old file or the new one, never a partial one.  A path that
        exists and is not a regular file (a FIFO, a device) raises OSError."""
        path = path or self._path()
        if os.path.exists(path) and not os.path.isfile(path):
            raise OSError(f"{path} exists and is not a regular file")
        if max_n is not None:
            self.ensure(max_n)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        rows = self._table if max_n is None else self._table[:max(max_n, 0) + 1]
        try:
            with open(tmp, "w") as fh:
                for n, v in enumerate(rows):
                    if v:
                        g = gcd(v, 12)
                        fh.write(f"{n},{v // g},{12 // g}\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return path


def hurwitz(n: int) -> Fraction:
    """Hurwitz class number H(n); 0 off the discriminant residues, -1/12 at 0."""
    return hurwitz_cache().get(n)


@cache
def hurwitz_cache() -> HurwitzCache:
    return HurwitzCache()
