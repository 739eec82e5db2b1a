"""The host's speed, measured in between the timed work of a pass.

On a shared host the same pass can take 1.6-1.8x as long from one minute
to the next, and slow spells last minutes, so plain wall times of runs
made minutes apart spread wider than any useful bound.  This module
measures how fast the host runs a fixed piece of reference work while the
pass runs, and ``factor`` turns a wall time into seconds at a fixed
reference speed.

The reference work is pure Python of the same kind as the package's hot
path (small ``__slots__`` objects, integer tuples, ``gcd``, dicts keyed by
exponent tuples) and uses no package code, so no change to the package
moves it.  During a timed segment a one-shot ``SIGALRM`` timer interrupts
the work every ``INTERVAL_S`` seconds; the handler runs one unit of
reference work and adds its own wall time to ``busy_s``, which the
segment subtracts from its time.  The units are thus spread evenly over
the pass, and their mean speed is the host's speed during the pass.
"""

from __future__ import annotations

import signal
import time
from math import gcd

# one reference unit takes about this long on an idle host
REF_UNIT_S = 0.012
INTERVAL_S = 0.12
BLOCKS_PER_UNIT = 4


class _Coef:
    __slots__ = ("num", "den")

    def __init__(self, num: tuple, den: int = 1):
        g = den
        for x in num:
            g = gcd(g, x)
        if g > 1:
            num = tuple(x // g for x in num)
            den //= g
        while num and num[-1] == 0:
            num = num[:-1]
        self.num, self.den = num, den

    def __add__(self, other):
        a, b = self.num, other.num
        n = max(len(a), len(b))
        a = a + (0,) * (n - len(a))
        b = b + (0,) * (n - len(b))
        return _Coef(tuple(x * other.den + y * self.den for x, y in zip(a, b)),
                     self.den * other.den)

    def __mul__(self, other):
        a, b = self.num, other.num
        if not a or not b:
            return _Coef(())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _Coef(tuple(out), self.den * other.den)


def _block() -> None:
    p = {(i, j): _Coef((i + 2, -j, 1), 1 + (i * j) % 3)
         for i in range(-3, 4) for j in range(-2, 3) if (i + j) % 2 == 0}
    r = {(1, 0): _Coef((1,)), (0, 1): _Coef((0, -1), 2), (-1, -1): _Coef((3, 0, 1))}
    for _ in range(3):
        out: dict = {}
        for e, c in p.items():
            for f, d in r.items():
                k = (e[0] + f[0], e[1] + f[1])
                acc = out.get(k)
                out[k] = c * d if acc is None else acc + c * d
        p = {e: c for e, c in out.items() if abs(e[0]) + abs(e[1]) <= 6}


def unit() -> float:
    """Run one unit of reference work; return its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(BLOCKS_PER_UNIT):
        _block()
    return time.perf_counter() - t0


class Gauge:
    """Reference units run in between timed work, and their mean speed."""

    def __init__(self):
        self.unit_s = 0.0   # summed wall time of the units
        self.units = 0
        self.busy_s = 0.0   # summed wall time of the handler
        self.active = False
        self._left = INTERVAL_S  # of the interval, when the timer was paused
        unit()  # the first unit warms the code up and is not counted

    def sample(self, n: int) -> None:
        """Run n units now, outside any timed work."""
        for _ in range(n):
            self.unit_s += unit()
            self.units += 1

    def factor(self) -> float:
        """Reference seconds per wall second; 1.0 before any unit ran."""
        return REF_UNIT_S * self.units / self.unit_s if self.units else 1.0

    def _handler(self, signum, frame) -> None:
        if not self.active:
            return
        t0 = time.perf_counter()
        self.unit_s += unit()
        self.units += 1
        self.busy_s += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def resume(self) -> None:
        """Start interleaving units; call right after a segment's clock starts.

        The interval goes on where ``pause`` left it, so short segments
        in a row get units as one long segment would.
        """
        signal.signal(signal.SIGALRM, self._handler)
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, self._left)

    def pause(self) -> None:
        """Stop interleaving; call right before a segment's clock stops."""
        self.active = False
        left, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        self._left = left if left > 0 else INTERVAL_S
