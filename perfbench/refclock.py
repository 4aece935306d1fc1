"""Times normalized to the machine's current speed.

On a shared machine the same code runs 20-40 % slower for minutes at a time
while other tenants are busy, which no amount of repetition inside one run
can average out.  A ``Clock`` therefore runs a fixed pure-Python loop just
before each timed interval and scales the interval by REF_S / (median time
of the last five loops).  The result reads as seconds on a machine on which
the loop takes REF_S, its time on an idle 2-CPU x86 box of the kind the
benchmark was tuned on.  The loop never touches chaincover, so a change to
the program moves the normalized times exactly as it moves the raw ones.
"""

from __future__ import annotations

from time import perf_counter  # nothing else: set-up timing imports this module first

REF_S = 0.00125


def reference_loop() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


class Clock:
    def __init__(self):
        self._recent: list[float] = []

    def scale(self) -> float:
        """Run the loop once; REF_S over the median of the last five loop times."""
        t0 = perf_counter()
        reference_loop()
        self._recent = self._recent[-4:] + [perf_counter() - t0]
        return REF_S / sorted(self._recent)[len(self._recent) // 2]
