"""Host speed, sampled while a repeat runs, so times can be reported at one speed.

The sandbox this benchmark is judged on does not run at one speed: it slows
in bursts of a second, and for a quarter of an hour at a time by up to 2x
(``README.md``, "Bounds", has the measurements).  A repeat of 5 - 9 s takes
whatever the host gives it, so raw times of unchanged code differ by 30 %
between two sets of runs.

While a repeat runs in its own interpreter, the waiting parent therefore times
a fixed ~1 ms pure-Python kernel (heap pushes and pops, dict stores, generator
sends: what the simulator does) every ``PAUSE_S``, on the other core.  The
mean kernel rate over the repeat, relative to ``REFERENCE_RATE``, is the
host's speed during exactly that repeat; the repeat's times are multiplied by
it.  Reported seconds are seconds *at reference speed*: on the calm reference
sandbox the factor is 1.
"""

from __future__ import annotations

import statistics
import subprocess
from heapq import heappop, heappush
from time import perf_counter, sleep
from typing import Dict, List, Tuple

__all__ = ["PAUSE_S", "REFERENCE_RATE", "at_reference_speed", "kernel",
           "watch"]

#: ``kernel()`` calls per second on the calm 2-core reference sandbox (py3.11)
#: beside a running repeat.  Only ratios of reported times mean anything
#: across machines, so the value fixes the unit and nothing else.
REFERENCE_RATE = 800.0
#: pause between two kernel calls: ~2 % of one core
PAUSE_S = 0.05


def kernel() -> float:
    """Host seconds for a fixed amount of interpreter work."""
    heap: List[Tuple[float, int]] = []
    table: Dict[int, Tuple[int, float]] = {}
    total = 0.0

    def sink():
        while True:
            yield

    send = sink()
    next(send)
    start = perf_counter()
    for i in range(2000):
        heappush(heap, ((i * 0.37) % 11.0, i))
        if i & 1:
            heappop(heap)
        table[i & 255] = (i, total)
        send.send(i)
        total += i * 1e-6
    return perf_counter() - start


def watch(child: "subprocess.Popen[str]") -> float:
    """Sample until *child* exits; the host's speed over that time (1 = reference).

    Samples are evenly spaced in time, and work done is time x speed, so the
    mean of the *rates* (not of the kernel times) is what converts the
    child's elapsed time into time at reference speed.
    """
    rates = []
    while True:
        rates.append(1.0 / kernel())
        if child.poll() is not None:
            return statistics.fmean(rates) / REFERENCE_RATE
        sleep(PAUSE_S)


def at_reference_speed(samples: Dict[str, float], units: Dict[str, str],
                       speed: float) -> Dict[str, float]:
    """*samples* with every time (``s``) and rate (``1/s``) put at reference speed."""
    scale = {"s": speed, "1/s": 1.0 / speed}
    return {name: value * scale.get(units[name], 1.0)
            for name, value in samples.items()}
