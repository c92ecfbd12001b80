"""Arrival-trace generators.

Deterministic (RNG-free) request arrival times for the open-loop
scenarios: the day-shaped trace the elastic fabric absorbs and the
flash crowd that hits a federation gateway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

__all__ = ["DiurnalProfile", "diurnal_arrivals"]


@dataclass(frozen=True)
class DiurnalProfile:
    """A day-shaped request-rate curve with an optional flash spike.

    Desktop-grid service traffic follows its users: a sinusoidal swing
    between the overnight ``base_rps`` and the working-hours ``peak_rps``
    over one ``period_s`` "day" (benches compress the day so a scenario
    stays seconds long).  ``rate_at`` peaks at ``peak_at_frac`` of the
    period.  A flash event — a release, a result deadline — adds
    ``flash_rps`` on top for ``flash_duration_s`` starting at
    ``flash_at_s``; that unscheduled step is what an SLO autoscaler must
    absorb.
    """

    base_rps: float
    peak_rps: float
    period_s: float = 86400.0
    peak_at_frac: float = 0.5
    flash_at_s: Optional[float] = None
    flash_rps: float = 0.0
    flash_duration_s: float = 0.0

    def __post_init__(self):
        if self.base_rps < 0 or self.peak_rps < self.base_rps:
            raise ValueError("need 0 <= base_rps <= peak_rps")
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate (requests/second) at time ``t``."""
        phase = 2.0 * math.pi * (t / self.period_s - self.peak_at_frac)
        swing = (self.peak_rps - self.base_rps) * 0.5 * (1.0 + math.cos(phase))
        rate = self.base_rps + swing
        if (self.flash_at_s is not None
                and self.flash_at_s <= t < self.flash_at_s
                + self.flash_duration_s):
            rate += self.flash_rps
        return rate


def diurnal_arrivals(profile: DiurnalProfile, horizon_s: float,
                     step_s: float = 0.25) -> List[float]:
    """Deterministic arrival times following *profile* over ``horizon_s``.

    Inverts the rate integral: walking the horizon in ``step_s`` slices
    (midpoint rule), one arrival is emitted each time the cumulative
    expected count Λ(t) crosses the next integer — the deterministic
    skeleton of an inhomogeneous arrival process.  No RNG: the same
    profile always yields the same trace, which keeps the scenarios that
    replay it byte-identical.
    """
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    if step_s <= 0:
        raise ValueError("step_s must be positive")
    arrivals: List[float] = []
    cumulative = 0.0
    next_count = 1.0
    steps = int(math.ceil(horizon_s / step_s))
    for i in range(steps):
        t0 = i * step_s
        dt = min(step_s, horizon_s - t0)
        if dt <= 0:
            break
        rate = profile.rate_at(t0 + dt / 2.0)
        increment = rate * dt
        while increment > 0 and cumulative + increment >= next_count:
            fraction = (next_count - cumulative) / increment
            arrivals.append(t0 + fraction * dt)
            next_count += 1.0
        cumulative += increment
    return arrivals


def flash_crowd_offsets(n: int, spread_s: float) -> List[float]:
    """Deterministic arrival offsets for a flash crowd of *n* clients.

    A golden-ratio (low-discrepancy) stagger inside ``[0, spread_s)``: the
    crowd lands almost simultaneously but never on literally the same
    timestamp, which is how real flash crowds hit a gateway.  Like
    :func:`diurnal_arrivals` it uses no RNG, so scenarios replaying the
    crowd stay byte-identical.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if spread_s < 0:
        raise ValueError("spread_s must be non-negative")
    phi_conjugate = (5 ** 0.5 - 1) / 2.0
    return [spread_s * ((i * phi_conjugate) % 1.0) for i in range(n)]
