"""Billing meters for EC2 resources.

The paper's cost analysis (§VI) hinges on billing granularity: Amazon
charges per instance-hour with partial hours *rounded up*, so the paper
reports each experiment twice — under actual per-hour charges and under
hypothetical per-second charges (hourly rate / 3600).  Both are
computed here from the same usage intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .types import InstanceType


@dataclass
class UsageInterval:
    """One instance's billed lifetime."""

    instance_name: str
    itype: InstanceType
    start: float
    end: Optional[float] = None

    def duration(self, at: Optional[float] = None) -> float:
        """Seconds of usage, up to ``at`` if still running."""
        end = self.end if self.end is not None else at
        if end is None:
            raise ValueError("interval still open; pass `at`")
        return max(0.0, end - self.start)


@dataclass
class CostBreakdown:
    """Computed charges for a set of usage intervals."""

    per_hour: float
    per_second: float
    instance_hours: float
    billed_hours: int
    by_type: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Rounding up can only ever increase the charge.
        assert self.per_hour >= self.per_second - 1e-9


class BillingMeter:
    """Tracks instance launch/terminate times and computes charges."""

    def __init__(self) -> None:
        self._intervals: List[UsageInterval] = []
        self._open: Dict[str, UsageInterval] = {}

    # -- recording -----------------------------------------------------------

    def launch(self, instance_name: str, itype: InstanceType, at: float) -> None:
        """Record an instance launch."""
        if instance_name in self._open:
            raise ValueError(f"{instance_name!r} already running")
        iv = UsageInterval(instance_name, itype, at)
        self._intervals.append(iv)
        self._open[instance_name] = iv

    def terminate(self, instance_name: str, at: float) -> None:
        """Record an instance termination."""
        iv = self._open.pop(instance_name, None)
        if iv is None:
            raise ValueError(f"{instance_name!r} is not running")
        if at < iv.start:
            raise ValueError("termination before launch")
        iv.end = at

    def terminate_all(self, at: float) -> None:
        """Terminate every open interval (end of experiment)."""
        for name in list(self._open):
            self.terminate(name, at)

    # -- queries ---------------------------------------------------------------

    def resource_cost(self, at: Optional[float] = None) -> CostBreakdown:
        """Charges for all usage, per-hour (rounded up) and per-second.

        ``at`` closes still-open intervals for the calculation without
        mutating the meter.
        """
        per_hour = 0.0
        per_second = 0.0
        hours = 0.0
        billed = 0
        by_type: Dict[str, float] = {}
        for iv in self._intervals:
            dur = iv.duration(at)
            rate = iv.itype.price_per_hour
            # Amazon rounds partial hours up; a zero-length interval
            # still bills one hour (instances bill from launch).
            bh = max(1, math.ceil(dur / 3600.0 - 1e-12))
            per_hour += bh * rate
            per_second += dur * rate / 3600.0
            hours += dur / 3600.0
            billed += bh
            by_type[iv.itype.name] = by_type.get(iv.itype.name, 0.0) + bh * rate
        return CostBreakdown(
            per_hour=per_hour,
            per_second=per_second,
            instance_hours=hours,
            billed_hours=billed,
            by_type=by_type,
        )
