"""The meter `hmvol.group_enum._Ring.charge` replaced, kept as a test
reference: `charge(key, mult)` bumps a running Meter by mult times the
partial assignments settled below the class `key` on every visit of the
class, a class of rank >= 3 in two bumps (each first row's next class before
its level is built, then the rest), and passes each live child mult times
its rows.  The package sums the same totals once per class and checks the
top class's once, so both end at the same node total; a budget below it
refuses here at the first overshoot, partway through the search.
"""

from __future__ import annotations

from hmvol.group_enum import _Ring
from sweep_reference import Meter


class Search(_Ring):
    """A _Ring whose meter is bumped by the multiplicity-scaled running total."""

    def __init__(self, ring, lam, budget: int):
        super().__init__(ring, lam)
        # _Ring memoizes charge per instance; this one must bump on every visit
        del self.charge
        self.meter, self.charges = Meter(budget), {}

    def charge(self, key, mult: int):
        if key in self.charges:
            self.meter.bump(mult * self.charges[key])
            return
        c = self.reps(key)
        # every first row is charged the next class: bump it before the level is built
        self.meter.bump(mult * c[0] * c[1])
        total = c[0] * c[1]
        if len(c) > 2:
            children, dead_rows = self.level(key)
            # a dead row's complement has no unit-norm vector: it stops after c1
            own, live = dead_rows * c[1], []
            for child, rows in children.items():
                dead = [k for k, size in enumerate(self.reps(child)) if size == 0]
                own += rows * sum(c[1:dead[0] + 2] if dead else c[1:])
                if not dead:
                    live.append((child, rows))
            self.meter.bump(mult * (own - total))
            total = own
            for child, rows in live:
                self.charge(child, mult * rows)
                total += rows * self.charges[child]
        self.charges[key] = total

    def run(self) -> int:
        self.charge(self.top, 1)
        return self.count(self.top)
