"""The meter `hmvol.group_enum._Search.charge` replaced, kept as a test
reference: `charge(key, mult)` bumps the meter by mult times the partial
assignments settled below the class `key` on every visit of the class, a
class of rank >= 3 in two bumps (each first row's next class before its level
is built, then the rest), and passes each live child mult times its rows.
The package sums the same totals once per class and bumps the meter once
with the top class's, so both meters end at the same node total; a budget
below it refuses here at the first overshoot, partway through the search.
"""

from __future__ import annotations

from hmvol.group_enum import _Search


class Search(_Search):
    """A _Search whose meter is bumped by the multiplicity-scaled running total."""

    def charge(self, key, mult: int):
        if key in self.charges:
            self.meter.bump(mult * self.charges[key])
            return
        c = self.reps(key)
        # every first row is charged the next class: bump it before the level is built
        self.meter.bump(mult * c[0] * c[1])
        total = c[0] * c[1]
        if len(c) > 2:
            own, live = 0, []
            for child, rows in self.level(key).items():
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
        top = (len(self.lam), self.lam[-1])
        self.charge(top, 1)
        return self.count(top)
