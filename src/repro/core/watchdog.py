"""Virtual-time deadline supervision for transfers, kernels and recovery.

A :class:`Watchdog` arms :class:`Deadline` objects around operations that
could wedge on a failing device — a DMA retry loop, a kernel in flight, a
recovery sequence — and escalates when the virtual clock passes the
budget.  Everything is deterministic: deadlines are plain comparisons
against :attr:`SimClock.now`, there are no threads and no wall-clock
timers, so a supervised run replays identically.

The escalation ladder itself lives in
:class:`~repro.core.recovery.RecoveryPolicy` (retry with backoff →
re-route via host → declare the device lost); the watchdog only answers
"has this operation exceeded its budget?" and records every trip
(:attr:`Watchdog.trips`, which the recovery policy reports as its
``watchdog_trips`` statistic).
"""


class Deadline:
    """One armed virtual-time budget."""

    __slots__ = ("kind", "label", "armed_at", "expires_at", "armed")

    def __init__(self, kind, label, armed_at, expires_at):
        self.kind = kind
        self.label = label
        self.armed_at = armed_at
        self.expires_at = expires_at
        self.armed = True

    @property
    def budget_s(self):
        return self.expires_at - self.armed_at

    def __repr__(self):
        state = "armed" if self.armed else "disarmed"
        return (
            f"Deadline({self.kind} {self.label!r} {state}, "
            f"expires={self.expires_at:.6f})"
        )


class Watchdog:
    """Arms, checks and records virtual-time deadlines."""

    def __init__(self, clock):
        self.clock = clock
        #: Every escalation, in trip order: dicts with kind/label/armed_at/
        #: expires_at/tripped_at/action.  Chaos reports surface these.
        self.trips = []

    def arm(self, kind, budget_s, label=""):
        """Arm a deadline ``budget_s`` virtual seconds from now."""
        if budget_s <= 0:
            raise ValueError(
                f"watchdog budget must be positive, got {budget_s}"
            )
        now = self.clock.now
        return Deadline(kind, label, now, now + budget_s)

    def disarm(self, deadline):
        """The supervised operation completed in time."""
        deadline.armed = False

    def expired(self, deadline):
        """True when the armed deadline's budget has elapsed."""
        return deadline.armed and self.clock.now >= deadline.expires_at

    def trip(self, deadline, action):
        """Record an escalation.  Never legal before the deadline expires.

        Raising here (rather than silently clamping) turns any "watchdog
        fired early" bug into a loud failure — the property the hypothesis
        suite pins down.
        """
        now = self.clock.now
        if now < deadline.expires_at:
            raise ValueError(
                f"watchdog trip at {now:.9f} before deadline "
                f"{deadline.expires_at:.9f} ({deadline.kind} "
                f"{deadline.label!r})"
            )
        deadline.armed = False
        record = {
            "kind": deadline.kind,
            "label": deadline.label,
            "armed_at": deadline.armed_at,
            "expires_at": deadline.expires_at,
            "tripped_at": now,
            "action": action,
        }
        self.trips.append(record)
        return record
