"""Timeout and retry policy for cluster RPCs.

An SDDS operation on an unreliable network is a loop: send, wait up to
a timeout, retry with exponential backoff (plus deterministic jitter so
synchronized clients do not stampede a recovering server), give up
after a capped number of attempts.  The policy object is pure
arithmetic -- the event loop does the waiting -- so the timeout ladder
is unit-testable and identical across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ReproError


class RetryExhaustedError(ReproError):
    """Every attempt of an operation timed out."""


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Capped exponential backoff with proportional jitter.

    Two optional overload-protection knobs (PR 7):

    * ``budget`` caps the number of *sends* per logical operation,
      independently of ``max_attempts``.  Timeouts and ``SHED``
      rejections both consume it, so a shedding node sees at most
      ``budget`` copies of an operation -- retries cannot amplify the
      very overload that caused the shedding.
    * ``op_deadline`` bounds the whole operation in simulated seconds;
      each attempt's wait is clamped to the time remaining, and no new
      attempt starts past the deadline.
    """

    timeout: float = 5e-3       #: first-attempt timeout (s)
    backoff: float = 2.0        #: timeout multiplier per retry
    max_timeout: float = 0.25   #: ceiling on any single attempt (s)
    max_attempts: int = 8       #: total tries before giving up
    jitter: float = 0.1         #: extra fraction of the timeout, in [0, j)
    budget: int | None = None   #: cap on sends per operation (None = off)
    op_deadline: float | None = None  #: whole-operation bound (s, None = off)

    def __post_init__(self) -> None:
        if self.timeout <= 0 or self.max_timeout < self.timeout:
            raise ValueError("need 0 < timeout <= max_timeout")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter fraction outside [0, 1]")
        if self.budget is not None and self.budget < 1:
            raise ValueError("retry budget must allow at least one send")
        if self.op_deadline is not None and self.op_deadline <= 0:
            raise ValueError("operation deadline must be positive")

    def timeout_for(self, attempt: int,
                    rng: random.Random | None = None) -> float:
        """Seconds to wait on the ``attempt``-th try (0-based)."""
        if attempt < 0:
            raise ValueError("attempt index cannot be negative")
        base = min(self.timeout * self.backoff ** attempt, self.max_timeout)
        if rng is None or not self.jitter:
            return base
        return base * (1.0 + self.jitter * rng.random())

    def begin(self, now: float) -> "OpBudget":
        """Open one operation's attempt ledger at simulated time ``now``."""
        allowed = self.max_attempts if self.budget is None \
            else min(self.budget, self.max_attempts)
        deadline = float("inf") if self.op_deadline is None \
            else now + self.op_deadline
        return OpBudget(self, allowed, deadline)

    @classmethod
    def patient(cls, max_attempts: int = 25) -> "RetryPolicy":
        """A high-cap policy for adversarial fault plans (tests)."""
        return cls(timeout=5e-3, backoff=1.6, max_timeout=0.1,
                   max_attempts=max_attempts)


class OpBudget:
    """The per-operation send ledger :meth:`RetryPolicy.begin` opens.

    Every transmission -- first try, timeout retry, or post-``SHED``
    retry -- must pass :meth:`allow` and then :meth:`spend`.  The
    ledger is the overload-control invariant: no operation puts more
    than ``budget`` frames on the wire or outlives ``op_deadline``.
    """

    __slots__ = ("policy", "allowed", "deadline", "spent")

    def __init__(self, policy: RetryPolicy, allowed: int, deadline: float):
        self.policy = policy
        self.allowed = allowed
        self.deadline = deadline
        self.spent = 0

    def allow(self, now: float) -> bool:
        """True while another send fits the budget and the deadline."""
        return self.spent < self.allowed and now < self.deadline

    def spend(self) -> int:
        """Record one send; returns its 0-based attempt index."""
        if self.spent >= self.allowed:
            raise ReproError("retry budget exhausted")
        attempt = self.spent
        self.spent += 1
        return attempt

    def attempt_timeout(self, attempt: int, rng: random.Random | None,
                        now: float) -> float:
        """The backoff ladder's wait, clamped to the time remaining."""
        wait = self.policy.timeout_for(attempt, rng)
        if self.deadline != float("inf"):
            wait = min(wait, max(self.deadline - now, 1e-9))
        return wait
