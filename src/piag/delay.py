"""Bounded-staleness refresh schedules and the aggregated delayed gradient.

A schedule decides which component gradients are re-evaluated at the current
iterate each iteration.  The gradient table caches one gradient per component,
tracks how stale each entry is, and returns the sum of its entries as the
aggregate used by the solver step.  Staleness never exceeds the delay
parameter ``tau``: every schedule refreshes a component at the latest when its
cached entry would otherwise be used with age ``tau + 1``.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import INTEGER, TEXT, Problem, RowThreads, _component_grads, as_vector, check_fields

Array = np.ndarray

SCHEDULE_KINDS = ("none", "cyclic", "uniform_random", "adversarial_max")
MAX_TAU = sys.maxsize  # the longest step window that a deque holds


@dataclass(frozen=True)
class DelaySchedule:
    """Refresh schedule spec.

    kind:
      none             refresh every component every iteration (zero delay)
      cyclic           sliding window of ``block`` component indices
      uniform_random   seeded random subset plus all forced refreshes
      adversarial_max  only forced refreshes, so every entry is used at the
                       maximal admissible staleness
    """

    kind: str
    tau: int = 0
    block: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.tau < 0:
            raise ValueError("delay parameter tau must be nonnegative")
        if self.kind == "cyclic" and (self.block is None or self.block < 1):
            raise ValueError("cyclic schedule requires a positive block size")
        if self.kind == "uniform_random" and self.seed is None:
            raise ValueError("uniform_random schedule requires a seed")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def validate_for(self, n_components: int) -> None:
        """Reject configurations that cannot respect the delay bound."""
        if self.kind == "cyclic":
            min_block = min_cyclic_block(n_components, self.tau)
            if self.block < min_block:
                raise ValueError(f"cyclic block {self.block} too small for N={n_components}, "
                                 f"tau={self.tau}; need at least {min_block}")


def min_cyclic_block(n_components: int, tau: int) -> int:
    """Smallest cyclic block that refreshes every component within ``tau + 1``
    iterations, ``ceil(N / (tau + 1))``."""
    return math.ceil(n_components / (tau + 1))


SCHEDULE_FIELDS = {"kind": TEXT, "tau": INTEGER, "block": INTEGER, "seed": INTEGER}


def schedule_from_dict(obj: dict, default_tau: int | None = None,
                       default_seed: int | None = None) -> DelaySchedule:
    """Parse a schedule spec like ``{"kind": "cyclic", "block": 2, "tau": 5}``.

    ``tau`` and ``seed`` fall back to the given defaults when absent.
    """
    check_fields(obj, SCHEDULE_FIELDS, ("kind",), "schedule")
    tau = obj.get("tau", default_tau)
    if tau is None:
        raise ValueError("schedule spec needs 'tau' (given neither inline nor as default)")
    return DelaySchedule(
        kind=obj["kind"],
        tau=int(tau),
        block=int(obj["block"]) if "block" in obj else None,
        seed=int(obj["seed"]) if "seed" in obj else default_seed,
    )


def next_refresh_set(schedule: DelaySchedule, k: int, n_components: int,
                     ages=None) -> Array:
    """Component indices to re-evaluate at iteration ``k``: a 1-D int array of distinct
    indices.  The gradient table also takes a set, list or range.

    ``ages`` are the staleness values recorded by the gradient table at the
    previous aggregation, one per component; the two age-driven kinds need them.
    Entries at age ``tau`` must be refreshed now, otherwise they would be used
    one iteration too stale.  The random subset drawn by ``uniform_random``
    is a pure function of ``(seed, k)``, so runs are reproducible.
    """
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    n = int(n_components)
    if n < 1:
        raise ValueError("component count must be positive")
    if ages is not None and np.shape(ages) != (n,):
        raise ValueError(f"ages of shape {np.shape(ages)} do not hold one per component ({n})")
    if schedule.kind == "none":
        return np.arange(n)
    if schedule.kind == "cyclic":
        schedule.validate_for(n)
        start = (int(k) * int(schedule.block)) % n  # k * block may exceed int64
        stop = start + min(schedule.block, n)
        return np.arange(start, stop) if stop <= n else np.arange(start, stop) % n
    if ages is None:
        raise ValueError(f"schedule kind {schedule.kind!r} requires the table ages")
    due = np.asarray(ages) >= schedule.tau
    if schedule.kind == "uniform_random":  # plus an unbiased random subset
        rng = np.random.default_rng([int(schedule.seed), int(k)])
        due |= rng.random(n) < 1.0 / (schedule.tau + 1)
    return np.flatnonzero(due)


class StepWindow:
    """Squared norms of the last ``tau`` steps, for the delay-window sums.

    On its own it serves a loop that forms every gradient fresh: staleness 0.
    """

    def __init__(self, tau: int):
        if not 0 <= tau <= MAX_TAU:
            raise ValueError(f"delay parameter tau must lie in [0, {MAX_TAU}]")
        self.tau = int(tau)
        # Iterates before the start count as copies of x0, so the pre-history
        # steps are zero and an under-filled buffer is already correct.
        self.sq_norms = deque(maxlen=self.tau)

    def push_step(self, step) -> None:
        """Record the step ``x_{k+1} - x_k`` for the delay-window sums."""
        if self.tau > 0:
            self.sq_norms.append(float(np.dot(step, step)))

    def delta(self) -> float:
        """Sum of squared norms of the last ``tau`` steps, oldest first."""
        total = 0.0
        for v in self.sq_norms:  # not sum(): it is compensated on Python >= 3.12
            total += v
        return total

    def max_staleness(self) -> int:
        """Largest age of the gradients used in the last step."""
        return 0


class GradientTable(StepWindow):
    """Per-component gradient cache with ages and step history.

    ``entries[i]`` is the gradient of component ``i`` at the iterate where it
    was last evaluated.  The aggregate is the sum of the entries, formed
    afresh after every refresh by the same ``np.sum(..., axis=0)`` reduction
    that :func:`piag.model.grad_f` uses, so a full refresh gives bitwise the
    direct full gradient and the zero-delay trajectory matches a direct
    forward-backward loop.

    Entries are evaluated by the row kernel that ``grad_f`` uses, so a
    refreshed row is bitwise ``components[i].grad(x)``; ``threads`` may share
    out the rows of a large refresh, whether its indices are consecutive
    (``none``, ``cyclic``) or scattered (``uniform_random``,
    ``adversarial_max``; see :class:`piag.model.RowThreads`), which changes
    no value.

    Single-owner mutable state; not safe for concurrent mutation.
    """

    def __init__(self, problem: Problem, x0, tau: int, threads: RowThreads | None = None):
        super().__init__(tau)
        x0 = as_vector(x0, problem.dimension)
        self.threads = threads
        self.entries = np.empty((problem.n_components, problem.dimension))
        _component_grads(problem, x0, range(problem.n_components), self.entries, threads)
        self.ages = np.zeros(problem.n_components, dtype=int)
        self.refreshed = False

    def refresh_and_aggregate(self, problem: Problem, x, refresh_set) -> Array:
        """Re-evaluate the given components at ``x`` and return the aggregate,
        the sum of all entries.

        Ages are updated so that ``ages[i]`` is the staleness of entry ``i``
        as used in the aggregate just returned.
        """
        x = as_vector(x, problem.dimension)
        indices = np.asarray(refresh_set if isinstance(refresh_set, np.ndarray)
                             else list(refresh_set), dtype=np.intp)
        listed = indices.tolist()  # min and max of a short list beat the array's
        if listed and (min(listed) < 0 or max(listed) >= len(self.entries)):
            raise ValueError("refresh set contains an out-of-range component index")
        _component_grads(problem, x, listed, self.entries, self.threads)
        # On the first refresh every entry was just evaluated at the start
        # point, which is the current iterate, so all ages stay 0.
        if self.refreshed:
            self.ages += 1
        self.refreshed = True
        self.ages[indices] = 0
        worst = int(np.argmax(self.ages))
        if self.ages[worst] > self.tau:
            raise RuntimeError(f"delay bound violated: component {worst} reached "
                               f"staleness {int(self.ages[worst])} > tau={self.tau}")
        return np.sum(self.entries, axis=0)

    def max_staleness(self) -> int:
        """Largest entry age as of the most recent aggregation."""
        return int(np.max(self.ages))
