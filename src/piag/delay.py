"""Bounded-staleness refresh schedules and the aggregated delayed gradient.

A schedule decides which component gradients are re-evaluated at the current
iterate each iteration.  The gradient table caches one gradient per component,
tracks how stale each entry is, and maintains the running aggregate used by
the solver step.  Staleness never exceeds the delay parameter ``tau``: every
schedule refreshes a component at the latest when its cached entry would
otherwise be used with age ``tau + 1``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import Problem, as_vector

Array = np.ndarray

_SCHEDULE_KINDS = ("none", "cyclic", "uniform_random", "adversarial_max")


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
        if self.kind not in _SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.tau < 0:
            raise ValueError("delay parameter tau must be nonnegative")
        if self.kind == "cyclic":
            if self.block is None or self.block < 1:
                raise ValueError("cyclic schedule requires a positive block size")
        if self.kind == "uniform_random" and self.seed is None:
            raise ValueError("uniform_random schedule requires a seed")

    def validate_for(self, n_components: int) -> None:
        """Reject configurations that cannot respect the delay bound."""
        if self.kind == "cyclic":
            min_block = math.ceil(n_components / (self.tau + 1))
            if self.block < min_block:
                raise ValueError(
                    f"cyclic block {self.block} too small for N={n_components}, "
                    f"tau={self.tau}; need at least {min_block}"
                )


def schedule_from_dict(obj: dict, default_tau: int | None = None,
                       default_seed: int | None = None) -> DelaySchedule:
    """Parse a schedule spec like ``{"kind": "cyclic", "block": 2, "tau": 5}``.

    ``tau`` and ``seed`` fall back to the given defaults when absent.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("schedule spec must be an object with a 'kind' field")
    unknown = sorted(set(obj) - {"kind", "tau", "block", "seed"})
    if unknown:
        raise ValueError(f"unknown field(s) {unknown} in schedule")
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
                     ages=None) -> set[int]:
    """Component indices to re-evaluate at iteration ``k``.

    ``ages`` are the staleness values recorded by the gradient table at the
    previous aggregation; they are required for the two age-driven kinds.
    Entries at age ``tau`` must be refreshed now, otherwise they would be used
    one iteration too stale.  The random subset drawn by ``uniform_random``
    is a pure function of ``(seed, k)``, so runs are reproducible.
    """
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    n = int(n_components)
    if schedule.kind == "none":
        return set(range(n))
    if schedule.kind == "cyclic":
        schedule.validate_for(n)
        start = (k * schedule.block) % n
        return {(start + j) % n for j in range(min(schedule.block, n))}
    if ages is None:
        raise ValueError(f"schedule kind {schedule.kind!r} requires the table ages")
    ages = np.asarray(ages)
    forced = {int(i) for i in np.nonzero(ages >= schedule.tau)[0]}
    if schedule.kind == "adversarial_max":
        return forced
    # uniform_random: forced refreshes plus an unbiased random subset.
    rng = np.random.default_rng([int(schedule.seed), int(k)])
    extra = np.nonzero(rng.random(n) < 1.0 / (schedule.tau + 1))[0]
    return forced | {int(i) for i in extra}


class StepWindow:
    """Squared norms of the last ``tau`` steps, for the delay-window sums.

    On its own it serves a loop that forms every gradient fresh: staleness 0.
    """

    def __init__(self, tau: int):
        if tau < 0:
            raise ValueError("delay parameter tau must be nonnegative")
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
    """Per-component gradient cache with ages, aggregate, and step history.

    The aggregate is updated incrementally (subtract old entry, add new one)
    and recomputed from scratch every ``recompute_every`` refresh cycles to
    bound floating-point drift.  A full refresh always triggers the exact
    recompute, which makes the zero-delay trajectory bitwise identical to a
    direct forward-backward loop.

    Single-owner mutable state; not safe for concurrent mutation.
    """

    def __init__(self, problem: Problem, x0, tau: int, recompute_every: int = 1000):
        super().__init__(tau)
        x0 = as_vector(x0, problem.dimension)
        self.recompute_every = int(recompute_every)
        n = problem.n_components
        self.entries = np.empty((n, problem.dimension))
        for i, comp in enumerate(problem.components):
            self.entries[i] = comp.grad(x0)
        self.ages = np.zeros(n, dtype=int)
        self.recompute_aggregate()
        self.refresh_cycles = 0

    def refresh_and_aggregate(self, problem: Problem, x, refresh_set) -> Array:
        """Re-evaluate the given components at ``x`` and return the aggregate.

        Entries are committed in ascending index order.  Ages are updated so
        that ``ages[i]`` is the staleness of entry ``i`` as used in the
        aggregate just returned.
        """
        x = as_vector(x, problem.dimension)
        n = len(self.entries)
        indices = sorted(int(i) for i in refresh_set)
        if indices and (indices[0] < 0 or indices[-1] >= n):
            raise ValueError("refresh set contains an out-of-range component index")
        first_cycle = self.refresh_cycles == 0
        self.refresh_cycles += 1
        full = len(indices) == n
        if full or self.refresh_cycles % self.recompute_every == 0:
            for i in indices:
                self.entries[i] = problem.components[i].grad(x)
            self.recompute_aggregate()
        else:
            for i in indices:
                fresh = problem.components[i].grad(x)
                self.aggregate = self.aggregate - self.entries[i] + fresh
                self.entries[i] = fresh
        # On the first cycle every entry was just evaluated at the start
        # point, which is the current iterate, so all ages stay 0.
        if not first_cycle:
            self.ages += 1
        self.ages[indices] = 0
        if np.any(self.ages > self.tau):
            worst = int(np.argmax(self.ages))
            raise RuntimeError(
                f"delay bound violated: component {worst} reached staleness "
                f"{int(self.ages[worst])} > tau={self.tau}"
            )
        return self.aggregate.copy()

    def max_staleness(self) -> int:
        """Largest entry age as of the most recent aggregation."""
        return int(np.max(self.ages))

    def recompute_aggregate(self) -> Array:
        """Exact index-order recomputation of the aggregate from the entries."""
        agg = np.zeros(self.entries.shape[1])
        for i in range(len(self.entries)):
            agg += self.entries[i]
        self.aggregate = agg
        return self.aggregate.copy()
