"""Bounded-staleness refresh schedules and the aggregated delayed gradient.

A schedule decides which component gradients are re-evaluated at the current
iterate each iteration.  The gradient table caches one gradient per component,
tracks how stale each entry is, and returns the sum of its entries as the
aggregate used by the solver step.  Staleness never exceeds the delay
parameter ``tau``: every schedule refreshes a component at the latest when its
cached entry would otherwise be used with age ``tau + 1``.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import INTEGER, TEXT, Problem, RowThreads, _component_grads, as_count, as_vector

Array = np.ndarray

SCHEDULE_KINDS = ("none", "cyclic", "uniform_random", "adversarial_max")
MAX_TAU = sys.maxsize  # the longest step window that a deque holds


@dataclass(frozen=True)
class DelaySchedule:
    """Refresh schedule spec; ``tau``, ``block`` and ``seed`` are kept as ints.
    Only ``cyclic`` reads ``block``, and any other kind refuses one.

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
        for name, value in (("tau", self.tau), ("block", self.block), ("seed", self.seed)):
            if value is not None or name == "tau":
                object.__setattr__(self, name, as_count(name, value))
        if self.tau < 0:
            raise ValueError("delay parameter tau must be nonnegative")
        if self.kind == "cyclic" and (self.block is None or self.block < 1):
            raise ValueError("cyclic schedule requires a positive block size")
        if self.kind != "cyclic" and self.block is not None:
            raise ValueError(f"block is for the cyclic schedule only, not {self.kind}")
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
    return math.ceil(as_count("n_components", n_components) / (as_count("tau", tau) + 1))


SCHEDULE_FIELDS = {"kind": TEXT, "tau": INTEGER, "block": INTEGER, "seed": INTEGER}


def next_refresh_set(schedule: DelaySchedule, k: int, n_components: int,
                     ages=None) -> Array:
    """Component indices to re-evaluate at iteration ``k``: a 1-D int array of distinct
    indices.  The gradient table also takes a set, list or range.

    ``ages`` are the staleness values recorded by the gradient table at the
    previous aggregation, one per component; the two age-driven kinds need them.
    Entries at age ``tau`` must be refreshed now, otherwise they would be used
    one iteration too stale.  The random subset drawn by ``uniform_random``
    is a pure function of ``(seed, k)``, so runs are reproducible.

    A ``cyclic`` window is a read-only view of an array that later calls
    share, so it cannot be written to.
    """
    if (k := as_count("k", k)) < 0:
        raise ValueError("iteration index must be nonnegative")
    if (n := as_count("n_components", n_components)) < 1:
        raise ValueError("component count must be positive")
    if ages is not None and (ages := np.asarray(ages)).shape != (n,):
        raise ValueError(f"ages of shape {ages.shape} do not hold one per component ({n})")
    if schedule.kind == "none":
        return np.arange(n)
    if schedule.kind == "cyclic":
        block = schedule.block
        start = (k * block) % n  # Python ints: k * block may exceed int64
        return _cyclic_ring(n, schedule.tau, block)[start:start + min(block, n)]
    if ages is None:
        raise ValueError(f"schedule kind {schedule.kind!r} requires the table ages")
    due = ages >= schedule.tau
    if schedule.kind == "uniform_random":  # plus an unbiased random subset
        rows = _mask_rows(n)
        first = k - k % rows
        due |= _random_masks(schedule.seed, n, schedule.tau, first, rows)[k - first]
    return due.nonzero()[0]


@functools.lru_cache(maxsize=8)
def _cyclic_ring(n: int, tau: int, block: int) -> Array:
    """``0, ..., n - 1`` followed by ``0, ..., min(block, n) - 2``: each
    window of a valid ``cyclic`` schedule is a slice of it, checked once here.
    Its memory is an immutable ``bytes``, so no view of it can be made
    writable."""
    DelaySchedule("cyclic", tau=tau, block=block).validate_for(n)
    ring = np.arange(n + min(block, n) - 1) % n
    return np.frombuffer(ring.tobytes(), dtype=ring.dtype)


#: ``uniform_random`` draws the masks of this many consecutive iterations in
#: one pass, or fewer when the masks would fill more than _MASK_BYTES.  A draw
#: (a fresh generator per iteration) takes ~7 us on a 2-core host with the
#: cache warm, and more right after a refresh has streamed the matrices
#: through the cache.  At most 31 draws (~0.2 ms) go unused when a run ends,
#: under 1% of a run of 1000 iterations at N=5, d=20 (~25 ms).
_MASK_ROWS = 32
_MASK_BYTES = 1 << 16


def _mask_rows(n_components: int) -> int:
    """Iterations of ``uniform_random`` masks drawn in one pass for ``n_components``."""
    return max(1, min(_MASK_ROWS, _MASK_BYTES // n_components))


@functools.lru_cache(maxsize=4)
def _random_masks(seed: int, n: int, tau: int, first: int, rows: int) -> Array:
    """Row ``j`` is ``default_rng([seed, first + j]).random(n) < 1 / (tau + 1)``,
    the random subset of iteration ``first + j``; read-only.

    Each generator is seeded with the 32-bit words that ``SeedSequence``
    makes of the list ``[seed, k]``, which skips its slower reading of a
    list and gives the same stream.
    """
    masks = np.empty((rows, n), dtype=bool)
    for j in range(rows):
        words = np.array(_uint32_words(seed) + _uint32_words(first + j), dtype=np.uint32)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
        np.less(rng.random(n), 1.0 / (tau + 1), out=masks[j])
    masks.flags.writeable = False
    return masks


def _uint32_words(value: int) -> list[int]:
    """The 32-bit words of the nonnegative ``value``, least significant first,
    at least one: how ``SeedSequence`` reads an int."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


class StepWindow:
    """Squared norms of the last ``tau`` steps, for the delay-window sums.

    On its own it serves a loop that forms every gradient fresh: staleness 0.
    """

    def __init__(self, tau: int):
        self.tau = as_count("tau", tau)
        if not 0 <= self.tau <= MAX_TAU:
            raise ValueError(f"delay parameter tau must lie in [0, {MAX_TAU}]")
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

        ``refresh_set`` is a 1-D array of integer indices, taken as it is
        when its dtype is ``intp``, or a set, list or range of them; a mask or
        float indices raise ``ValueError``.  Ages are updated so that
        ``ages[i]`` is the staleness of entry ``i`` as used in the aggregate
        just returned.
        """
        x = as_vector(x, problem.dimension)
        indices = _index_array(refresh_set)
        listed = indices.tolist()  # min and max of a short list beat the array's
        if listed and (min(listed) < 0 or max(listed) >= len(self.entries)):
            raise ValueError("refresh set contains an out-of-range component index")
        _component_grads(problem, x, listed, self.entries, self.threads)
        ages = self.ages
        if self.refreshed:
            ages += 1
            ages[indices] = 0
        self.refreshed = True
        if ages.max() > self.tau:
            worst = int(np.argmax(ages))
            raise RuntimeError(f"delay bound violated: component {worst} reached "
                               f"staleness {int(ages[worst])} > tau={self.tau}")
        return np.add.reduce(self.entries, axis=0)  # np.sum's reduction, minus its wrapper

    def max_staleness(self) -> int:
        """Largest entry age as of the most recent aggregation."""
        return int(np.max(self.ages))


def _index_array(refresh_set) -> Array:
    """``refresh_set`` as a 1-D ``intp`` array, the array itself when it is one."""
    if not isinstance(refresh_set, np.ndarray):
        refresh_set = np.asarray(list(refresh_set))
    if refresh_set.ndim != 1:
        raise ValueError(f"refresh set must be 1-D, got shape {refresh_set.shape}")
    if refresh_set.dtype != np.intp:
        if refresh_set.size and refresh_set.dtype.kind not in "iu":  # [] reads as floats
            raise ValueError(f"refresh set must hold integer component indices, "
                             f"got dtype {refresh_set.dtype}")
        refresh_set = refresh_set.astype(np.intp)
    return refresh_set
