"""Window-cycle receive-rate model for loss-driven additive-increase transfer
over parallel paths.

The congestion window saws between floor(w_max/2) and w_max, where w_max is
the largest window whose sharing still fits inside every path's pipeline.
Each window value is one round: a round at window w delivers w messages at
the aggregate rate the sharing sustains, so the steady receive-rate is the
cycle's message total over the cycle's duration.  One search finds w_max
and the path whose pipeline bounds it, the one the next Interest would
overflow; for re/cf/fpf it is a placement walk whose steps the cycle
replays as its rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from .core import (Scenario, StrategyId, pipeline_capacity, rate_msgs, rtt,
                   validate)
from .sharing import placements, sharing_function

# A window past this is a misconfigured scenario (runaway buffer or rate),
# not a workload worth modeling.
_SEARCH_CAP = 10_000_000


class ModelError(Exception):
    """No feasible window exists, or the search for one ran away."""


@dataclass(frozen=True)
class RoundStats:
    w_k: int                             # window held during this round
    per_path_pending: tuple[float, ...]  # how the window spreads over paths
    per_path_rate: tuple[float, ...]     # msgs/s each path contributes
    b_k: float                           # aggregate delivery rate, msgs/s
    x_k: float                           # round duration, seconds


@dataclass(frozen=True)
class CycleStats:
    w_max: int
    t_interests: int     # messages delivered over one full cycle
    a_seconds: float     # duration of one full cycle
    y_msgs_per_s: float  # t_interests / a_seconds
    y_gross_bps: float   # receive-rate counting whole Data messages
    y_net_bps: float     # receive-rate counting payload bytes only
    rounds: _Rounds = field(compare=False, repr=False)  # built while iterated
    binding_path: int    # path the (w_max + 1)-th Interest overflows;
                         # pe/ug: the lowest-index path of least capacity


def _walk(scenario: Scenario, strategy: StrategyId):
    """The one search for w_max: `(w_max, binding_path, steps)`.

    pe/ug: n*min(C), exact as the caps are integers ((n*c)/n == c); the
    paths of least capacity overflow first, together, and the lowest index
    binds.  re/cf/fpf: window w's allocation is the first w steps of one
    placement process, so one walk stops at its first overflow, whose path
    binds.  Each step yields the placed path's new pending count, and only
    that path's cap is checked.  The runaway guard stops the walk after
    _SEARCH_CAP + 1 steps.  `steps` lists the first w_max placed paths
    (None for pe/ug).
    """
    problems = validate(scenario)
    if problems:
        raise ValueError("; ".join(problems))
    caps = [pipeline_capacity(p, rate_msgs(scenario, i))
            for i, p in enumerate(scenario.paths)]
    least = min(caps)
    binding = steps = None
    if strategy in (StrategyId.PE, StrategyId.UG):
        w_hi, binding = len(caps) * least, caps.index(least)
    else:
        # re/cf fit every window up to min(caps), as no path holds more than
        # the whole window; fpf overflows no path while another has room, so
        # it walks to sum(caps).  Past the guard, either bound raises unwalked.
        w_hi = sum(caps) if strategy is StrategyId.FPF else least
        if w_hi <= _SEARCH_CAP:
            steps = []
            for i, p in islice(placements(scenario, strategy),
                               _SEARCH_CAP + 1):
                # Only the path just placed on can have gone over its cap.
                if p > caps[i]:
                    break
                steps.append(i)
            w_hi, binding = len(steps), i
    if w_hi < 1:
        raise ModelError(
            "no feasible window: a single pending Interest already "
            "overflows a path")
    if w_hi > _SEARCH_CAP:
        raise ModelError(
            f"no window bound found below {_SEARCH_CAP}; "
            "path capacities look unbounded")
    return w_hi, binding, steps


def wmax(scenario: Scenario, strategy: StrategyId) -> int:
    """Largest window whose sharing stays within every pipeline capacity,
    from the one search that cycle() also runs.  Raises ValueError for a
    scenario core.validate() rejects, ModelError if none fits or none is
    found below the runaway guard."""
    return _walk(scenario, strategy)[0]


def _rounds(scenario: Scenario, strategy: StrategyId, w_lo: int, w_hi: int,
            steps):
    """Each round of the cycle as `(w, pending, b_k)`, windows w_lo..w_hi
    in order: the one place a round's aggregate rate is made, in O(1)
    arithmetic per round.

    pe/ug: at the even share x = w/n a path delivers x/(2·delay) until its
    backlog time x/rate passes 2·delay, and its rate after, so b_k is x
    times the unsaturated paths' sum of 1/(2·delay) plus the saturated
    paths' sum of rates.  Sorted once by saturation point 2·delay·rate, the
    saturated paths are a prefix that only grows with x; both sums come
    from arrays built once, not from a running total that would drift.
    `pending` is None: the rounds view builds the even split.
    re/cf/fpf replay the walk's steps with no picks; step w moves one
    path's pending and rate, and b_k trades its old rate for the new.
    `pending` is a list the next round changes in place: copy what you
    keep.  Either way the rounds cost O(n log n + w_max).
    """
    paths = scenario.paths
    n = len(paths)
    rates = [rate_msgs(scenario, i) for i in range(n)]
    two_ds = [2.0 * p.delay for p in paths]
    if steps is None:
        order = sorted(range(n), key=lambda i: two_ds[i] * rates[i])
        # sat_rate[k]: rates of the first k paths in `order`, added left to
        # right; unsat_inv[k]: 1/(2·delay) of the others, added right to left.
        sat_rate, unsat_inv = [0.0] * (n + 1), [0.0] * (n + 1)
        for k, i in enumerate(order):
            sat_rate[k + 1] = sat_rate[k] + rates[i]
        for k in range(n - 1, -1, -1):
            unsat_inv[k] = unsat_inv[k + 1] + 1.0 / two_ds[order[k]]
        k = 0
        for w in range(w_lo, w_hi + 1):
            x = w / n
            # core.rtt's test: the backlog time passes the propagation floor.
            while k < n and x / rates[order[k]] > two_ds[order[k]]:
                k += 1
            yield w, None, x * unsat_inv[k] + sat_rate[k]
    else:
        pending = [0.0] * n
        per_rate = [0.0] * n
        b_k = 0.0
        for w, i in enumerate(steps, 1):
            x = pending[i] = pending[i] + 1.0
            q = x / rates[i]  # core.rtt: max(2·delay, pending/rate)
            two_d = two_ds[i]
            r = x / (q if q > two_d else two_d)
            # Old rate out, then new rate in: adding their difference
            # instead drifted 40 times further from an fsum of the rates
            # over a 50-path fpf walk.
            b_k = b_k - per_rate[i] + r
            per_rate[i] = r
            if w >= w_lo:
                yield w, pending, b_k


class _Rounds:
    """A cycle's rounds, built only while iterated: a sized, re-iterable
    view that keeps the walk's steps, not the rounds.  len() builds
    nothing; each iteration replays the steps and builds one RoundStats
    per round, its per-path rates from core.rtt and b_k from `_rounds`."""

    __slots__ = ("_args",)

    def __init__(self, scenario, strategy, w_lo, w_hi, steps):
        self._args = (scenario, strategy, w_lo, w_hi, steps)

    def __len__(self):
        return self._args[3] - self._args[2] + 1

    def __iter__(self):
        scenario, strategy = self._args[:2]
        paths = scenario.paths
        rates = [rate_msgs(scenario, i) for i in range(len(paths))]
        even_split = sharing_function(strategy)  # read for pe/ug only
        for w, pending, b_k in _rounds(*self._args):
            pending = tuple(even_split(scenario, w) if pending is None
                            else pending)
            per_rate = tuple(x / rtt(p, x, r)
                             for p, x, r in zip(paths, pending, rates))
            yield RoundStats(w, pending, per_rate, b_k, w / b_k)


def cycle(scenario: Scenario, strategy: StrategyId) -> CycleStats:
    """Steady-state statistics of one halving-to-peak window cycle.

    Each window w_lo..w_hi is one round (see `_rounds`), of O(1)
    arithmetic.  The cycle's duration adds the rounds' w/b_k left to right
    from 0.0 straight from `_rounds`, with no per-round objects and no
    per-path tuples, so the rounds cost O(n log n + w_max) time beside the
    re/cf/fpf walk, and a cycle holds O(n + w_max) memory; `rounds` builds
    the RoundStats only when iterated.
    """
    w_hi, binding, steps = _walk(scenario, strategy)
    # The halved window never drops below one Interest, so a cycle on a
    # one-Interest peak is the single round w == 1, not an empty round.
    w_lo = max(1, w_hi // 2)
    a_total = 0.0
    for w, _, b_k in _rounds(scenario, strategy, w_lo, w_hi, steps):
        a_total += w / b_k
    t_total = (w_lo + w_hi) * (w_hi - w_lo + 1) // 2
    y = t_total / a_total
    return CycleStats(
        w_max=w_hi,
        t_interests=t_total,
        a_seconds=a_total,
        y_msgs_per_s=y,
        y_gross_bps=y * 8.0 * scenario.data_msg_bytes,
        y_net_bps=y * 8.0 * scenario.payload_bytes,
        rounds=_Rounds(scenario, strategy, w_lo, w_hi, steps),
        binding_path=binding)
