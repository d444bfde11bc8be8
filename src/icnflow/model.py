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

from .core import Scenario, StrategyId, pipeline_capacity, rate_msgs, validate
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
    """Each round of the cycle as `(w, pending, per_rate, b_k)`, windows
    w_lo..w_hi in order: the one place a round's arithmetic is done.

    pe/ug split every window evenly; re/cf/fpf replay the walk's steps with
    no picks, and step w moves one path's pending and rate (linear in
    w_max).  b_k adds the per-path rates left to right from 0.0, the same
    on any Python.  `pending` and `per_rate` may be lists that the next
    round changes in place: copy what you keep.
    """
    paths = scenario.paths
    n = len(paths)
    rates = [rate_msgs(scenario, i) for i in range(n)]
    two_ds = [2.0 * p.delay for p in paths]
    if steps is None:
        share = sharing_function(strategy)
        for w in range(w_lo, w_hi + 1):
            pending = share(scenario, w)
            per_rate = []
            b_k = 0.0
            for x, rate, two_d in zip(pending, rates, two_ds):
                q = x / rate  # core.rtt: max(2·delay, pending/rate)
                r = x / (q if q > two_d else two_d)
                per_rate.append(r)
                b_k += r
            yield w, pending, per_rate, b_k
    else:
        pending = [0.0] * n
        per_rate = [0.0] * n
        for w, i in enumerate(steps, 1):
            x = pending[i] = pending[i] + 1.0
            q = x / rates[i]  # core.rtt, as above
            two_d = two_ds[i]
            per_rate[i] = x / (q if q > two_d else two_d)
            if w >= w_lo:
                b_k = 0.0
                for r in per_rate:
                    b_k += r
                yield w, pending, per_rate, b_k


class _Rounds:
    """A cycle's rounds, built only while iterated: a sized, re-iterable
    view that keeps the walk's steps, not the rounds.  len() builds
    nothing; each iteration replays the steps and builds one RoundStats
    per round."""

    __slots__ = ("_args",)

    def __init__(self, scenario, strategy, w_lo, w_hi, steps):
        self._args = (scenario, strategy, w_lo, w_hi, steps)

    def __len__(self):
        return self._args[3] - self._args[2] + 1

    def __iter__(self):
        for w, pending, per_rate, b_k in _rounds(*self._args):
            yield RoundStats(w, tuple(pending), tuple(per_rate), b_k, w / b_k)


def cycle(scenario: Scenario, strategy: StrategyId) -> CycleStats:
    """Steady-state statistics of one halving-to-peak window cycle.

    Each window w_lo..w_hi is one round (see `_rounds`).  The cycle's
    duration adds the rounds' w/b_k left to right from 0.0 straight from
    the walk, with no per-round objects, so a cycle holds O(n + w_max)
    memory; `rounds` builds the RoundStats only when iterated.
    """
    w_hi, binding, steps = _walk(scenario, strategy)
    # The halved window never drops below one Interest, so a cycle on a
    # one-Interest peak is the single round w == 1, not an empty round.
    w_lo = max(1, w_hi // 2)
    a_total = 0.0
    for w, _, _, b_k in _rounds(scenario, strategy, w_lo, w_hi, steps):
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
