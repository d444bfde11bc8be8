"""Window-cycle receive-rate model for loss-driven additive-increase transfer
over parallel paths.

The congestion window saws between floor(w_max/2) and w_max, where w_max is
the largest window whose sharing still fits inside every path's pipeline.
Each window value is one round: a round at window w delivers w messages at
the aggregate rate the sharing sustains, so the steady receive-rate is the
cycle's message total over the cycle's duration.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    rounds: tuple[RoundStats, ...]


def wmax(scenario: Scenario, strategy: StrategyId) -> int:
    """Largest window whose sharing stays within every pipeline capacity.

    pe/ug: n*min(C), exact because the caps are integers ((n*c)/n == c).
    fpf: sum(C), as it overflows no path while another still has room.
    re/cf: window w's allocation is the first w steps of one placement
    process, so one walk stops at its first overflow; w_max is the step
    before it.  Raises ValueError for a scenario core.validate() rejects.
    """
    problems = validate(scenario)
    if problems:
        raise ValueError("; ".join(problems))
    caps = [pipeline_capacity(p, rate_msgs(scenario, i))
            for i, p in enumerate(scenario.paths)]
    if strategy in (StrategyId.PE, StrategyId.UG):
        w_hi = len(caps) * min(caps)
    elif strategy is StrategyId.FPF:
        w_hi = sum(caps)
    elif min(caps) > _SEARCH_CAP:
        # No path holds more than the whole window, so every window up to
        # min(caps) fits: w_max >= min(caps) is past the guard, no walk needed.
        w_hi = min(caps)
    else:
        w_hi = -1  # the last window that fit, as the walk goes
        for faces in placements(scenario, strategy):
            if w_hi > _SEARCH_CAP or any(
                    f.pending > c for f, c in zip(faces, caps)):
                break
            w_hi += 1
    if w_hi < 1:
        raise ModelError(
            "no feasible window: a single pending Interest already "
            "overflows a path")
    if w_hi > _SEARCH_CAP:
        raise ModelError(
            f"no window bound found below {_SEARCH_CAP}; "
            "path capacities look unbounded")
    return w_hi


def cycle(scenario: Scenario, strategy: StrategyId) -> CycleStats:
    """Steady-state statistics of one halving-to-peak window cycle.

    Each window w_lo..w_hi is one round.  pe/ug split every window evenly;
    re/cf/fpf read window w as step w of one placement walk (linear in w_max).
    """
    w_hi = wmax(scenario, strategy)
    # The halved window never drops below one Interest, so a cycle on a
    # one-Interest peak is the single round w == 1, not an empty round.
    w_lo = max(1, w_hi // 2)
    windows = range(w_lo, w_hi + 1)
    if strategy in (StrategyId.PE, StrategyId.UG):
        share = sharing_function(strategy)
        allocations = (share(scenario, w) for w in windows)
    else:
        allocations = (tuple(float(f.pending) for f in faces) for faces in
                       islice(placements(scenario, strategy), w_lo, w_hi + 1))
    n = len(scenario.paths)
    paths = scenario.paths
    rates = [rate_msgs(scenario, i) for i in range(n)]

    rounds = []
    t_total = 0
    a_total = 0.0
    for w, per in zip(windows, allocations):
        per_rate = tuple(per[i] / rtt(paths[i], per[i], rates[i])
                         for i in range(n))
        b_k = sum(per_rate)
        x_k = w / b_k
        rounds.append(RoundStats(w, per, per_rate, b_k, x_k))
        t_total += w
        a_total += x_k
    y = t_total / a_total
    return CycleStats(
        w_max=w_hi,
        t_interests=t_total,
        a_seconds=a_total,
        y_msgs_per_s=y,
        y_gross_bps=y * 8.0 * scenario.data_msg_bytes,
        y_net_bps=y * 8.0 * scenario.payload_bytes,
        rounds=tuple(rounds))

