"""Window-cycle receive-rate model for loss-driven additive-increase transfer
over parallel paths.

The congestion window saws between floor(w_max/2) and w_max, where w_max is
the largest window whose sharing still fits inside every path's pipeline.
Each window value is one round: a round at window w delivers w messages at
the aggregate rate the sharing sustains, so the steady receive-rate is the
cycle's message total over the cycle's duration.  One search finds w_max
and the path whose pipeline bounds it, the one the next Interest would
overflow; for re/cf/fpf it is one placement walk that records each
window's aggregate rate, which the cycle adds up and then drops.  A
returned cycle keeps its numbers, its binding path and the range of its
windows, nothing per round.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice

from .core import Scenario, StrategyId, path_lanes, validate
from .sharing import placements
# Unused here; bench/tracing.py patches it and its traced run needs it.
from .sharing import sharing_function  # noqa: F401

# A window past this is a misconfigured scenario (runaway buffer or rate),
# not a workload worth modeling.
_SEARCH_CAP = 10_000_000


class ModelError(Exception):
    """No feasible window exists, or the search for one ran away."""


@dataclass(frozen=True)
class CycleStats:
    w_max: int
    t_interests: int     # messages delivered over one full cycle
    a_seconds: float     # duration of one full cycle
    y_msgs_per_s: float  # t_interests / a_seconds
    y_gross_bps: float   # receive-rate counting whole Data messages
    y_net_bps: float     # receive-rate counting payload bytes only
    rounds: range        # the cycle's windows w_lo..w_hi, one round each
    binding_path: int    # path the (w_max + 1)-th Interest overflows;
                         # pe/ug: the lowest-index path of least capacity


def _walk(scenario: Scenario, strategy: StrategyId):
    """The one search for w_max: `(w_max, binding_path, lanes, b)`.

    pe/ug: n*min(C), exact as the caps are integers ((n*c)/n == c); the
    paths of least capacity overflow first, together, and the lowest index
    binds.  re/cf/fpf: window w's allocation is the first w steps of one
    placement process, so one walk stops at its first overflow, whose path
    binds.  A step yields the placed path's pending count and RTT, so only
    that path's cap is checked and its rate pending/rtt traded into window
    w's aggregate rate b_w.  `b` records b_1..b_w_max, 8 bytes a step (None
    for pe/ug).  The runaway guard stops the walk after _SEARCH_CAP + 1.
    """
    problems = validate(scenario)
    if problems:
        raise ValueError("; ".join(problems))
    lanes = path_lanes(scenario)
    caps = [cap for _, _, cap in lanes]
    least = min(caps)
    binding = b = None
    if strategy in (StrategyId.PE, StrategyId.UG):
        w_hi, binding = len(caps) * least, caps.index(least)
    else:
        # re/cf fit every window up to min(caps), as no path holds more than
        # the whole window; fpf overflows no path while another has room, so
        # it walks to sum(caps).  Past the guard, either bound raises unwalked.
        w_hi = sum(caps) if strategy is StrategyId.FPF else least
        if w_hi <= _SEARCH_CAP:
            b = array("d")
            record = b.append
            per_path, b_w = [0.0] * len(caps), 0.0
            for i, p, rtt in islice(placements(scenario, strategy),
                                    _SEARCH_CAP + 1):
                # Only the path just placed on can have gone over its cap.
                if p > caps[i]:
                    break
                r = p / rtt
                # Old rate out, then new rate in: adding their difference
                # instead drifted 40 times further from an fsum of the rates
                # over a 50-path fpf walk.
                b_w = b_w - per_path[i] + r
                per_path[i] = r
                record(b_w)
            w_hi, binding = len(b), i
    if w_hi < 1:
        raise ModelError(
            "no feasible window: a single pending Interest already "
            "overflows a path")
    if w_hi > _SEARCH_CAP:
        raise ModelError(
            f"no window bound found below {_SEARCH_CAP}; "
            "path capacities look unbounded")
    return w_hi, binding, lanes, b


def wmax(scenario: Scenario, strategy: StrategyId) -> int:
    """Largest window whose sharing stays within every pipeline capacity,
    from the one search that cycle() also runs.  Raises ValueError for a
    scenario core.validate() rejects, ModelError if none fits or none is
    found below the runaway guard."""
    return _walk(scenario, strategy)[0]


def _rounds(lanes, w_lo: int, w_hi: int):
    """The pe/ug rounds' aggregate rates b_k, windows w_lo..w_hi in order:
    O(1) arithmetic a round after an O(n log n) sort.  (`_walk` records the
    re/cf/fpf rates.)

    At the even share x = w/n a path delivers x/(2·delay) until its
    backlog time x/rate passes 2·delay, and its rate after, so b_k is x
    times the unsaturated paths' sum of 1/(2·delay) plus the saturated
    paths' sum of rates.  Sorted once by saturation point 2·delay·rate, the
    saturated paths are a prefix that only grows with x; both sums come
    from arrays built once, not from a running total that would drift.
    """
    n = len(lanes)
    two_ds, rates, _ = zip(*lanes)
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
        yield x * unsat_inv[k] + sat_rate[k]


def cycle(scenario: Scenario, strategy: StrategyId) -> CycleStats:
    """Steady-state statistics of one halving-to-peak window cycle.

    Each window w_lo..w_hi is one round of rate b_k, from the walk's record
    (re/cf/fpf) or `_rounds` (pe/ug); the duration adds the rounds' w/b_k
    left to right from 0.0.  The record is dropped on return: a result
    holds O(1) memory, and `rounds` is the range of its windows.
    """
    w_hi, binding, lanes, b = _walk(scenario, strategy)
    # The halved window never drops below one Interest, so a cycle on a
    # one-Interest peak is the single round w == 1, not an empty round.
    w_lo = max(1, w_hi // 2)
    b_ks = islice(b, w_lo - 1, None) if b else _rounds(lanes, w_lo, w_hi)
    a_total = 0.0
    for w, b_k in zip(range(w_lo, w_hi + 1), b_ks):
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
        rounds=range(w_lo, w_hi + 1),
        binding_path=binding)
