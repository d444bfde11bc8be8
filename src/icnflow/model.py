"""Window-cycle receive-rate model for loss-driven additive-increase transfer
over parallel paths.

The congestion window saws between floor(w_max/2) and w_max, where w_max is
the largest window whose sharing still fits inside every path's pipeline.
Each window value is one round: a round at window w delivers w messages at
the aggregate rate b(w) the sharing sustains, so the steady receive-rate is
the cycle's message total over the cycle's duration, the sum of w/b(w).

One search finds w_max and the path whose pipeline bounds it, the one the
next Interest would overflow.  pe/ug: in closed form.  re/cf/fpf: by
counting each path's keys below the first overflow, with no walk.  The
duration is then a sum over pieces, runs of windows where b(w) is constant
or linear in w: pe/ug have one piece per saturation point and re/fpf a few
per distinct 2·delay.  cf's b(w) moves at nearly every window, so its
cycle walks its placements to w_max and adds each window's term as it goes.
A returned cycle keeps its numbers, its binding path and the range of its
windows, nothing per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Scenario, StrategyId, path_lanes
from .sharing import count_below, first_overflow, keys_below, placements
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


def _search(scenario: Scenario, strategy: StrategyId):
    """The one search for w_max: `(w_max, binding_path, lanes, found)`.

    pe/ug: n*min(C), exact as the caps are integers ((n*c)/n == c); the
    paths of least capacity overflow first, together, and the lowest index
    binds.  re/cf/fpf: the least key at cap binds; fpf fills every cap
    before it, re and cf every key below it, so `found` is each path's count
    at w_max.  The runaway guard compares the count with _SEARCH_CAP.
    `core.path_lanes` raises ValueError for a scenario validate() rejects.
    """
    lanes = path_lanes(scenario)
    caps = [cap for _, _, cap in lanes]
    found = None
    if strategy in (StrategyId.PE, StrategyId.UG):
        least = min(caps)
        w_hi, binding = len(caps) * least, caps.index(least)
    else:
        key = first_overflow(lanes, strategy)
        found = (caps if strategy is StrategyId.FPF else
                 [keys_below(lane, i, key, strategy)
                  for i, lane in enumerate(lanes)])
        w_hi, binding = sum(found), key[2]
    if w_hi < 1:
        raise ModelError(
            "no feasible window: a single pending Interest already "
            "overflows a path")
    if w_hi > _SEARCH_CAP:
        raise ModelError(
            f"no window bound found below {_SEARCH_CAP}; "
            "path capacities look unbounded")
    return w_hi, binding, lanes, found


def wmax(scenario: Scenario, strategy: StrategyId) -> int:
    """Largest window whose sharing stays within every pipeline capacity,
    from the one search that cycle() also runs.  Raises ValueError for a
    scenario core.validate() rejects, ModelError if none fits or none is
    found below the runaway guard."""
    return _search(scenario, strategy)[0]


# ---------------------------------------------------------------------------
# pieces: (w1, w2, c, k, a), windows w1..w2 whose round rate is b(w) = c
# when k is 0, else (w + a)/k

def _even_pieces(lanes, w_hi: int):
    """The pe/ug pieces up to w_hi: one per count of saturated paths.

    At the even share x = w/n a path delivers x/(2·delay) until its backlog
    time x/rate passes 2·delay, and its rate after, so b(w) is x times the
    unsaturated paths' sum of 1/(2·delay) plus the saturated paths' sum of
    rates.  Sorted once by saturation point 2·delay·rate, the saturated
    paths are a prefix that only grows with x; both sums come from arrays
    built once, not from a running total that would drift.
    """
    n = len(lanes)
    two_ds, rates, _ = zip(*lanes)
    order = sorted(range(n), key=lambda i: two_ds[i] * rates[i])
    # sat_rate[j]: rates of the first j paths in `order`, added left to
    # right; unsat_inv[j]: 1/(2·delay) of the others, added right to left.
    sat_rate, unsat_inv = [0.0] * (n + 1), [0.0] * (n + 1)
    for j, i in enumerate(order):
        sat_rate[j + 1] = sat_rate[j] + rates[i]
    for j in range(n - 1, -1, -1):
        unsat_inv[j] = unsat_inv[j + 1] + 1.0 / two_ds[order[j]]
    w = 1
    for j, i in enumerate(order):
        # The first window past path i's pipe, where the backlog time
        # w/(n·rate) passes 2·delay, or w_hi + 1.
        end = min(count_below(two_ds[i], rates[i] * n, True), w_hi + 1)
        if end > w:
            # b = (w/n)·unsat_inv + sat_rate = (w + a)/k, k = n/unsat_inv
            k = n / unsat_inv[j]
            yield w, end - 1, 0.0, k, sat_rate[j] * n / unsat_inv[j]
            w = end
    if w <= w_hi:
        yield w, w_hi, sat_rate[n], 0, 0.0


def _fill_pieces(lanes, held):
    """The re/fpf pieces over windows 1..sum(held): path i places its keys
    of pending 0..held[i]-1, every path's in key order.

    A path's rate is min(p/(2·delay), rate), so only a placement below its
    pipe moves b, and its key there is exactly 2·delay.  So between two
    distinct 2·delay values b stays constant: the keys placed there are
    saturated.  At one value d, the keys go by pending then index, so the
    paths of that 2·delay fill a round each pending count, and b rises by
    1/d a placement, except where a path fills its pipe (its rate becomes
    `rate`) or a placement is saturated (a path past its pipe whose key
    ties d).  The paths with saturated keys left after their fill are
    counted at every later d: their keys below it are placed before it.
    """
    levels = {}
    for i, (lane, h) in enumerate(zip(lanes, held)):
        if h:
            levels.setdefault(lane[0], []).append(i)
    pieces = []
    pos = 0       # windows placed
    settled = []  # each settled path's rate: saturated, or full below it
    c = 0.0       # math.fsum(settled)
    later = []    # [path, placed, last key's value] of the paths with
                  # saturated keys left

    def put(w, n, c, k=0, a=0.0):
        # Windows w+1..w+n; a constant run extends one of equal rate.
        if n:
            w1 = w + 1
            if not k and pieces and not pieces[-1][3] and pieces[-1][2] == c:
                w1 = pieces.pop()[0]
            pieces.append((w1, w + n, c, k, a))

    for d in sorted(levels):
        # (path, first pending, end, first pending that is not a fill step,
        # the path's rate if that step fills its pipe, else None)
        members, left, gap = [], [], 0
        for entry in later:
            i, placed, last = entry
            h = held[i]
            if last < d:  # its last key is below d
                gap += h - placed
                continue
            r = lanes[i][1]
            lt = count_below(d, r)
            gap += lt - placed
            entry[1] = lt
            if lt / r == d:  # saturated keys that tie d exactly
                entry[1] = min(h, count_below(d, r, True))
                members.append((i, lt, entry[1], lt, None))
            if entry[1] < h:
                left.append(entry)
        later = left
        put(pos, gap, c)
        pos += gap
        capped = []  # the rate of a path capped below its pipe
        for i in levels[d]:
            r, h = lanes[i][1], held[i]
            end = min(h, count_below(d, r, True))  # its keys of value d
            full = count_below(r, d)  # its rate is p/d below this, r from it
            if full <= end:
                members.append((i, 0, end, full - 1, r))
            else:
                members.append((i, 0, end, end, None))
                capped.append(end / d)
            if end < h:
                later.append([i, end, (h - 1) / r])
        q = 0  # pending on this level's paths still below their pipe
        for kind, run, x in _level_runs(members):
            if kind == "X":  # a path, holding x[0], fills its pipe
                q -= x[0]
                settled.append(x[1])
                c = math.fsum(settled)
            if kind == "F":  # b = c + (q + w - pos)/d = (w + a)/d
                put(pos, run, 0.0, d, c * d - (pos - q))
                q += run
            else:
                put(pos, run, c + q / d)
            pos += run
        if capped:
            settled.extend(capped)
            c = math.fsum(settled)
    put(pos, sum(held[i] - placed for i, placed, _ in later), c)
    return pieces


def _level_runs(members):
    """One level's placements in order, as runs `(kind, length, x)`: "F"
    fill steps, "Z" saturated steps, and "X" the step that fills a path's
    pipe, x its pending before it and its rate.  `members` are (path, lo,
    hi, f, r): the path places at pending lo..hi-1, fill steps below f, and
    at f an "X" step if its rate r is given, saturated steps after.

    Only the steps from f on are not fill steps, a few per member; the
    position of each among the level's keys, by pending then path, is a
    count per member, and fill steps run between them.
    """
    if len(members) == 1:  # one path alone: its pending is its position
        _, lo, hi, f, r = members[0]
        runs = [("F", f - lo, None)] if f > lo else []
        if r is not None:
            runs.append(("X", 1, (f, r)))
            f += 1
        return runs + [("Z", hi - f, None)] if hi > f else runs
    runs, at = [], 0
    for p, i, r in sorted((p, i, r if p == f else None)
                          for i, lo, hi, f, r in members
                          for p in range(f, hi)):
        pos = sum(min(max(p + (j < i), lo), hi) - lo
                  for j, lo, hi, _, _ in members)
        if pos > at:
            runs.append(("F", pos - at, None))
        runs.append(("Z", 1, None) if r is None else ("X", 1, (p, r)))
        at = pos + 1
    end = sum(hi - lo for _, lo, hi, _, _ in members)
    return runs + [("F", end - at, None)] if end > at else runs


# ---------------------------------------------------------------------------
# the sum over pieces

# ψ(x) = ln x - 1/(2x) - Σ B_2k/(2k x^2k), k = 1..5 (Abramowitz & Stegun
# 6.3.18).  From x = 16 on, the first term left out is below 1e-16.
_PSI_FROM = 16.0


def _psi_tail(x):
    """Σ B_2k/(2k x^2k), k = 1..5: ln x - 1/(2x) - ψ(x)."""
    u = 1.0 / (x * x)
    return u * (1 / 12 - u * (1 / 120 - u * (1 / 252 - u * (1 / 240
                                                          - u / 132))))


def _log1p_gap(y):
    """y - log1p(y) for y > 0, without the difference's cancellation when y
    is small: with t = y/(2 + y), log1p(y) = 2·atanh(t) and y = 2t/(1 - t),
    so it is 2t²/(1 - t) - 2(t³/3 + t⁵/5 + ...), t <= 1/3."""
    if y >= 1.0:
        return y - math.log1p(y)
    t = y / (2.0 + y)
    t2 = t * t
    series, power, k = 0.0, t * t2, 3
    while power > 1e-18 * t2:
        series += power / k
        power *= t2
        k += 2
    return 2.0 * t2 / (1.0 - t) - 2.0 * series


def _ratio_sum(w1: int, w2: int, a: float) -> float:
    """Σ w/(w + a) over w = w1..w2, every w + a > 0, in O(1) arithmetic.

    With x1 = w1 + a, n = w2 - w1 + 1 and x2 = x1 + n, Σ 1/(w + a) =
    ψ(x2) - ψ(x1) = log1p(n/x1) + n/(2·x1·x2) + tail(x1) - tail(x2), and
    the sum is n - a·(that).  For a > 0 the difference cancels when a is
    large against w, so it is taken apart: n - a·n/x1 = n·w1/x1, and y -
    log1p(y) has its own series.  The first windows, while x < 16, are
    added one by one.
    """
    total = 0.0
    while w1 <= w2 and w1 + a < _PSI_FROM:
        total += w1 / (w1 + a)
        w1 += 1
    if w1 > w2:
        return total
    n = w2 - w1 + 1
    x1 = w1 + a
    x2 = x1 + n
    y = n / x1
    rest = n / (2.0 * x1 * x2) + _psi_tail(x1) - _psi_tail(x2)
    if a <= 0:
        return total + (n - a * (math.log1p(y) + rest))
    return total + (n * w1 / x1 + a * (_log1p_gap(y) - rest))


def _seconds(pieces, w_lo: int, w_hi: int) -> float:
    """Σ w/b(w) over windows w_lo..w_hi, as one math.fsum of a part per
    piece: an arithmetic series over one rate, or, with b linear in w, a
    sum of w/(w + a) times a factor."""
    parts = []
    for w1, w2, c, k, a in pieces:
        if w2 < w_lo:
            continue
        if w1 > w_hi:
            break
        if w1 < w_lo:
            w1 = w_lo
        if w2 > w_hi:
            w2 = w_hi
        parts.append(k * _ratio_sum(w1, w2, a) if k
                     else (w1 + w2) * (w2 - w1 + 1) // 2 / c)
    return math.fsum(parts)


def cycle(scenario: Scenario, strategy: StrategyId) -> CycleStats:
    """Steady-state statistics of one halving-to-peak window cycle.

    Each window w_lo..w_hi is one round of rate b(w); the duration adds
    w/b(w) over the strategy's pieces, or for cf over the windows of one
    walk of w_max placements, which keeps only each path's rate.  A result
    holds O(1) memory, and `rounds` is the range of its windows.
    """
    w_hi, binding, lanes, found = _search(scenario, strategy)
    # The halved window never drops below one Interest, so a cycle on a
    # one-Interest peak is the single round w == 1, not an empty round.
    w_lo = max(1, w_hi // 2)
    if strategy is StrategyId.CF:
        a_total, per_path, b_w = 0.0, [0.0] * len(lanes), 0.0
        # range first: zip stops before it draws placement w_max + 1.
        for w, (i, p, rtt) in zip(range(1, w_hi + 1), placements(lanes)):
            r = p / rtt
            # Old rate out, then new rate in: adding their difference
            # instead drifted 40 times further from an fsum of the rates
            # over a 50-path walk.
            b_w = b_w - per_path[i] + r
            per_path[i] = r
            if w >= w_lo:
                a_total += w / b_w
    else:
        a_total = _seconds(_even_pieces(lanes, w_hi) if found is None
                           else _fill_pieces(lanes, found), w_lo, w_hi)
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
