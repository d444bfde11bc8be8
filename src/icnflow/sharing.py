"""Forwarding strategies, seen from both sides of the package.

`picker` is each strategy's per-Interest forwarding rule, as the simulator
runs it.  `sharing_function` is its long-run allocation: a window size H
maps to the average number of pending Interests on every path.  pe/ug
split H evenly.  re/cf/fpf each have one placement process that puts one
Interest at a time on the path of least key (value, pending, index), and
their allocation is that process's first H steps.  re's and fpf's process
is the simulator's own picker before any Data comes back, on the value
max(2·delay, pending/rate), fpf below every pipeline cap first.  cf's is
`placements`, a heap walk on the model's pending/sqrt(RTT) rule, because
the simulator's cf is a stride over 1/pending.

The model reads no allocation: as a path's key rises with its own pending
count, the placement order is the sorted order of every path's keys, so
the model counts that process path by path (`keys_below` at
`first_overflow`) and walks `placements` only for cf's cycle, which needs
each window's rate.  The allocation tests and the bench's tracer call
`sharing_function`.  Every allocation sums to H, is never negative and
only grows with H.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import islice

from .core import Scenario, StrategyId, path_lanes
# Unused here; bench/tracing.py patches it and its traced run needs it.
from .core import rtt  # noqa: F401


@dataclass(slots=True)
class FaceState:
    pending: int = 0             # Interests outstanding on this face
    srtt: float | None = None    # smoothed RTT, kept by the simulator only
                                 # under ug; None until the first sample
    rr_credit: float = 0.0       # deficit counter for the weighted round robins
    est_capacity: float | None = None  # learned pipeline size (estimated fpf)


# ---------------------------------------------------------------------------
# per-Interest face selection
#
# Every picker makes one pass over the faces and keeps the least key seen so
# far (keys are finite).  Exact ties fall to the lowest index or, when an rng
# is supplied, to a seeded random choice among the tied faces in index
# order; only such a tie builds a list.

def picker(strategy: StrategyId, faces, lanes, estimated_caps: bool, rng):
    """The strategy's forwarding rule as a no-argument picker over `faces`,
    whose paths' `core.path_lanes` are `lanes`; it checks nothing.

    Each call returns the face for one outgoing Interest, reading the live
    face state; ug/cf calls also move the round-robin credits.  re/fpf read
    each lane's 2·delay and rate, and fpf its capacity; with
    `estimated_caps`, fpf caps a face at its learned `est_capacity` instead.
    """
    indexed = list(enumerate(faces))

    def least_pending():
        best, tied, bp = None, None, math.inf
        for i, f in indexed:
            p = f.pending
            if p < bp:
                best, bp, tied = i, p, None
            elif p == bp and rng is not None:
                tied = tied or [best]
                tied.append(i)
        return best if tied is None else rng.choice(tied)

    weights = [0.0] * len(faces)  # refilled by every ug/cf call

    def stride(w_sum):
        # Stride scheduling: every dispatch grants each face credit in
        # proportion to its weight and the winner pays one unit, so long-run
        # dispatch shares follow the weights.  The caller fills `weights` and
        # adds them up left to right from 0.0 as it goes: sum() has used
        # compensated summation since Python 3.12, which gives other floats.
        best, tied, bk, bp = None, None, math.inf, 0
        for i, f in indexed:
            f.rr_credit += weights[i] / w_sum
            k, p = -f.rr_credit, f.pending
            if k < bk or k == bk and p < bp:
                best, bk, bp, tied = i, k, p, None
            elif k == bk and p == bp and rng is not None:
                tied = tied or [best]
                tied.append(i)
        i = best if tied is None else rng.choice(tied)
        faces[i].rr_credit -= 1.0
        return i

    if strategy is StrategyId.PE:
        return least_pending

    if strategy is StrategyId.UG:
        def pick_ug():
            # Weights 1/srtt; unsampled faces borrow the best known srtt.
            probe, w_sum = None, 0.0
            for i, f in indexed:
                s = f.srtt
                if s is None:
                    if probe is None:
                        probe = math.inf
                        for g in faces:  # the least sampled srtt, or 1.0
                            if g.srtt is not None and g.srtt < probe:
                                probe = g.srtt
                        if probe == math.inf:
                            probe = 1.0
                    s = probe
                w = weights[i] = 1.0 / s
                w_sum += w
            return stride(w_sum)
        return pick_ug

    if strategy is StrategyId.CF:
        def pick_cf():
            w_sum = 0.0
            for i, f in indexed:
                p = f.pending
                if p == 0:
                    # An idle face has unbounded weight: take it at once.  As
                    # pending is never negative, the idle faces are the least.
                    return least_pending()
                w = weights[i] = 1.0 / p
                w_sum += w
            return stride(w_sum)
        return pick_cf

    if strategy not in (StrategyId.RE, StrategyId.FPF):
        raise ValueError(f"unknown strategy {strategy!r}")

    # re and fpf: lowest current round trip wins, pending then index break
    # ties, so identical paths interleave instead of piling onto one face.
    # The round trip is core.rtt, queue-aware: the propagation floor or the
    # time the current backlog needs to drain, whichever dominates.  The
    # re/fpf allocation replays this picker, the model counts its order
    # (`keys_below`), and a test keeps that count equal to its dispatches.
    oracle = strategy is StrategyId.FPF and not estimated_caps
    # A face holding fewer than `below` keys 2·delay, its floor, with no
    # division: p/rate < 2·delay exactly when p < below.
    rtt_lanes = [(i, f, two_d, rate, count_below(two_d, rate),
                  cap if oracle else None)
                 for (i, f), (two_d, rate, cap) in zip(indexed, lanes)]

    def least_rtt(capped=False):
        best, tied, bk, bp = None, None, math.inf, 0
        for i, f, two_d, rate, below, cap in rtt_lanes:
            p = f.pending
            if capped:
                if estimated_caps:
                    cap = f.est_capacity  # None until learned: no cap
                if cap is not None and p >= cap:
                    continue
            k = two_d if p < below else p / rate  # max(2·delay, pending/rate)
            if k < bk or k == bk and p < bp:
                best, bk, bp, tied = i, k, p, None
            elif k == bk and p == bp and rng is not None:
                tied = tied or [best]
                tied.append(i)
        return best if tied is None else rng.choice(tied)

    if strategy is StrategyId.RE:
        return least_rtt

    def pick_fpf():
        # Never push a face past its capacity while another face still has
        # room.  With every cap reached the Interest goes out anyway, which
        # is what eventually overflows a buffer and turns the window around.
        i = least_rtt(True)
        return least_rtt(False) if i is None else i
    return pick_fpf


# ---------------------------------------------------------------------------
# the placement order, counted
#
# re, cf and fpf place each Interest on the least key (value, p, index), p
# the path's pending count.  re and fpf, as their pickers do before any Data
# comes back, take the value max(2·delay, p/rate), the path's core.rtt; cf
# takes p/sqrt(rtt), which is p/sqrt(2·delay) below the pipe and
# sqrt(p·rate) past it.  Either value rises with the path's own p, so the
# placement order is the sorted order of every path's keys, and how many
# Interests a path holds below any key is a count for that path alone.

_EXACT = 2.0 ** 53  # below this, p/x rises with every whole p


def count_below(v: float, x: float, le: bool = False) -> int:
    """How many of p = 0, 1, 2, ... have p/x < v (p/x <= v with `le`), as
    the float division rounds it: the product v·x, then a step or two.
    Past 2**53, where consecutive p share a float, it is v·x rounded up:
    no model window comes near that."""
    if le:  # p/x <= v is p/x < the next float up
        v = math.nextafter(v, math.inf)
    q = v * x
    if not q < _EXACT:
        return math.ceil(min(q, _EXACT))
    q = math.ceil(q)
    while q and (q - 1) / x >= v:
        q -= 1
    while q / x < v:
        q += 1
    return q


def _value(lane, p: int, cf: bool) -> float:
    """The key value of a path whose lane is (2·delay, rate, _) while it
    holds p: its core.rtt, or cf's p/sqrt(rtt) as `placements` rounds it."""
    two_d, rate, _ = lane
    k = p / rate
    if k < two_d:
        k = two_d
    return p / math.sqrt(k) if cf else k


def _count(lane, v: float, cf: bool, le: bool = False) -> int:
    """How many of the path's key values at p = 0, 1, 2, ... are below v
    (at most v with `le`).  re's are `count_below` past the floor 2·delay.
    cf's start from v·sqrt(2·delay), or v²/rate past the pipe, and take a
    float-exact step or two; past 2**53 the estimate is rounded up, as in
    `count_below`."""
    two_d, rate, _ = lane
    if le:
        v = math.nextafter(v, math.inf)
    if not cf:
        return count_below(v, rate) if v > two_d else 0
    q = v * math.sqrt(two_d)
    if q > two_d * rate:
        q = v * v / rate
    if not q < _EXACT:
        return math.ceil(min(q, _EXACT))
    q = math.ceil(q)
    while q and _value(lane, q - 1, True) >= v:
        q -= 1
    while _value(lane, q, True) < v:
        q += 1
    return q


def keys_below(lane, i: int, key, strategy: StrategyId) -> int:
    """How many keys of path `i`, whose lane is (2·delay, rate, _), are
    below `key` = (value, pending, index) in the strategy's order: its
    pending count once every Interest before `key` is placed."""
    cf = strategy is StrategyId.CF
    v, p, j = key
    lt = _count(lane, v, cf)
    if _value(lane, lt, cf) != v:  # no key of value v
        return lt
    # Keys of equal value go by pending, then index.
    return max(lt, min(_count(lane, v, cf, True), p + (i < j)))


def key_at(lane, p: int, i: int, strategy: StrategyId):
    """Path i's key for its next Interest while it holds p, in the
    strategy's order: its value, then p, then i."""
    return _value(lane, p, strategy is StrategyId.CF), p, i


def first_overflow(lanes, strategy: StrategyId):
    """The least key at cap: the placement that first overflows a pipeline
    under re and cf, and fpf's first spill once every path is full."""
    return min([key_at(lane, lane[2], i, strategy)
                for i, lane in enumerate(lanes)])


def placements(lanes):
    """cf's placement process over the paths whose `core.path_lanes` are
    `lanes`: an endless walk that yields `(path, pending, rtt)` for each
    successive Interest: the path it is placed on, that path's pending count
    after it and its core.rtt there, so its first k paths are window k's
    allocation.  cf's `sharing_function` and the model's cf cycle read it.

    Each path has one heap entry, its key (pending/sqrt(rtt), pending,
    index).  A walk only adds Interests and a path's entry depends on its
    own pending only, so a step pushes the placed path's new entry, built
    from the rtt it yields, and pops the least; no entry goes stale.
    """
    # The least entry is held out of the heap as `top`, so a step is one
    # heappushpop: one compare while the same path stays least.
    heap = [(0.0, 0, i) for i in range(len(lanes))]  # pending 0: key 0
    top = heapq.heappop(heap)
    pushpop, sqrt = heapq.heappushpop, math.sqrt
    while True:
        _, p, i = top
        p += 1
        two_d, rate, _ = lanes[i]
        k = p / rate
        if k < two_d:  # core.rtt: max(2·delay, pending/rate)
            k = two_d
        yield i, p, k
        top = pushpop(heap, (p / sqrt(k), p, i))


def _even_split(scenario: Scenario, total: int) -> tuple[float, ...]:
    n = len(scenario.paths)
    return (total / n,) * n


def _placed(scenario: Scenario, total: int,
            strategy: StrategyId) -> tuple[float, ...]:
    # The first `total` steps of the placement process: re's and fpf's
    # picker, oracle caps and no rng, with no Data back; cf's heap walk.
    lanes = path_lanes(scenario)
    if strategy is StrategyId.CF:
        held = [0] * len(lanes)
        for i, p, _ in islice(placements(lanes), total):
            held[i] = p
    else:
        faces = [FaceState() for _ in lanes]
        pick = picker(strategy, faces, lanes, False, None)
        for _ in range(total):
            faces[pick()].pending += 1
        held = [f.pending for f in faces]
    return tuple(map(float, held))


def sharing_function(strategy: StrategyId):
    """The strategy's allocation, `(scenario, total) -> per-path pending`.

    pe and ug share the even split: ug's inverse-RTT round robin settles on
    it.  re, cf and fpf replay the first `total` steps of their placement
    process, O(total) picks; the model counts that process instead.
    """
    if strategy in (StrategyId.PE, StrategyId.UG):
        return _even_split
    return lambda scenario, total: _placed(scenario, total, strategy)
