"""Forwarding strategies, seen from both sides of the package.

`picker` is each strategy's per-Interest forwarding rule, as the simulator
runs it.  `sharing_function` is its long-run allocation: a window size H
maps to the average number of pending Interests on every path.  The model
sums its rounds without it (by pieces for pe/ug/re/fpf, from `placements`
for cf); the allocation tests and the bench's tracer read it.  pe/ug split
H evenly.  re/cf/fpf each have one placement process that puts one
Interest at a time on a path, and their allocation is its first H steps.
re and fpf place as the simulator's picker does before any Data comes back,
on the least key (max(2·delay, pending/rate), pending, index); as a path's
key rises with its own pending count, their allocation is counted path by
path (`count_below`, `keys_below`, `least_keys`), with no walk.  cf keeps
the model's least pending/sqrt(RTT) rule, because the simulator's cf is a
stride over 1/pending; `placements` walks it on a heap, one heappushpop of
the placed path's entry per step, and yields each step's path, that path's
new pending count and its RTT at that count.  All of them satisfy
sum(allocation) == H and allocation >= 0, and allocations only grow with H.
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

def picker(strategy: StrategyId, faces, scenario: Scenario,
           estimated_caps: bool, rng):
    """The strategy's forwarding rule as a no-argument picker over `faces`.

    Each call returns the face for one outgoing Interest, reading the live
    face state; ug/cf calls also move the round-robin credits.  With
    `estimated_caps`, fpf caps a face at its learned `est_capacity` instead
    of its pipeline capacity.
    """
    lanes = list(enumerate(faces))

    def least_pending():
        best, tied, bp = None, None, math.inf
        for i, f in lanes:
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
        for i, f in lanes:
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
            for i, f in lanes:
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
            for i, f in lanes:
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
    # model counts the same order (`keys_below`); a test keeps its re/fpf
    # allocations equal to this picker's first dispatches.
    oracle = strategy is StrategyId.FPF and not estimated_caps
    # A face holding fewer than `below` keys 2·delay, its floor, with no
    # division: p/rate < 2·delay exactly when p < below.
    rtt_lanes = [(i, f, two_d, rate, count_below(two_d, rate),
                  cap if oracle else None)
                 for (i, f), (two_d, rate, cap)
                 in zip(lanes, path_lanes(scenario))]

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
# long-run allocation of a window
#
# re and fpf place each Interest on the least key (max(2·delay, p/rate), p,
# index), p the path's pending count, as their pickers do before any Data
# comes back.  A path's key rises with its own p, so the placement order is
# the sorted order of every path's keys, and how many Interests a path
# holds below any key is a count for that path alone.  Nothing is walked.

_EXACT = 2.0 ** 53  # below this, p/x rises with every whole p


def count_below(v: float, x: float, le: bool = False) -> int:
    """How many of p = 0, 1, 2, ... have p/x < v (p/x <= v with `le`), as
    the float division rounds it: the product v·x, then a step or two.
    Past 2**53, where consecutive p share a float, it is v·x rounded up:
    no model window comes near that."""
    q = v * x
    if not q < _EXACT:
        return math.ceil(min(q, _EXACT))
    q = math.ceil(q)
    if le:
        while q and (q - 1) / x > v:
            q -= 1
        while q / x <= v:
            q += 1
    else:
        while q and (q - 1) / x >= v:
            q -= 1
        while q / x < v:
            q += 1
    return q


def keys_below(lane, i: int, key) -> int:
    """How many keys of path `i`, whose lane is (2·delay, rate, _), are
    below `key` = (value, pending, index): its pending count once every
    Interest before `key` is placed."""
    two_d, rate, _ = lane
    v, p, j = key
    if v < two_d:
        return 0
    lt = count_below(v, rate) if v > two_d else 0
    if v > two_d and lt / rate != v:  # no key of value v
        return lt
    # Keys of equal value go by pending, then index.
    return max(lt, min(count_below(v, rate, True), p + (i < j)))


def key_at(lane, p: int, i: int):
    """Path i's key for its next Interest while it holds p: its core.rtt
    at p, then p, then i."""
    two_d, rate, _ = lane
    k = p / rate
    return (two_d if k < two_d else k), p, i


def first_overflow(lanes):
    """The least key at cap: the placement that first overflows a pipeline
    under re, and fpf's first spill once every path is full."""
    return min([key_at(lane, lane[2], i) for i, lane in enumerate(lanes)])


def least_keys(lanes, starts, ends, total: int) -> list[int]:
    """Each path's count of the `total` least keys, path i's keys being
    those of pending starts[i] up to ends[i] (math.inf: no end).

    The (total+1)-th key is found by bisection: its value on floats, then
    its pending and its index on whole numbers, each step counting the keys
    below a trial key; the allocation is the count below it.
    """
    def counts(key):
        return [min(max(keys_below(lane, i, key), a), b) - a
                for i, (lane, a, b) in enumerate(zip(lanes, starts, ends))]

    def after(key):  # more than `total` keys are below `key`
        return sum(counts(key)) > total

    # Past `total` keys of one path, or all of every path's (the caller
    # asks for fewer), more than `total` keys are placed.
    lo, hi = 0.0, max(key_at(lane, min(a + total, b - 1), 0)[0]
                      for lane, a, b in zip(lanes, starts, ends))
    while lo < (mid := lo + (hi - lo) / 2) < hi:
        lo, hi = (lo, mid) if after((mid, math.inf, 0)) else (mid, hi)
    p = _first(lambda p: after((hi, p, len(lanes))), max(starts) + total)
    i = _first(lambda i: after((hi, p, i + 1)), len(lanes))
    return counts((hi, p, i))


def _first(holds, hi: int) -> int:
    """The least k in 0..hi at which `holds`, false then true as k rises,
    is true; hi if none below it."""
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid + 1, hi)
    return lo


def placements(lanes, strategy: StrategyId):
    """cf's placement process over the paths whose `core.path_lanes` are
    `lanes`: an endless walk that yields `(path, pending, rtt)` for each
    successive Interest: the path it is placed on, that path's pending count
    after it and its core.rtt there, so its first k paths are window k's
    allocation.

    Each path has one heap entry, least first: (pending/sqrt(rtt), pending,
    index).  A walk only adds Interests and a path's entry depends on its
    own pending only, so a step pushes the placed path's new entry, built
    from the rtt it yields, and pops the least; no entry goes stale.  pe
    and ug place no Interest one at a time, and re and fpf are counted
    (`least_keys`): they raise ValueError.
    """
    if strategy in (StrategyId.PE, StrategyId.UG):
        raise ValueError(f"{strategy.token} has no placement process: it "
                         "splits the window evenly")
    if strategy is not StrategyId.CF:
        raise ValueError(f"{strategy.token} has no placement walk: its "
                         "allocation is counted")
    return _heap_walk(lanes)


def _heap_walk(lanes):
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


def _least_rtt(scenario: Scenario, total: int) -> tuple[float, ...]:
    lanes = path_lanes(scenario)
    n = len(lanes)
    return tuple(map(float, least_keys(lanes, [0] * n, [math.inf] * n,
                                       total)))


def _fill_first(scenario: Scenario, total: int) -> tuple[float, ...]:
    # Every path fills to its cap before any spills; the spill then goes on
    # the uncapped keys from each cap on.
    lanes = path_lanes(scenario)
    caps = [cap for _, _, cap in lanes]
    if total < sum(caps):
        held = least_keys(lanes, [0] * len(caps), caps, total)
    else:
        held = [c + s for c, s in zip(caps, least_keys(
            lanes, caps, [math.inf] * len(caps), total - sum(caps)))]
    return tuple(map(float, held))


def _stopped_walk(scenario: Scenario, total: int) -> tuple[float, ...]:
    per = [0.0] * len(scenario.paths)
    for i, _, _ in islice(placements(path_lanes(scenario), StrategyId.CF),
                          total):
        per[i] += 1.0
    return tuple(per)


def sharing_function(strategy: StrategyId):
    """The strategy's allocation, `(scenario, total) -> per-path pending`.

    pe and ug share the even split: ug's inverse-RTT round robin settles on
    it.  re and fpf count each path's keys among the `total` least; cf
    reads `placements` stopped at `total`.
    """
    return {StrategyId.PE: _even_split, StrategyId.UG: _even_split,
            StrategyId.RE: _least_rtt, StrategyId.FPF: _fill_first,
            StrategyId.CF: _stopped_walk}[strategy]
