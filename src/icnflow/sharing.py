"""Forwarding strategies, seen from both sides of the package.

`picker` is each strategy's per-Interest forwarding rule, as the simulator
runs it.  `sharing_function` is its long-run allocation: a window size H
maps to the average number of pending Interests on every path.  The model
sums its rounds without it (in closed form for pe/ug, from `placements`
for re/cf/fpf); the allocation tests and the bench's tracer read it, and so
would a per-window model record.  pe/ug split H evenly.  re/cf/fpf each have
one placement process that puts one Interest at a time on a path, and their
allocation is its first H steps.  re and fpf place as the simulator's
picker does before any Data comes back; cf keeps the model's least
pending/sqrt(RTT) rule, because the simulator's cf is a stride over
1/pending.  `placements` walks all three on one heap, one heappushpop of
the placed path's entry per step, and yields each step's path, that path's
new pending count and its RTT at that count, so no walker keeps counts or
recomputes an RTT of its own.  All of them satisfy sum(allocation) == H and
allocation >= 0, and allocations only grow with H.
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
                if f.srtt is None and probe is None:
                    probe = min((g.srtt for g in faces if g.srtt is not None),
                                default=1.0)
                w = weights[i] = 1.0 / (f.srtt if f.srtt is not None
                                        else probe)
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
    # time the current backlog needs to drain, whichever dominates.
    # placements() walks the same order on a heap for the model; a test
    # keeps its re/fpf steps equal to this picker's first dispatches.
    oracle = strategy is StrategyId.FPF and not estimated_caps
    rtt_lanes = [(i, f, two_d, rate, cap if oracle else None)
                 for (i, f), (two_d, rate, cap)
                 in zip(lanes, path_lanes(scenario))]

    def least_rtt(capped=False):
        best, tied, bk, bp = None, None, math.inf, 0
        for i, f, two_d, rate, cap in rtt_lanes:
            p = f.pending
            if capped:
                if estimated_caps:
                    cap = f.est_capacity  # None until learned: no cap
                if cap is not None and p >= cap:
                    continue
            k = p / rate
            if k < two_d:  # max(2·delay, pending/rate)
                k = two_d
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

def placements(scenario: Scenario, strategy: StrategyId):
    """The re, cf or fpf placement process: an endless walk that yields
    `(path, pending, rtt)` for each successive Interest: the path it is
    placed on, that path's pending count after it and its core.rtt there,
    so its first k paths are window k's allocation.

    Each path has one heap entry, least first:
      re   (rtt, pending, index)
      cf   (pending/sqrt(rtt), pending, index)
      fpf  (rtt, pending, index), the paths below their cap first
    with cap the oracle pipeline capacity.  The order is the picker's strict
    < scan over ascending indices, with fpf's capped scan and its uncapped
    spill.  A walk only adds Interests and a path's entry depends on its own
    pending only, so a step pushes the placed path's new entry, built from
    the rtt it yields, and pops the least; no entry goes stale.  pe and ug
    place no Interest one at a time: they raise ValueError.
    """
    if strategy not in (StrategyId.RE, StrategyId.CF, StrategyId.FPF):
        raise ValueError(f"{strategy.token} has no placement process: "
                         "it splits the window evenly")
    return _heap_walk(path_lanes(scenario), strategy is StrategyId.CF,
                      strategy is StrategyId.FPF)


def _heap_walk(lanes, cf, capped):
    # The least entry is held out of the heap as `top`, so a step is one
    # heappushpop: one compare while the same path stays least.  A capped
    # path at its cap waits in `full`, the heap once no path has room.
    heap, full, top = [], [], None
    for i, (two_d, _, cap) in enumerate(lanes):  # rtt at pending 0: 2·delay
        (full if capped and cap <= 0 else heap).append(
            (0.0 if cf else two_d, 0, i))
    heapq.heapify(heap)
    pushpop, sqrt = heapq.heappushpop, math.sqrt
    while True:
        if top is None:
            if not heap:
                heap, capped = full, False
                heapq.heapify(heap)
            top = heapq.heappop(heap)
        _, p, i = top
        p += 1
        two_d, rate, cap = lanes[i]
        k = p / rate
        if k < two_d:  # core.rtt: max(2·delay, pending/rate)
            k = two_d
        yield i, p, k
        if cf:
            top = pushpop(heap, (p / sqrt(k), p, i))
        elif not capped or p < cap:
            top = pushpop(heap, (k, p, i))
        else:
            full.append((k, p, i))
            top = None


def _even_split(scenario: Scenario, total: int) -> tuple[float, ...]:
    n = len(scenario.paths)
    return (total / n,) * n


def sharing_function(strategy: StrategyId):
    """The strategy's allocation, `(scenario, total) -> per-path pending`.

    pe and ug share the even split: ug's inverse-RTT round robin settles on
    it.  re, cf and fpf read `placements` stopped at `total`.
    """
    if strategy in (StrategyId.PE, StrategyId.UG):
        return _even_split

    def stopped(scenario: Scenario, total: int) -> tuple[float, ...]:
        per = [0.0] * len(scenario.paths)
        for i, _, _ in islice(placements(scenario, strategy), total):
            per[i] += 1.0
        return tuple(per)
    return stopped
