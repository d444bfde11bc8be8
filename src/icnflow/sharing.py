"""Sharing functions: long-run per-path allocation of a window of Interests.

Each strategy maps a window size H to the average number of pending Interests
it keeps on every path.  pe/ug are closed-form and real-valued.  re/cf/fpf
each have one placement process that puts one Interest at a time on a path,
and their allocation is its first H steps.  re and fpf replay the simulator's
own face picker; cf keeps the model's least pending/sqrt(RTT) rule, because
the simulator's cf is a stride over 1/pending.  Every step is one pass over
the paths that builds no list; cf's computes the RTT inline.  All of them
satisfy sum(per_path) == H and per_path >= 0, and allocations only grow
with H.
"""

from __future__ import annotations

import math
from itertools import islice

from .core import Scenario, SharingVector, StrategyId, rate_msgs
# Unused here; bench/tracing.py patches it and its traced run needs it.
from .core import rtt  # noqa: F401
from .sim import FaceState, SimConfig, _selector


def _even_split(scenario: Scenario, total: int) -> SharingVector:
    n = len(scenario.paths)
    return SharingVector(total, (total / n,) * n)


def share_pe(scenario: Scenario, total: int) -> SharingVector:
    """Pending equalization: the window splits evenly over the paths."""
    return _even_split(scenario, total)


def share_ug(scenario: Scenario, total: int) -> SharingVector:
    """Round robin weighted by inverse RTT settles on the same even split as
    share_pe; kept as its own operation so the equivalence stays observable."""
    return _even_split(scenario, total)


def placements(scenario: Scenario, strategy: StrategyId):
    """The re, cf or fpf placement process: yields the live per-path
    FaceState list (the same list each time, not a copy) before the first
    Interest and after each one, so item k is the state after k Interests.
    Each step is one pass over the paths; cf's inlines core.rtt."""
    faces = [FaceState() for _ in scenario.paths]
    if strategy is StrategyId.CF:
        lanes = [(i, f, 2.0 * p.delay, rate_msgs(scenario, i))
                 for i, (p, f) in enumerate(zip(scenario.paths, faces))]

        def pick():
            # Least pending/sqrt(rtt), then pending; a strict < over
            # ascending indices keeps the lowest index among exact ties.
            best, bk, bp = None, math.inf, 0
            for i, f, two_d, rate in lanes:
                p = f.pending
                k = p / rate
                if k < two_d:  # core.rtt: max(2·delay, pending/rate)
                    k = two_d
                k = p / math.sqrt(k)
                if k < bk or k == bk and p < bp:
                    best, bk, bp = i, k, p
            return best
    else:
        # The first dispatches the simulator makes before any Data comes
        # back: its own face picker, oracle caps, lowest-index ties.
        pick = _selector(strategy, faces, scenario, SimConfig(), None)
    while True:
        yield faces
        faces[pick()].pending += 1


def _stopped(scenario: Scenario, total: int, strategy: StrategyId):
    faces = next(islice(placements(scenario, strategy), total, None))
    return SharingVector(total, tuple(float(f.pending) for f in faces))


def share_re(scenario: Scenario, total: int) -> SharingVector:
    """RTT equalization: each Interest goes to the path that currently
    answers fastest, which levels the per-path round-trip times."""
    return _stopped(scenario, total, StrategyId.RE)


def share_cf(scenario: Scenario, total: int) -> SharingVector:
    """Each Interest goes to the path with the least pending count scaled by
    the square root of its RTT; an empty path is always taken first.  Ties
    fall to the least-loaded then lowest-indexed path."""
    return _stopped(scenario, total, StrategyId.CF)


def share_fpf(scenario: Scenario, total: int) -> SharingVector:
    """Fastest pipeline first: like share_re, but a path stops accepting once
    its pipeline capacity is full.  Past the point where every pipeline is
    full the remainder lands on the quickest path regardless."""
    return _stopped(scenario, total, StrategyId.FPF)


_SHARING = {
    StrategyId.PE: share_pe,
    StrategyId.RE: share_re,
    StrategyId.UG: share_ug,
    StrategyId.CF: share_cf,
    StrategyId.FPF: share_fpf,
}


def sharing_function(strategy: StrategyId):
    """The share_* callable implementing a strategy."""
    return _SHARING[strategy]
