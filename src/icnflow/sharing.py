"""Sharing functions: long-run per-path allocation of a window of Interests.

Each strategy maps a window size H to the average number of pending Interests
it keeps on every path.  pe/ug are closed-form and real-valued; re/cf/fpf
place one Interest at a time and return whole-number allocations.  re and fpf
replay the simulator's own face picker, so the model and the simulator share
one rule; cf keeps the model's least pending/sqrt(RTT) rule, because the
simulator's cf is a stride over 1/pending.  All of them satisfy
sum(per_path) == H and per_path >= 0, and allocations only grow with H.
"""

from __future__ import annotations

import math

from .core import Scenario, SharingVector, StrategyId, rate_msgs, rtt
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


def _replay(scenario: Scenario, total: int, strategy: StrategyId):
    # The first `total` dispatches the simulator makes before any Data comes
    # back: its own face picker, oracle caps, lowest-index ties.
    faces = [FaceState() for _ in scenario.paths]
    pick = _selector(strategy, faces, scenario, SimConfig(), None)
    for _ in range(total):
        faces[pick()].pending += 1
    return SharingVector(total, tuple(float(f.pending) for f in faces))


def share_re(scenario: Scenario, total: int) -> SharingVector:
    """RTT equalization: each Interest goes to the path that currently
    answers fastest, which levels the per-path round-trip times."""
    return _replay(scenario, total, StrategyId.RE)


def share_cf(scenario: Scenario, total: int) -> SharingVector:
    """Each Interest goes to the path with the least pending count scaled by
    the square root of its RTT; an empty path is always taken first.  Ties
    fall to the least-loaded then lowest-indexed path."""
    paths = scenario.paths
    rates = [rate_msgs(scenario, i) for i in range(len(paths))]
    pending = [0] * len(paths)
    for _ in range(total):
        keys = [(p / math.sqrt(rtt(path, p, r)), p, i)
                for i, (path, p, r) in enumerate(zip(paths, pending, rates))]
        pending[min(keys)[2]] += 1
    return SharingVector(total, tuple(float(p) for p in pending))


def share_fpf(scenario: Scenario, total: int) -> SharingVector:
    """Fastest pipeline first: like share_re, but a path stops accepting once
    its pipeline capacity is full.  Past the point where every pipeline is
    full the remainder lands on the quickest path regardless."""
    return _replay(scenario, total, StrategyId.FPF)


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
