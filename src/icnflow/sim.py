"""Event-driven simulator of windowed Interest/Data transfer over parallel
paths.

Per path, an Interest crosses a one-way propagation delay, the producer
answers instantly, and the Data message passes through a rate-limited
drop-tail FIFO before crossing the same propagation delay back.  A message
keeps its buffer slot while it is being transmitted, so a path carries at
most 2·delay·rate + buffer messages without dropping — exactly the pipeline
capacity.  The receiver grows a fractional window by 1/W per delivered Data and
halves it on loss, sending one Interest per free window slot; the forwarding
strategy picks the face for every Interest individually.

Losses are signaled either at the drop instant ("oracle-immediate", the
default) or by a retransmission timer ("timeout").  Loss counters count
detections; under the oracle signal these coincide with the physical drops.

Each Interest's fate is settled when it is sent.  A face's Interests reach
its bottleneck in send order (one fixed delay per face, and send times never
decrease), so the FIFO can be run for each one at once, at its arrival
instant; the Interest then costs one event: its Data's return, or the loss
detection.  Only Data that returns at or after its timer costs two.  A face's
Data leaves its bottleneck in send order and crosses one fixed delay, so the
face's returns are already sorted: they wait in a queue per face, and only
each face's earliest return sits on the heap, next to the loss and timer
events.  The heap holds at most one return per face, not one per Interest in
flight.

`run()` is one loop: each pass first sends one Interest per free window slot,
then pops the next event and handles it in place.  On-time Data, nearly
every event, is tested for first and counts no delivery per face: a face's
delivered count is derived at the end, sent − detected lost − in flight +
late Data.
"""

from __future__ import annotations

import heapq
import math
import random
import sys
from collections import deque
from dataclasses import dataclass

from .core import Scenario, StrategyId, _checked, is_whole, path_lanes, shown
from .sharing import FaceState, picker

LOSS_ORACLE = "oracle-immediate"
LOSS_TIMEOUT = "timeout"

FPF_CAP_ORACLE = "oracle"
FPF_CAP_ESTIMATED = "estimated"

# Retransmission timer, as a multiple of the smoothed RTT (timeout mode).
_RTO_FACTOR = 2.0
# Gain of the per-face and receiver-wide smoothed RTTs (RFC 6298's alpha).
_RTT_ALPHA = 0.125

# Learned capacity after a loss: keep this fraction of what was in flight.
_EST_GUARD = 0.75

# Event kinds.  Events are (time, seq, kind, face, chunk, sent), `seq` the
# Interest's send index: equal times go in send order, and an Interest's timer
# (its _EV_LOSS) before its own late Data.
_EV_DATA = 0  # Data reached the receiver (before its timer, if any)
_EV_LOSS = 1  # loss detected: dropped at the bottleneck (oracle) or timer fired
_EV_LATE = 2  # Data reached the receiver at or after its timer


@dataclass(frozen=True)
class SimConfig:
    duration: float | None = None    # stop after this much simulated time, s
    total_chunks: int | None = None  # ...or once this many chunks delivered
    initial_window: int = 1
    seed: int = 0                    # 0 = deterministic lowest-index tie-breaks
    loss_signal: str = LOSS_ORACLE
    fpf_capacity_mode: str = FPF_CAP_ORACLE
    trace_window: bool = False


def validate_config(config: SimConfig) -> list[str]:
    """Returns the list of problems; an empty list means runnable."""
    errors = []
    if (config.duration is None) == (config.total_chunks is None):
        errors.append("exactly one of duration and total_chunks must be set")
    if config.duration is not None and not (
            0 < config.duration <= sys.float_info.max):
        errors.append(f"duration must be finite and > 0, "
                      f"got {shown(config.duration)}")
    if config.total_chunks is not None and not (
            is_whole(config.total_chunks) and config.total_chunks >= 1):
        errors.append(f"total_chunks must be a finite whole number >= 1, "
                      f"got {shown(config.total_chunks)}")
    if not (is_whole(config.initial_window) and config.initial_window >= 1):
        errors.append(f"initial_window must be a finite whole number >= 1, "
                      f"got {shown(config.initial_window)}")
    if config.loss_signal not in (LOSS_ORACLE, LOSS_TIMEOUT):
        errors.append(f"loss_signal must be {LOSS_ORACLE!r} or {LOSS_TIMEOUT!r}, "
                      f"got {config.loss_signal!r}")
    if config.fpf_capacity_mode not in (FPF_CAP_ORACLE, FPF_CAP_ESTIMATED):
        errors.append(f"fpf_capacity_mode must be {FPF_CAP_ORACLE!r} or "
                      f"{FPF_CAP_ESTIMATED!r}, got {config.fpf_capacity_mode!r}")
    return errors


@dataclass(frozen=True)
class SimResult:
    # Data arrivals.  Under the timeout signal this includes late Data for
    # Interests whose timer already wrote them off, although their chunks
    # are sent again, so it can exceed the distinct chunks delivered; a
    # total_chunks run stops on this count.
    delivered_msgs: int
    elapsed: float       # simulated seconds the measurement covers
    rate_msgs_per_s: float
    gross_bps: float     # counting whole Data messages
    net_bps: float       # counting payload bytes only
    losses: int
    loss_times: tuple[float, ...]
    per_face_delivered: tuple[int, ...]
    per_face_sent: tuple[int, ...]
    per_face_dropped: tuple[int, ...]   # loss detections, not physical drops
    per_face_inflight: tuple[int, ...]  # still outstanding when the run stopped
    per_face_max_pending: tuple[int, ...]  # high-water mark of in-flight
    max_window: int                     # largest effective window reached
    window_trace: tuple[tuple[float, int], ...] | None


def select_face(strategy: StrategyId, faces, scenario: Scenario,
                config: SimConfig, rng=None) -> int:
    """Pick the face for one outgoing Interest; ug/cf move their credits.

    It checks the scenario and builds its lanes and picker anew on every
    call, so it costs far more than the pick; `run()` does each once.  Kept
    for the face selection tests and the bench's per-pick timing."""
    return picker(strategy, faces, path_lanes(scenario),
                  config.fpf_capacity_mode == FPF_CAP_ESTIMATED, rng)()


# ---------------------------------------------------------------------------
# the simulation proper

def run(scenario: Scenario, strategy: StrategyId, config: SimConfig) -> SimResult:
    """Simulate one transfer and return its delivery statistics.

    Identical (scenario, strategy, config) always produce an identical
    result: events are totally ordered by (time, send index, kind), see
    `_EV_*`, and the only randomness is the seeded tie-breaker.
    """
    problems, lanes = _checked(scenario)
    problems += validate_config(config)
    if problems:
        raise ValueError("; ".join(problems))

    n = len(scenario.paths)
    faces = [FaceState() for _ in range(n)]
    rng = random.Random(config.seed) if config.seed != 0 else None
    oracle_loss = config.loss_signal == LOSS_ORACLE
    # Face state is kept only where the picker reads it: the per-face RTT
    # under ug, the learned capacity under estimated fpf.
    keep_srtt = strategy is StrategyId.UG
    est_mode = (strategy is StrategyId.FPF
                and config.fpf_capacity_mode == FPF_CAP_ESTIMATED)
    choose = picker(strategy, faces, lanes, est_mode, rng)

    # Per face, its link: its state, its bottleneck (finish times of the Data
    # messages it holds, head in transmission and the rest in the buffer, as
    # of the last arrival there), one-way delay, service time (from the path,
    # as 8·bytes/rate_bps is not 1/rate in floats), buffer size, and its
    # returns: the Data and late-Data events still to come, in send order.
    returns = [deque() for _ in range(n)]
    links = [(f, deque(), p.delay, 8.0 * scenario.data_msg_bytes / p.rate_bps,
              p.buffer_msgs, r)
             for f, p, r in zip(faces, scenario.paths, returns)]

    heap = []               # loss events, and the earliest return of each face
    push = heapq.heappush
    pop = heapq.heappop
    replace = heapq.heapreplace
    seq = 0

    wnd = float(config.initial_window)
    cur_w = int(wnd)
    max_w = cur_w
    in_flight = 0
    next_chunk = 0
    retx = deque()          # lost chunks go back to the front of the line
    stop = config.total_chunks if config.total_chunks is not None else math.inf
    delivered = 0
    per_sent = [0] * n
    per_late = [0] * n      # late Data: each face's delivered count is derived
    per_drop = [0] * n
    max_pending = [0] * n
    loss_times = []
    r_srtt = None           # receiver-level smoothed RTT, times loss rounds
    absorb_until = -1.0     # drops before this instant share one halving
    fallback_absorb = 2.0 * max(p.delay for p in scenario.paths)
    trace = [(0.0, cur_w)] if config.trace_window else None
    end = config.duration if config.duration is not None else math.inf
    now = 0.0

    while True:
        # Send one Interest per free window slot.  After late Data nothing
        # is free, as that event moves neither the window nor what is out.
        while in_flight < cur_w:
            if retx:
                chunk = retx.popleft()
            elif next_chunk < stop:
                chunk = next_chunk
                next_chunk += 1
            else:
                break
            i = choose()
            f, q, delay, svc, buf, rets = links[i]
            p = f.pending = f.pending + 1
            if p > max_pending[i]:
                max_pending[i] = p
            in_flight += 1
            per_sent[i] += 1
            # Run the bottleneck FIFO now, at the instant t the Interest
            # reaches it: it holds exactly what it will hold then.
            t = now + delay
            while q and q[0] <= t:  # finished transmissions free their slot first
                q.popleft()
            if not oracle_loss:
                timer = now + _RTO_FACTOR * (r_srtt if r_srtt is not None
                                             else fallback_absorb + svc)
            if len(q) >= buf and q:
                # Buffer full: drop-tail.  The message in transmission still
                # holds its slot until it finishes, so a path sustains at most
                # 2·delay·rate + buffer in flight, the pipeline capacity.
                push(heap, (t if oracle_loss else timer, seq, _EV_LOSS, i,
                            chunk, now))
            else:
                fin = (q[-1] if q else t) + svc
                q.append(fin)
                back = fin + delay
                if not oracle_loss and back >= timer:
                    push(heap, (timer, seq, _EV_LOSS, i, chunk, now))
                    ev = (back, seq, _EV_LATE, i, chunk, now)
                else:
                    ev = (back, seq, _EV_DATA, i, chunk, now)
                # `back` strictly grows per face, so the face's returns are
                # already in heap order; only the earliest waits on the heap.
                if not rets:
                    push(heap, ev)
                rets.append(ev)
            seq += 1

        if not heap:
            break
        t, _, kind, i, chunk, sent = heap[0]
        if t > end:
            break
        now = t
        if kind == _EV_DATA:
            f = faces[i]
            f.pending -= 1
            in_flight -= 1
            sample = t - sent
            if keep_srtt:
                f.srtt = sample if f.srtt is None else \
                    f.srtt + _RTT_ALPHA * (sample - f.srtt)
            r_srtt = sample if r_srtt is None else \
                r_srtt + _RTT_ALPHA * (sample - r_srtt)
            wnd += 1.0 / wnd
            # cur_w == int(wnd), one Data grows wnd by at most 1, and a
            # float compares with an int exactly: int(wnd) rose by one.
            if wnd >= cur_w + 1:
                cur_w += 1
                if cur_w > max_w:
                    max_w = cur_w
                if trace is not None:
                    trace.append((t, cur_w))
        elif kind == _EV_LOSS:
            pop(heap)
            loss_times.append(t)
            per_drop[i] += 1
            f = faces[i]
            if est_mode:
                f.est_capacity = _EST_GUARD * f.pending
            f.pending -= 1
            in_flight -= 1
            retx.appendleft(chunk)
            if t >= absorb_until:
                w = max(1, int(wnd / 2.0))  # never above max_w
                wnd = float(w)
                absorb_until = t + (r_srtt if r_srtt is not None
                                    else fallback_absorb)
                if w != cur_w:
                    cur_w = w
                    if trace is not None:
                        trace.append((t, w))
            continue
        else:
            # Late Data still counts, but its Interest was already written
            # off: it moves neither the window nor what is out.
            per_late[i] += 1
        # A return hands its face's next one, if any, to the heap.
        rets = returns[i]
        rets.popleft()
        if rets:
            replace(heap, rets[0])
        else:
            pop(heap)
        delivered += 1
        if delivered >= stop:
            break

    elapsed = config.duration if config.duration is not None else now
    rate = delivered / elapsed
    return SimResult(
        delivered_msgs=delivered,
        elapsed=elapsed,
        rate_msgs_per_s=rate,
        gross_bps=rate * 8.0 * scenario.data_msg_bytes,
        net_bps=rate * 8.0 * scenario.payload_bytes,
        losses=len(loss_times),
        loss_times=tuple(loss_times),
        # A sent Interest's Data came on time, or it was detected lost or
        # is in flight; late Data adds to its face's deliveries.
        per_face_delivered=tuple(
            s - d - f.pending + late for s, d, f, late
            in zip(per_sent, per_drop, faces, per_late)),
        per_face_sent=tuple(per_sent),
        per_face_dropped=tuple(per_drop),
        per_face_inflight=tuple(f.pending for f in faces),
        per_face_max_pending=tuple(max_pending),
        max_window=max_w,
        window_trace=tuple(trace) if trace is not None else None)
