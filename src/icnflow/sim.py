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
instant; the Interest then costs one heap event: its Data's return, or the
loss detection.  Only Data that returns at or after its timer costs two.

`run()` is one loop: each pass first sends one Interest per free window slot,
then pops the next event and handles it in place.
"""

from __future__ import annotations

import heapq
import random
import sys
from collections import deque
from dataclasses import dataclass

from .core import Scenario, StrategyId, is_whole, shown, validate
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

# Event kinds.  Heap entries are (time, sched, cause, seq, kind, face, chunk).
# Equal times are ordered as an engine that also ran each bottleneck arrival
# as an event, ordering its heap by (time, push order), orders them: `sched`
# is the instant that engine pushes the event (the bottleneck arrival for
# Data, the send instant for a loss), `cause` is the `sched` of the event it
# handles then (for Data the send instant, also the RTT origin), and `seq` is
# push order here.  Only ties that also reach back past `cause` can come out
# in another order.  The Interests a pass of run()'s loop sends carry the
# `sched` of the event the pass before it handled as their `cause`.
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
    """Pick the face for one outgoing Interest; ug/cf move their credits."""
    return picker(strategy, faces, scenario,
                  config.fpf_capacity_mode == FPF_CAP_ESTIMATED, rng)()


# ---------------------------------------------------------------------------
# the simulation proper

def run(scenario: Scenario, strategy: StrategyId, config: SimConfig) -> SimResult:
    """Simulate one transfer and return its delivery statistics.

    Identical (scenario, strategy, config) always produce an identical
    result: the event queue is totally ordered (see the `_EV_*` kinds) and
    the only randomness is the seeded tie-breaker.
    """
    problems = validate(scenario) + validate_config(config)
    if problems:
        raise ValueError("; ".join(problems))

    n = len(scenario.paths)
    faces = [FaceState() for _ in range(n)]
    rng = random.Random(config.seed) if config.seed != 0 else None
    oracle_loss = config.loss_signal == LOSS_ORACLE
    est_mode = config.fpf_capacity_mode == FPF_CAP_ESTIMATED
    choose = picker(strategy, faces, scenario, est_mode, rng)

    # Per face: its state, its bottleneck (finish times of the Data messages
    # it holds, head in transmission and the rest in the buffer, as of the
    # last arrival there), one-way delay, service time and buffer size.
    lanes = [(f, deque(), p.delay, 8.0 * scenario.data_msg_bytes / p.rate_bps,
              p.buffer_msgs) for f, p in zip(faces, scenario.paths)]

    heap = []
    push = heapq.heappush
    pop = heapq.heappop
    seq = 0

    wnd = float(config.initial_window)
    cur_w = int(wnd)
    max_w = cur_w
    in_flight = 0
    next_chunk = 0
    retx = deque()          # lost chunks go back to the front of the line
    total = config.total_chunks
    delivered = 0
    per_del = [0] * n
    per_sent = [0] * n
    per_drop = [0] * n
    max_pending = [0] * n
    loss_times = []
    r_srtt = None           # receiver-level smoothed RTT, times loss rounds
    absorb_until = -1.0     # drops before this instant share one halving
    fallback_absorb = 2.0 * max(p.delay for p in scenario.paths)
    trace = [(0.0, cur_w)] if config.trace_window else None
    end = config.duration  # None while running to a chunk target
    now = 0.0
    cause = 0.0             # `sched` of the event being handled

    while True:
        # Send one Interest per free window slot.  After late Data nothing
        # is free, as that event moves neither the window nor what is out.
        while in_flight < cur_w:
            if retx:
                chunk = retx.popleft()
            elif total is None or next_chunk < total:
                chunk = next_chunk
                next_chunk += 1
            else:
                break
            i = choose()
            f, q, delay, svc, buf = lanes[i]
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
            if q and len(q) >= buf:
                # Buffer full: drop-tail.  The message in transmission still
                # holds its slot until it finishes, so a path sustains at most
                # 2·delay·rate + buffer in flight, the pipeline capacity.
                push(heap, (t if oracle_loss else timer, now, cause, seq,
                            _EV_LOSS, i, chunk))
            else:
                fin = (q[-1] if q else t) + svc
                q.append(fin)
                back = fin + delay
                if not oracle_loss and back >= timer:
                    push(heap, (timer, now, cause, seq, _EV_LOSS, i, chunk))
                    seq += 1
                    push(heap, (back, t, now, seq, _EV_LATE, i, chunk))
                else:
                    push(heap, (back, t, now, seq, _EV_DATA, i, chunk))
            seq += 1

        if not heap:
            break
        t, cause, sent, _, kind, i, chunk = pop(heap)
        if end is not None and t > end:
            break
        now = t
        if kind == _EV_DATA:
            f = faces[i]
            f.pending -= 1
            in_flight -= 1
            delivered += 1
            per_del[i] += 1
            sample = t - sent
            f.srtt = sample if f.srtt is None else \
                f.srtt + _RTT_ALPHA * (sample - f.srtt)
            r_srtt = sample if r_srtt is None else \
                r_srtt + _RTT_ALPHA * (sample - r_srtt)
            wnd += 1.0 / wnd
            w = int(wnd)
            if w != cur_w:
                cur_w = w
                if w > max_w:
                    max_w = w
                if trace is not None:
                    trace.append((t, w))
            if total is not None and delivered >= total:
                break
        elif kind == _EV_LOSS:
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
        else:  # _EV_LATE: the Interest was written off, the Data still counts
            delivered += 1
            per_del[i] += 1
            if total is not None and delivered >= total:
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
        per_face_delivered=tuple(per_del),
        per_face_sent=tuple(per_sent),
        per_face_dropped=tuple(per_drop),
        per_face_inflight=tuple(f.pending for f in faces),
        per_face_max_pending=tuple(max_pending),
        max_window=max_w,
        window_trace=tuple(trace) if trace is not None else None)


def halving_points(trace):
    """(peak, post-halving) window pairs read from a window trace."""
    pairs = []
    for k in range(1, len(trace)):
        if trace[k][1] < trace[k - 1][1]:
            pairs.append((trace[k - 1][1], trace[k][1]))
    return pairs
