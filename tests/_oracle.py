"""Naive reference arithmetic used to pin the optimized implementations.

Everything here is a deliberately straight-line re-derivation: linear scans,
one-Interest-at-a-time loops, explicit per-round sums.  It takes plain tuples
(no package imports) so a bug in the package cannot leak into the reference
results.  Paths are (delay_s, rate_bps, buffer_msgs) triples.

The reference simulator runs every bottleneck arrival, timer and Data return
as a heap event of its own and keys each by its Interest's send index, so
events at equal times go in send order, the simulator's own rule.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from fractions import Fraction
from itertools import islice


def ref_msg_rate(rate_bps, msg_bytes):
    return rate_bps / (8 * msg_bytes)


def ref_rtt(delay_s, msg_rate, pending):
    return max(2 * delay_s, pending / msg_rate)


def ref_capacity(delay_s, msg_rate, buffer_msgs):
    # The slack keeps a whole pipe whole: 2 * 0.145 * 100.0 is 28.999...96.
    return math.floor(2 * delay_s * msg_rate + buffer_msgs + 1e-9)


def _rates(paths, msg_bytes):
    return [ref_msg_rate(r, msg_bytes) for (_, r, _) in paths]


def _ref_windows(paths, msg_bytes, token):
    """Each window's allocation, h = 0, 1, 2, ..., as a list of floats.

    pe/ug split h evenly.  re/fpf are `ref_select_face` run forward: each
    Interest goes where the picker sends it with no Data back, so a face's
    pending only grows.  cf places on the least (pending/sqrt(rtt), pending,
    index), as the simulator's cf is a stride and not this walk.
    """
    n = len(paths)
    if token in ("pe", "ug"):
        h = 0
        while True:
            yield [h / n] * n
            h += 1

    rates = _rates(paths, msg_bytes)
    caps = None
    if token == "fpf":
        caps = [ref_capacity(d, rates[i], b) for i, (d, _, b) in enumerate(paths)]
    faces = [RefFace() for _ in range(n)]
    while True:
        yield [float(f.pending) for f in faces]
        if token == "cf":
            i = min(range(n), key=lambda i: (
                faces[i].pending / math.sqrt(ref_rtt(paths[i][0], rates[i],
                                                     faces[i].pending)),
                faces[i].pending, i))
        else:
            i = ref_select_face(token, faces, paths, msg_bytes, caps, None)
        faces[i].pending += 1


def ref_share(paths, msg_bytes, token, h):
    """Per-path allocation of h pending Interests, as a list of floats: the
    same walk as ref_cycle's, restarted from zero and stopped after h."""
    return next(islice(_ref_windows(paths, msg_bytes, token), h, None))


def _ref_cycle_windows(paths, msg_bytes, token):
    """(w_lo, w_hi) of the cycle: one pass over the windows finds the first
    that overflows, and the window before it is w_hi."""
    rates = _rates(paths, msg_bytes)
    caps = [ref_capacity(d, rates[i], b) for i, (d, _, b) in enumerate(paths)]
    for w_hi, share in enumerate(_ref_windows(paths, msg_bytes, token)):
        if any(x > c + 1e-9 for x, c in zip(share, caps)):
            break
        if w_hi > 10_000_000:
            raise ValueError("window scan ran away")
    w_hi -= 1
    if w_hi < 1:
        raise ValueError("no feasible window")
    return max(1, w_hi // 2), w_hi  # a halved window never drops below one


def ref_cycle(paths, msg_bytes, token):
    """(wmax, delivered_per_cycle, cycle_seconds, msgs_per_second) in O(n)
    memory, for many paths and large windows.

    One pass over the windows finds the first that overflows; a second pass
    over the same windows adds the rounds w_lo..w_hi, each round's rate and
    the cycle's duration left to right, in the order they are listed.  No
    allocation is kept past its window, so nothing grows with w_max.
    """
    rates = _rates(paths, msg_bytes)
    w_lo, w_hi = _ref_cycle_windows(paths, msg_bytes, token)
    total_msgs = 0
    total_time = 0.0
    for w, share in islice(enumerate(_ref_windows(paths, msg_bytes, token)),
                           w_lo, w_hi + 1):
        rate_sum = 0.0
        for (d, _, _), rate, x in zip(paths, rates, share):
            rate_sum += x / ref_rtt(d, rate, x)
        total_msgs += w
        total_time += w / rate_sum
    return w_hi, total_msgs, total_time, total_msgs / total_time


def ref_cycle_exact(paths, msg_bytes, token):
    """ref_cycle's msgs_per_second as an exact `Fraction`: the same windows
    in the same placement order, with every path's float 2*delay and message
    rate taken at their exact values and no rounding after that.  pe/ug
    hold w/n on every path, not its float.  What a float evaluation is off
    from this is its own rounding error, which ref_cycle, itself a float
    sum, cannot measure.
    """
    n = len(paths)
    two_ds = [Fraction(2 * d) for d, _, _ in paths]
    rates = [Fraction(r) for r in _rates(paths, msg_bytes)]
    w_lo, w_hi = _ref_cycle_windows(paths, msg_bytes, token)
    # Sum w/b as one numerator over one denominator and reduce once: a
    # Fraction per round would take a gcd of ever longer integers each time.
    num, den = 0, 1
    for w, share in islice(enumerate(_ref_windows(paths, msg_bytes, token)),
                           w_lo, w_hi + 1):
        # A path carries min(x/(2*delay), rate): x/rtt with rtt =
        # max(2*delay, x/rate).
        b = sum(min((Fraction(w, n) if token in ("pe", "ug")
                     else Fraction(x)) / two_d, rate)
                for two_d, rate, x in zip(two_ds, rates, share))
        num, den = num * b.numerator + w * b.denominator * den, \
            den * b.numerator
    return Fraction((w_lo + w_hi) * (w_hi - w_lo + 1) // 2 * den, num)


# --------------------------------------------------------------------------
# per-Interest face selection, as a key list per call and the least key

def _ref_pick(candidates, keys, rng):
    # Least key wins; exact ties fall to the lowest index, or to a seeded
    # random choice when an rng is supplied.
    best_key = min(keys)
    if rng is None:
        return candidates[keys.index(best_key)]
    tied = [c for c, k in zip(candidates, keys) if k == best_key]
    return tied[0] if len(tied) == 1 else rng.choice(tied)


def _ref_stride(faces, weights, rng):
    w_sum = 0.0  # left to right, as sum() did before Python 3.12
    for w in weights:
        w_sum += w
    for f, w in zip(faces, weights):
        f.rr_credit += w / w_sum
    i = _ref_pick(range(len(faces)),
                  [(-f.rr_credit, f.pending) for f in faces], rng)
    faces[i].rr_credit -= 1.0
    return i


def ref_select_face(token, faces, paths, msg_bytes, caps, rng):
    """Face for one Interest under strategy `token`.

    `faces` are objects with pending, srtt, rr_credit and est_capacity; ug
    and cf move their rr_credit.  `caps` are fpf's per-face capacities, or
    None to read each face's learned est_capacity (None there: no cap).
    """
    idx = range(len(faces))
    if token == "pe":
        return _ref_pick(idx, [f.pending for f in faces], rng)
    if token == "ug":
        known = [f.srtt for f in faces if f.srtt is not None]
        probe = min(known) if known else 1.0
        return _ref_stride(faces, [1.0 / (f.srtt if f.srtt is not None
                                          else probe) for f in faces], rng)
    if token == "cf":
        zeros = [i for i, f in enumerate(faces) if f.pending == 0]
        if zeros:
            return (zeros[0] if rng is None or len(zeros) == 1
                    else rng.choice(zeros))
        return _ref_stride(faces, [1.0 / f.pending for f in faces], rng)
    rates = _rates(paths, msg_bytes)
    pool = idx
    if token == "fpf":
        if caps is None:
            caps = [math.inf if f.est_capacity is None else f.est_capacity
                    for f in faces]
        pool = [i for i in idx if faces[i].pending < caps[i]] or idx
    return _ref_pick(pool, [(ref_rtt(paths[i][0], rates[i], faces[i].pending),
                             faces[i].pending) for i in pool], rng)


# --------------------------------------------------------------------------
# the simulator, with the bottleneck arrival, the Data return and the timer
# of every Interest each a heap event of its own

# An Interest's heap events, in the order they go at equal times.
_ARRIVE, _TIMER, _DATA = 0, 1, 2


class RefFace:
    def __init__(self):
        self.pending = 0
        self.srtt = None
        self.rr_credit = 0.0
        self.est_capacity = None


def ref_run(paths, msg_bytes, payload_bytes, token, duration=None,
            total_chunks=None, initial_window=1, seed=0,
            loss_signal="oracle-immediate", fpf_caps="oracle",
            trace_window=False):
    """One transfer, as a dict of the simulator's result fields.

    Every Interest is up to three heap events, keyed (time, send index,
    stage): it reaches the bottleneck (stage 0), under the "timeout" loss
    signal its retransmission timer fires (stage 1), which does nothing once
    the Data is back, and its Data reaches the receiver (stage 2).  So equal
    times go in send order, and an Interest's timer comes before its own
    Data.  `fpf_caps` is "oracle" or "estimated"; a nonzero `seed` breaks
    exact ties at random.  The RTTs are smoothed with the simulator's fixed
    gain of 1/8.
    """
    alpha = 0.125
    n = len(paths)
    delays = [d for (d, _, _) in paths]
    svc = [8.0 * msg_bytes / r for (_, r, _) in paths]
    bufs = [b for (_, _, b) in paths]
    rates = _rates(paths, msg_bytes)
    caps = None
    if token == "fpf" and fpf_caps == "oracle":
        caps = [ref_capacity(d, rates[i], b) for i, (d, _, b) in enumerate(paths)]
    faces = [RefFace() for _ in range(n)]
    rng = random.Random(seed) if seed != 0 else None
    timeout = loss_signal == "timeout"
    queues = [deque() for _ in range(n)]
    heap = []
    sends = 0
    wnd = float(initial_window)
    cur_w = max_w = int(wnd)
    in_flight = next_chunk = delivered = losses = 0
    retx = deque()
    per_del, per_sent, per_drop, max_pending = [0] * n, [0] * n, [0] * n, [0] * n
    loss_times = []
    r_srtt = None
    absorb_until = -1.0
    fallback = 2.0 * max(delays)
    trace = [(0.0, cur_w)] if trace_window else None
    live = set()

    def note_window(now):
        nonlocal cur_w, max_w
        w = int(wnd)
        if w != cur_w:
            cur_w = w
            max_w = max(max_w, w)
            if trace is not None:
                trace.append((now, w))

    def dispatch(now):
        nonlocal sends, in_flight, next_chunk
        while in_flight < cur_w:
            if retx:
                chunk = retx.popleft()
            elif total_chunks is None or next_chunk < total_chunks:
                chunk = next_chunk
                next_chunk += 1
            else:
                return
            i = ref_select_face(token, faces, paths, msg_bytes, caps, rng)
            faces[i].pending += 1
            max_pending[i] = max(max_pending[i], faces[i].pending)
            in_flight += 1
            per_sent[i] += 1
            inst = sends
            sends += 1
            heapq.heappush(heap, (now + delays[i], inst, _ARRIVE, i, chunk,
                                  now))
            if timeout:
                live.add(inst)
                rto = 2.0 * (r_srtt if r_srtt is not None
                             else fallback + svc[i])
                heapq.heappush(heap, (now + rto, inst, _TIMER, i, chunk, now))

    def register_loss(now, i, chunk):
        nonlocal losses, in_flight, wnd, absorb_until
        losses += 1
        loss_times.append(now)
        per_drop[i] += 1
        if fpf_caps == "estimated":
            faces[i].est_capacity = 0.75 * faces[i].pending
        faces[i].pending -= 1
        in_flight -= 1
        retx.appendleft(chunk)
        if now >= absorb_until:
            wnd = float(max(1, int(wnd / 2.0)))
            absorb_until = now + (r_srtt if r_srtt is not None else fallback)
            note_window(now)
        dispatch(now)

    dispatch(0.0)
    now = 0.0
    while heap:
        t, inst, stage, i, chunk, sent = heapq.heappop(heap)
        if duration is not None and t > duration:
            break
        now = t
        if stage == _ARRIVE:
            q = queues[i]
            while q and q[0] <= t:
                q.popleft()
            if q and len(q) >= bufs[i]:
                if not timeout:
                    register_loss(t, i, chunk)
                continue
            fin = (q[-1] if q else t) + svc[i]
            q.append(fin)
            heapq.heappush(heap, (fin + delays[i], inst, _DATA, i, chunk,
                                  sent))
        elif stage == _DATA:
            if timeout and inst not in live:
                delivered += 1  # late Data of a written-off Interest
                per_del[i] += 1
                if total_chunks is not None and delivered >= total_chunks:
                    break
                continue
            live.discard(inst)
            f = faces[i]
            f.pending -= 1
            in_flight -= 1
            delivered += 1
            per_del[i] += 1
            sample = t - sent
            f.srtt = sample if f.srtt is None else \
                f.srtt + alpha * (sample - f.srtt)
            r_srtt = sample if r_srtt is None else \
                r_srtt + alpha * (sample - r_srtt)
            wnd += 1.0 / wnd
            note_window(t)
            if total_chunks is not None and delivered >= total_chunks:
                break
            dispatch(t)
        elif inst in live:
            live.discard(inst)
            register_loss(t, i, chunk)

    elapsed = duration if duration is not None else now
    rate = delivered / elapsed
    return dict(
        delivered_msgs=delivered, elapsed=elapsed, rate_msgs_per_s=rate,
        gross_bps=rate * 8.0 * msg_bytes, net_bps=rate * 8.0 * payload_bytes,
        losses=losses, loss_times=tuple(loss_times),
        per_face_delivered=tuple(per_del), per_face_sent=tuple(per_sent),
        per_face_dropped=tuple(per_drop),
        per_face_inflight=tuple(f.pending for f in faces),
        per_face_max_pending=tuple(max_pending), max_window=max_w,
        window_trace=tuple(trace) if trace is not None else None)


def halving_points(trace):
    """(peak, post-halving) window pairs read from a window trace."""
    pairs = []
    for k in range(1, len(trace)):
        if trace[k][1] < trace[k - 1][1]:
            pairs.append((trace[k - 1][1], trace[k][1]))
    return pairs
