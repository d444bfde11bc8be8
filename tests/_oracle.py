"""Naive reference arithmetic used to pin the optimized implementations.

Everything here is a deliberately straight-line re-derivation: linear scans,
one-Interest-at-a-time loops, explicit per-round sums.  It takes plain tuples
(no package imports) so a bug in the package cannot leak into the reference
results.  Paths are (delay_s, rate_bps, buffer_msgs) triples.
"""

from __future__ import annotations

import math


def ref_msg_rate(rate_bps, msg_bytes):
    return rate_bps / (8 * msg_bytes)


def ref_rtt(delay_s, msg_rate, pending):
    return max(2 * delay_s, pending / msg_rate)


def ref_capacity(delay_s, msg_rate, buffer_msgs):
    return math.floor(2 * delay_s * msg_rate + buffer_msgs)


def _rates(paths, msg_bytes):
    return [ref_msg_rate(r, msg_bytes) for (_, r, _) in paths]


def ref_share(paths, msg_bytes, token, h):
    """Per-path allocation of h pending Interests, as a list of floats."""
    n = len(paths)
    rates = _rates(paths, msg_bytes)
    if token in ("pe", "ug"):
        return [h / n] * n

    caps = None
    if token == "fpf":
        caps = [ref_capacity(d, rates[i], b) for i, (d, _, b) in enumerate(paths)]

    pending = [0] * n
    for _ in range(h):
        choice = None
        choice_key = None
        for i, (d, _, _) in enumerate(paths):
            if caps is not None and pending[i] >= caps[i]:
                continue
            cur = ref_rtt(d, rates[i], pending[i])
            if token == "cf":
                metric = pending[i] / math.sqrt(cur)
            else:  # re, fpf
                metric = cur
            key = (metric, pending[i], i)
            if choice is None or key < choice_key:
                choice, choice_key = i, key
        if choice is None:
            # every path at capacity: overflow onto the currently quickest
            choice = min(
                range(n),
                key=lambda i: (ref_rtt(paths[i][0], rates[i], pending[i]), pending[i], i))
        pending[choice] += 1
    return [float(p) for p in pending]


def ref_wmax(paths, msg_bytes, token):
    """Largest feasible window, by linear scan from 1 upward."""
    rates = _rates(paths, msg_bytes)
    caps = [ref_capacity(d, rates[i], b) for i, (d, _, b) in enumerate(paths)]
    w = 0
    while True:
        share = ref_share(paths, msg_bytes, token, w + 1)
        if any(share[i] > caps[i] + 1e-9 for i in range(len(paths))):
            if w == 0:
                raise ValueError("no feasible window")
            return w
        w += 1
        if w > 100_000:
            raise ValueError("window scan ran away")


def ref_cycle(paths, msg_bytes, token):
    """(wmax, delivered_per_cycle, cycle_seconds, msgs_per_second)."""
    w_hi = ref_wmax(paths, msg_bytes, token)
    w_lo = max(1, w_hi // 2)  # a halved window never drops below one
    rates = _rates(paths, msg_bytes)
    total_msgs = 0
    total_time = 0.0
    for w in range(w_lo, w_hi + 1):
        share = ref_share(paths, msg_bytes, token, w)
        rate_sum = 0.0
        for i, (d, _, _) in enumerate(paths):
            rate_sum += share[i] / ref_rtt(d, rates[i], share[i])
        total_msgs += w
        total_time += w / rate_sum
    return w_hi, total_msgs, total_time, total_msgs / total_time


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
    w_sum = sum(weights)
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
    return _ref_pick(pool, [(max(2.0 * paths[i][0],
                                 faces[i].pending / rates[i]),
                             faces[i].pending) for i in pool], rng)
