"""Property suites for the allocation functions, the cycle model and the
simulator, run under hypothesis.

EXAMPLES holds every suite's case count in one place; the acceptance suite
checks their sum, so keep new entries in the dict.
"""

import math
import random
from dataclasses import asdict, replace

import pytest
from hypothesis import example, given, settings, strategies as st

import _oracle
from icnflow import (ModelError, PathSpec, Scenario, SimConfig, StrategyId,
                     cycle, run, wmax)
from icnflow.core import pipeline_capacity, rate_msgs
from icnflow.sharing import FaceState, picker, sharing_function
from icnflow.sim import (FPF_CAP_ESTIMATED, FPF_CAP_ORACLE, LOSS_ORACLE,
                         LOSS_TIMEOUT)

EXAMPLES = {
    "vector_invariants": 300,
    "monotone_in_total": 250,
    "capacity_respect": 200,
    "identical_paths": 150,
    "allocation_differential": 300,
    "wmax_boundary": 200,
    "cycle_identities": 100,
    "cycle_rounds": 150,
    "even_split_order": 150,
    "sim_conservation": 30,
    "sim_determinism": 20,
    "selector_differential": 400,
    "engine_differential": 300,
}

# --------------------------------------------------------------------------
# input generators

def _path(delay=st.floats(0.001, 0.3), mbps=st.floats(0.5, 50.0),
          buf=st.integers(0, 60)):
    return st.builds(lambda d, r, b: PathSpec(d, r * 1e6, b),
                     delay, mbps, buf)


def _scenario(max_paths=4, **kw):
    return st.builds(lambda ps: Scenario(tuple(ps)),
                     st.lists(_path(**kw), min_size=1, max_size=max_paths))


def _feasible_scenario():
    # Buffers >= 2 keep every pipeline capacity positive, so all five
    # strategies have a feasible window.
    return _scenario(buf=st.integers(2, 60))


ALL_STRATEGIES = st.sampled_from(list(StrategyId))
TOTALS = st.integers(0, 500)


# --------------------------------------------------------------------------
# allocation properties

@settings(max_examples=EXAMPLES["vector_invariants"], deadline=None,
          derandomize=True)
@given(_scenario(), ALL_STRATEGIES, TOTALS)
def test_allocations_are_nonnegative_and_sum_to_total(scen, strat, h):
    vec = sharing_function(strat)(scen, h)
    assert len(vec) == len(scen.paths)
    assert all(x >= 0 for x in vec)
    assert math.isclose(sum(vec), h, abs_tol=1e-9)


@settings(max_examples=EXAMPLES["monotone_in_total"], deadline=None,
          derandomize=True)
@given(_scenario(), ALL_STRATEGIES, st.integers(0, 200))
def test_every_path_share_grows_with_the_total(scen, strat, h):
    fn = sharing_function(strat)
    now, nxt = fn(scen, h), fn(scen, h + 1)
    assert all(b >= a - 1e-12 for a, b in zip(now, nxt))


@settings(max_examples=EXAMPLES["capacity_respect"], deadline=None,
          derandomize=True)
@given(_scenario(buf=st.integers(2, 60)), st.data())
def test_capacity_filling_respects_every_cap_until_all_are_full(scen, data):
    caps = [pipeline_capacity(p, rate_msgs(scen, i))
            for i, p in enumerate(scen.paths)]
    h = data.draw(st.integers(0, sum(caps)))
    vec = sharing_function(StrategyId.FPF)(scen, h)
    assert all(x <= c for x, c in zip(vec, caps))


@settings(max_examples=EXAMPLES["identical_paths"], deadline=None,
          derandomize=True)
@given(_path(buf=st.integers(2, 60)), st.integers(2, 4), ALL_STRATEGIES,
       TOTALS)
def test_identical_paths_share_within_one_unit(path, n, strat, h):
    scen = Scenario((path,) * n)
    vec = sharing_function(strat)(scen, h)
    assert max(vec) - min(vec) <= 1.0 + 1e-12


# Paths drawn from a small pool make exact key ties common; totals run past
# every pipeline capacity, so fpf's spill-over is exercised too.
_POOL_PATH = st.builds(PathSpec, st.sampled_from([0.005, 0.02, 0.12]),
                       st.sampled_from([2e6, 10e6, 25e6]), st.integers(0, 20))


@settings(max_examples=EXAMPLES["allocation_differential"], deadline=None,
          derandomize=True)
@given(st.lists(_POOL_PATH, min_size=1, max_size=4), st.data(),
       st.sampled_from([4876, 1250]), ALL_STRATEGIES, st.integers(0, 400))
def test_allocations_match_the_reference_loop(pool, data, msg_bytes, strat, h):
    scen = Scenario(tuple(pool[k] for k in data.draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=1, max_size=6))), msg_bytes,
        msg_bytes - 780)
    paths = [(p.delay, p.rate_bps, p.buffer_msgs) for p in scen.paths]
    got = sharing_function(strat)(scen, h)
    assert list(got) == _oracle.ref_share(paths, msg_bytes, strat.token, h)


@settings(max_examples=EXAMPLES["wmax_boundary"], deadline=None,
          derandomize=True)
@given(st.lists(_POOL_PATH, min_size=1, max_size=4), st.data(),
       st.sampled_from([4876, 1250]), ALL_STRATEGIES)
def test_wmax_is_the_last_window_that_fits(pool, data, msg_bytes, strat):
    scen = Scenario(tuple(pool[k] for k in data.draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=1, max_size=6))), msg_bytes,
        msg_bytes - 780)
    caps = [pipeline_capacity(p, rate_msgs(scen, i))
            for i, p in enumerate(scen.paths)]
    paths = [(p.delay, p.rate_bps, p.buffer_msgs) for p in scen.paths]

    def over(w):
        # The reference walk's allocation: wmax() counts the same keys that
        # sharing_function() does, so it cannot check that count.
        per = _oracle.ref_share(paths, msg_bytes, strat.token, w)
        return [i for i, (x, c) in enumerate(zip(per, caps)) if x > c]

    try:
        w = wmax(scen, strat)
    except ModelError:
        assert over(1)
    else:
        spilled = over(w + 1)
        assert not over(w) and spilled
        # The path that binds w_max: the lowest index over its cap at w + 1.
        assert cycle(scen, strat).binding_path == spilled[0]


# --------------------------------------------------------------------------
# cycle-model properties

@settings(max_examples=EXAMPLES["cycle_identities"], deadline=None,
          derandomize=True)
@given(_feasible_scenario(), ALL_STRATEGIES)
def test_cycle_identities(scen, strat):
    cs = cycle(scen, strat)
    w = cs.w_max
    assert w >= 1
    assert cs.t_interests == sum(range(w // 2, w + 1))
    # the defining identity: rate x duration = messages per cycle
    assert math.isclose(cs.y_msgs_per_s * cs.a_seconds, cs.t_interests,
                        rel_tol=1e-9)
    assert math.isclose(cs.y_gross_bps,
                        cs.y_msgs_per_s * 8 * scen.data_msg_bytes,
                        rel_tol=1e-12)


@settings(max_examples=EXAMPLES["cycle_rounds"], deadline=None,
          derandomize=True)
@given(st.lists(_POOL_PATH, min_size=1, max_size=4), st.data(),
       st.sampled_from([4876, 1250]), ALL_STRATEGIES)
def test_cycle_rounds_are_the_per_window_allocations(pool, data, msg_bytes,
                                                     strat):
    # cycle() counts its windows (cf: walks them once) and sums them over
    # pieces of constant or linear rate; the oracle walks every window's
    # allocation forward from zero with its own picker and adds every path's
    # rate in every round, left to right.  The two sums round differently,
    # by a few ulps.
    scen = Scenario(tuple(pool[k] for k in data.draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=1, max_size=6))), msg_bytes,
        msg_bytes - 780)
    try:
        cs = cycle(scen, strat)
    except ModelError:
        return
    w_max, t, a, y = _oracle.ref_cycle(
        [(p.delay, p.rate_bps, p.buffer_msgs) for p in scen.paths],
        msg_bytes, strat.token)
    assert (cs.w_max, cs.t_interests) == (w_max, t)
    assert math.isclose(cs.a_seconds, a, rel_tol=1e-12)
    assert math.isclose(cs.y_msgs_per_s, y, rel_tol=1e-12)


@settings(max_examples=EXAMPLES["even_split_order"], deadline=None,
          derandomize=True)
@given(st.lists(st.one_of(_POOL_PATH, _path(buf=st.integers(2, 60))),
                min_size=1, max_size=6), st.data(),
       st.sampled_from([StrategyId.PE, StrategyId.UG]))
def test_even_split_is_blind_to_path_order(paths, data, strat):
    # The even split's rounds sort the paths by saturation point, so listing
    # them in another order may change only the last bits of y.  fpf is not
    # order-blind in general: exact key ties fall to the lower index.
    order = data.draw(st.permutations(range(len(paths))))
    results = []
    for scen in (Scenario(tuple(paths)),
                 Scenario(tuple(paths[k] for k in order))):
        try:
            cs = cycle(scen, strat)
        except ModelError:
            results.append(None)
            continue
        caps = [pipeline_capacity(p, rate_msgs(scen, i))
                for i, p in enumerate(scen.paths)]
        assert caps[cs.binding_path] == min(caps)
        results.append(cs)
    a, b = results
    if a is None or b is None:
        assert a is b
        return
    assert a.w_max == b.w_max
    assert math.isclose(a.y_msgs_per_s, b.y_msgs_per_s, rel_tol=1e-12)


# --------------------------------------------------------------------------
# simulator properties

_SIM_SCEN = _scenario(max_paths=3, delay=st.floats(0.005, 0.06),
                      mbps=st.floats(1.0, 10.0), buf=st.integers(2, 12))


@settings(max_examples=EXAMPLES["sim_conservation"], deadline=None,
          derandomize=True)
@given(_SIM_SCEN, ALL_STRATEGIES, st.integers(0, 5))
def test_sent_messages_are_delivered_dropped_or_in_flight(scen, strat, seed):
    res = run(scen, strat, SimConfig(duration=4.0, seed=seed))
    for i in range(len(scen.paths)):
        assert res.per_face_sent[i] == (res.per_face_delivered[i]
                                        + res.per_face_dropped[i]
                                        + res.per_face_inflight[i])
    assert sum(res.per_face_delivered) == res.delivered_msgs
    assert all(p >= 0 for p in res.per_face_inflight)


@settings(max_examples=EXAMPLES["sim_determinism"], deadline=None,
          derandomize=True)
@given(_SIM_SCEN, ALL_STRATEGIES, st.integers(0, 5))
def test_same_seed_same_run(scen, strat, seed):
    cfg = SimConfig(duration=3.0, seed=seed, trace_window=True)
    assert run(scen, strat, cfg) == run(scen, strat, cfg)


# A lane is one path and the state of its face.  Lanes are drawn from a small
# pool, so identical lanes, hence exact key ties, are common.
_LANE = st.tuples(
    st.builds(PathSpec, st.sampled_from([0.01, 0.02, 0.12]),
              st.sampled_from([2e6, 10e6, 25e6]), st.integers(0, 20)),
    st.builds(FaceState,
              pending=st.integers(0, 12),
              srtt=st.one_of(st.none(), st.sampled_from([0.02, 0.3]),
                             st.floats(0.001, 1.0)),
              rr_credit=st.one_of(st.sampled_from([0.0, -0.5, 1.25]),
                                  st.floats(-3.0, 3.0)),
              est_capacity=st.one_of(st.none(), st.sampled_from([2.25, 6.0]),
                                     st.floats(0.0, 15.0))))


def _ug_lanes(*srtts):
    return [(PathSpec(0.02, 10e6, 20), FaceState(pending=3, srtt=s))
            for s in srtts]


@settings(max_examples=EXAMPLES["selector_differential"], deadline=None,
          derandomize=True)
@given(st.lists(_LANE, min_size=1, max_size=8).flatmap(
           lambda pool: st.lists(st.sampled_from(pool), min_size=1,
                                 max_size=8)),
       ALL_STRATEGIES, st.sampled_from([FPF_CAP_ORACLE, FPF_CAP_ESTIMATED]),
       st.one_of(st.none(), st.integers(1, 2**32)), st.integers(1, 4))
# ug's probe for an unsampled face is the least sampled srtt, here on the
# last face, not the first sampled one.
@example(_ug_lanes(None, 0.3, 0.02), StrategyId.UG, FPF_CAP_ORACLE, None, 3)
# With no face sampled the probe is 1.0.  A probe of inf, 0 or None fails
# at once; 6 equal weights sum with rounding, so many other values (0.3,
# 0.7, 3.0, not a power of two) show in the credits.
@example(_ug_lanes(*[None] * 6), StrategyId.UG, FPF_CAP_ORACLE, None, 4)
def test_face_selector_matches_the_key_list_reference(lanes, strat, cap_mode,
                                                      seed, calls):
    scen = Scenario(tuple(path for path, _ in lanes))
    faces = [replace(face) for _, face in lanes]
    ref_faces = [replace(face) for _, face in lanes]
    rng = random.Random(seed) if seed is not None else None
    ref_rng = random.Random(seed) if seed is not None else None
    caps = None
    if cap_mode == FPF_CAP_ORACLE:
        caps = [pipeline_capacity(p, rate_msgs(scen, i))
                for i, p in enumerate(scen.paths)]
    paths = [(p.delay, p.rate_bps, p.buffer_msgs) for p in scen.paths]
    pick = picker(strat, faces, scen, cap_mode == FPF_CAP_ESTIMATED, rng)
    for _ in range(calls):
        i = pick()
        assert i == _oracle.ref_select_face(strat.token, ref_faces, paths,
                                            scen.data_msg_bytes, caps, ref_rng)
        assert [f.rr_credit for f in faces] == [f.rr_credit for f in ref_faces]
        if rng is not None:
            assert rng.getstate() == ref_rng.getstate()
        faces[i].pending += 1  # as run() dispatches the Interest
        ref_faces[i].pending += 1


# Paths drawn from a small pool of round delays and rates put many events at
# equal times; a 1250-byte message makes service times round too (1 ms at
# 10 Mbit/s), so FIFO finish times line up with propagation delays.
_ROUND_PATH = st.tuples(st.sampled_from([0.001, 0.002, 0.004, 0.01]),
                        st.sampled_from([5e6, 10e6]), st.integers(0, 10))
_STOP = st.one_of(
    st.builds(lambda s: {"duration": s}, st.sampled_from([0.25, 1.0, 2.0])),
    st.builds(lambda c: {"total_chunks": c}, st.integers(1, 600)))


@settings(max_examples=EXAMPLES["engine_differential"], deadline=None,
          derandomize=True)
@given(st.lists(_ROUND_PATH, min_size=1, max_size=8),
       st.sampled_from([4876, 1250]), ALL_STRATEGIES,
       st.sampled_from([LOSS_ORACLE, LOSS_TIMEOUT]),
       st.sampled_from([FPF_CAP_ORACLE, FPF_CAP_ESTIMATED]),
       st.one_of(st.just(0), st.integers(1, 2**32)),
       st.sampled_from([1, 8, 20]), _STOP)
# Late Data lands on both faces, 11 on face 0 and 10 on face 1: each face's
# delivered count, derived from sent, detected and in flight, must count it.
@example([(0.001, 5e6, 7), (0.002, 5e6, 7)], 1250, StrategyId.UG,
         LOSS_TIMEOUT, FPF_CAP_ORACLE, 0, 20, {"total_chunks": 245})
# A burst of 20 where a Data return and a drop meet at t = 10 ms at the end
# of a chain of equal-time events, each sending the next Interests.
@example([(0.004, 10e6, 0), (0.002, 5e6, 1), (0.002, 10e6, 2)], 1250,
         StrategyId.CF, LOSS_ORACLE, FPF_CAP_ORACLE, 58, 20,
         {"total_chunks": 707})
# Two Interests whose Data returns exactly at their timer: the timer fires
# first and the Data comes back late.
@example([(0.001, 10e6, 6)], 1250, StrategyId.PE, LOSS_TIMEOUT,
         FPF_CAP_ORACLE, 0, 20, {"total_chunks": 435})
def test_simulator_matches_the_three_event_reference(
        paths, msg_bytes, strat, loss, cap_mode, seed, window, stop):
    # 780 header bytes per message, as in the default 4876/4096 split
    scen = Scenario(tuple(PathSpec(*p) for p in paths), msg_bytes,
                    msg_bytes - 780)
    got = run(scen, strat, SimConfig(
        initial_window=window, seed=seed, loss_signal=loss,
        fpf_capacity_mode=cap_mode, trace_window=True, **stop))
    assert asdict(got) == _oracle.ref_run(
        paths, msg_bytes, scen.payload_bytes, strat.token,
        initial_window=window, seed=seed, loss_signal=loss,
        fpf_caps=cap_mode, trace_window=True, **stop)


# The shipped sweeps: path 0 at 20 ms and 10 Mbit/s, path 1 swept in delay
# (20-200 ms) or rate (2-40 Mbit/s), 20-message buffers.  Equal pending
# counts come at every turn, so a nonzero seed breaks ties at random.  At
# 2 s no strategy loses a message; by 6 s most do.
@pytest.mark.parametrize("duration", [2.0, 6.0])
@pytest.mark.parametrize("delay_ms, mbps", [(20, 10), (100, 10), (200, 10),
                                            (20, 2), (20, 40)])
def test_simulator_matches_the_reference_on_the_paper_sweeps(delay_ms, mbps,
                                                             duration):
    paths = [(0.020, 10e6, 20), (delay_ms / 1e3, mbps * 1e6, 20)]
    scen = Scenario(tuple(PathSpec(*p) for p in paths))
    for strat in StrategyId:
        got = run(scen, strat, SimConfig(duration=duration, seed=7))
        assert asdict(got) == _oracle.ref_run(
            paths, scen.data_msg_bytes, scen.payload_bytes, strat.token,
            duration=duration, seed=7), strat
