"""End-to-end checks of the headline numbers this package is built to
reproduce.  Each test prints one "[acceptance] name: PASS/FAIL" line (visible
under `pytest -s`).

Shared sweep data (the delay sweep and the rate sweep, model and simulator)
is built once per module; every simulated point runs 60 simulated seconds at
seed 0, which is fully deterministic.
"""

import os
import random
import time

import pytest

import _oracle
import test_properties

from icnflow import PathSpec, Scenario, SimConfig, StrategyId, cycle, run, wmax
from icnflow.cli import load_experiment

BASE = Scenario((PathSpec(0.020, 10e6, 20), PathSpec(0.120, 10e6, 20)))
TWIN = Scenario((PathSpec(0.020, 10e6, 20), PathSpec(0.020, 10e6, 20)))
DELAY_MS = list(range(20, 201, 20))
RATE_MBPS = list(range(2, 41, 2))
SIM_SECONDS = 60.0
EXPERIMENTS = os.path.join(os.path.dirname(__file__), "..", "experiments")


def _report(name, ok, detail=""):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def sweeps():
    """{(sweep, value, token): (CycleStats, SimResult)} plus build wall time,
    at the points of the shipped sweep files, as the CLI runs them."""
    t0 = time.time()
    data = {}
    for name, values, at, scenario in (("delay", DELAY_MS, 120, BASE),
                                       ("rate", RATE_MBPS, 10, TWIN)):
        spec = load_experiment(os.path.join(EXPERIMENTS, f"{name}_sweep.exp"))
        points = list(spec.sweep.points(spec.scenario))
        # The tests read these values; BASE and TWIN are points of them.
        assert [v for v, _ in points] == values
        assert dict(points)[at] == scenario
        for v, (_, scen) in zip(values, points):
            for s in StrategyId:
                data[(name, v, s.token)] = (
                    cycle(scen, s),
                    run(scen, s, SimConfig(duration=SIM_SECONDS)))
    return data, time.time() - t0


def test_capacity_filling_fills_both_pipes_before_overflowing():
    t0 = time.time()
    assert wmax(BASE, StrategyId.FPF) == 111
    res = run(BASE, StrategyId.FPF,
              SimConfig(duration=SIM_SECONDS, trace_window=True))
    wall = time.time() - t0
    peaks = _oracle.halving_points(res.window_trace)
    ok = (bool(peaks)
          and all(abs(p - 111) <= 2 for p, _ in peaks)
          and all(abs(f - 55) <= 2 for _, f in peaks)
          and wall < 5.0)
    _report("capacity-filling window peaks at the joint pipeline size",
            ok, f"peaks {sorted(set(peaks))}, wall {wall:.2f}s")


def test_even_split_turns_around_at_twice_the_short_pipe():
    assert wmax(BASE, StrategyId.PE) == 60
    res = run(BASE, StrategyId.PE,
              SimConfig(duration=SIM_SECONDS, trace_window=True))
    peaks = _oracle.halving_points(res.window_trace)
    first_peak, first_floor = peaks[0]
    # After the first take, the steady cycles repeat at the same peak.
    steady = {p for p, _ in peaks[1:]}
    ok = (abs(first_peak - 62) <= 2 and abs(first_floor - 31) <= 1
          and len(steady) <= 2)
    _report("even split first loss and post-loss window",
            ok, f"first cycle {peaks[0]}, later peaks {sorted(steady)}, "
                f"closed-form max 60")


def test_round_robin_and_even_split_are_the_same_strategy(sweeps):
    # The delay points 20 ms and 120 ms are TWIN and BASE, so the model
    # check covers both.
    data, _ = sweeps
    worst = 0.0
    exact = True
    for d in DELAY_MS:
        pe_mod, pe_sim = data[("delay", d, "pe")]
        ug_mod, ug_sim = data[("delay", d, "ug")]
        exact &= ((pe_mod.w_max, pe_mod.t_interests, pe_mod.a_seconds,
                   pe_mod.y_msgs_per_s)
                  == (ug_mod.w_max, ug_mod.t_interests, ug_mod.a_seconds,
                      ug_mod.y_msgs_per_s))
        worst = max(worst, abs(ug_sim.rate_msgs_per_s - pe_sim.rate_msgs_per_s)
                    / pe_sim.rate_msgs_per_s)
    _report("inverse-rtt round robin reproduces the even split",
            exact and worst <= 0.05,
            f"model identical: {exact}, worst simulated gap {worst * 100:.2f}%")


def test_equal_paths_level_all_strategies(sweeps):
    data, _ = sweeps
    target = 2 * 10e6 / 39008  # both bottlenecks saturated
    round_slack = 1 / 30       # one round of the 30..60 sawtooth
    ok = True
    details = []
    for s in StrategyId:
        mod, sim = data[("delay", 20, s.token)]
        model_off = abs(mod.y_msgs_per_s - target) / target
        sim_off = abs(sim.rate_msgs_per_s - mod.y_msgs_per_s) / mod.y_msgs_per_s
        ok &= model_off <= round_slack and sim_off <= 0.10
        details.append(f"{s.token} {mod.y_msgs_per_s:.1f}/{sim.rate_msgs_per_s:.1f}")
    _report("equal paths give every strategy the same rate",
            ok, f"target {target:.1f} msg/s; model/sim " + ", ".join(details))


def test_simulation_tracks_the_model_on_both_sweeps(sweeps):
    data, wall = sweeps
    worst = (0.0, None)
    for key, (mod, sim) in data.items():
        rel = abs(sim.rate_msgs_per_s - mod.y_msgs_per_s) / mod.y_msgs_per_s
        if rel > worst[0]:
            worst = (rel, key)
    ok = worst[0] <= 0.10 and wall < 120.0
    _report("simulated rates stay within 10% of the model pointwise",
            ok, f"worst {worst[0] * 100:.2f}% at {worst[1]}, "
                f"sweep wall {wall:.1f}s")


def test_slow_second_path_ranks_the_strategies(sweeps):
    data, _ = sweeps
    ok = True
    details = []
    for d in (120, 140, 160, 180, 200):
        mod = {s.token: data[("delay", d, s.token)][0].y_msgs_per_s
               for s in StrategyId}
        sim = {s.token: data[("delay", d, s.token)][1].rate_msgs_per_s
               for s in StrategyId}
        ok &= (mod["fpf"] > mod["cf"] > mod["pe"] == mod["ug"] > mod["re"])
        ok &= (sim["fpf"] > sim["cf"] > max(sim["pe"], sim["ug"])
               and min(sim["pe"], sim["ug"]) > sim["re"])
        re_gross = sim["re"] * 8 * 4876
        ok &= abs(re_gross - 10e6) / 10e6 <= 0.10
        details.append(f"d2={d}ms re={re_gross / 1e6:.2f}Mbps")
    _report("slow second path: filling > pending-weighted > even > rtt-equal",
            ok, "; ".join(details))


def test_fast_second_path_plateau_for_even_split(sweeps):
    data, _ = sweeps
    plateau_ok = True
    details = []
    for r in (20, 24, 28, 32, 36, 40):
        for token in ("pe", "ug"):
            gross = data[("rate", r, token)][0].y_gross_bps
            if abs(gross - 20e6) / 20e6 > 0.05:
                plateau_ok = False
        details.append(f"r2={r}: {data[('rate', r, 'pe')][0].y_gross_bps / 1e6:.2f}Mbps")
    filling_highest = all(
        data[("rate", r, "fpf")][0].y_msgs_per_s
        >= max(data[("rate", r, s.token)][0].y_msgs_per_s
               for s in StrategyId) - 1e-9
        for r in RATE_MBPS)
    ok = plateau_ok and filling_highest
    _report("fast second path: even split plateaus at twice the slow rate",
            ok, f"filling highest everywhere: {filling_highest}; plateau "
                + ", ".join(details))


def test_property_suites_budget():
    total = sum(test_properties.EXAMPLES.values())
    _report("property suites cover at least one thousand cases",
            total >= 1000, f"{total} cases across {len(test_properties.EXAMPLES)} suites")


def test_model_agrees_with_the_reference_evaluator():
    rng = random.Random(20260814)
    worst = 0.0
    checked = 0
    for _ in range(100):
        paths = tuple(
            (rng.uniform(0.001, 0.08),
             rng.uniform(0.5e6, 8e6),
             rng.randint(1, 40))
            for _ in range(2))
        scen = Scenario(tuple(PathSpec(*p) for p in paths))
        for s in StrategyId:
            ref = _oracle.ref_cycle(paths, 4876, s.token)
            got = cycle(scen, s)
            assert got.w_max == ref[0]
            assert got.t_interests == ref[1]
            rel_a = abs(got.a_seconds - ref[2]) / ref[2]
            rel_y = abs(got.y_msgs_per_s - ref[3]) / ref[3]
            worst = max(worst, rel_a, rel_y)
            checked += 1
    _report("cycle model matches the straight-line reference evaluator",
            worst <= 1e-9, f"{checked} strategy/scenario pairs, "
                           f"worst relative gap {worst:.2e}")
