"""Unit tests for the cycle-average receive-rate model."""

import hashlib
import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

import _oracle
from test_sharing import TIES
from icnflow import ModelError, PathSpec, Scenario, StrategyId, cycle, wmax
from icnflow import sharing
from icnflow.cli import load_experiment
from icnflow.core import pipeline_capacity, rate_msgs

TWO_PATH = Scenario((PathSpec(0.020, 10e6, 20), PathSpec(0.120, 10e6, 20)))
TWIN = Scenario((PathSpec(0.020, 10e6, 20), PathSpec(0.020, 10e6, 20)))
# One-way delays 10, 20, ..., 80 ms at 6.25 Mbit/s with 12-message buffers:
# the benchmark's wide_model scenario at seed 0.
EIGHT = Scenario(tuple(PathSpec(0.010 * k, 6.25e6, 12) for k in range(1, 9)))
# A larger bandwidth-delay product: one-way delays 10, 20, ..., 160 ms at
# 25 Mbit/s with 25-message buffers.
SIXTEEN = Scenario(tuple(PathSpec(0.010 * k, 25e6, 25) for k in range(1, 17)))
# Fifty paths at 1 Gbit/s with 1000-message buffers, one-way delays from 10
# to 80 ms staggered evenly over the path indices.
FIFTY = Scenario(tuple(PathSpec(0.010 + 0.070 * ((7 * k) % 50) / 49, 1e9, 1000)
                       for k in range(50)))
EXPERIMENTS = os.path.join(os.path.dirname(__file__), "..", "experiments")


def _sweep_points(name):
    """The scenarios at each point of a shipped sweep, as the CLI runs them."""
    spec = load_experiment(os.path.join(EXPERIMENTS, f"{name}.exp"))
    return [scen for _, scen in spec.sweep.points(spec.scenario)]


class TestWmax:
    def test_capacity_filling_reaches_sum_of_capacities(self):
        assert wmax(TWO_PATH, StrategyId.FPF) == 111

    def test_even_split_is_capped_by_the_smaller_path(self):
        assert wmax(TWIN, StrategyId.PE) == 60
        assert wmax(TWO_PATH, StrategyId.PE) == 60

    def test_delay_equalizing_sticks_to_the_short_path(self):
        assert wmax(TWO_PATH, StrategyId.RE) == 30

    def test_pending_weighted(self):
        assert wmax(TWO_PATH, StrategyId.CF) == 73

    def test_single_path_equals_its_capacity(self):
        one = Scenario((PathSpec(0.020, 10e6, 20),))
        for s in StrategyId:
            assert wmax(one, s) == 30

    def test_even_split_formula(self):
        # Real-valued even split: W/N <= min capacity, so N * min(C).
        caps = [pipeline_capacity(p, rate_msgs(TWO_PATH, i))
                for i, p in enumerate(TWO_PATH.paths)]
        assert wmax(TWO_PATH, StrategyId.PE) == 2 * min(caps)
        assert wmax(TWO_PATH, StrategyId.UG) == 2 * min(caps)

    def test_no_feasible_window(self):
        # A zero-capacity path that the even split always touches, and that
        # re and cf pick first (shortest delay; index breaks cf's tie).  fpf
        # skips a full path, so it fills the other one alone.
        dead = Scenario((PathSpec(0.001, 8.0 * 4876, 0),
                         PathSpec(0.020, 10e6, 20)))
        for s in (StrategyId.PE, StrategyId.RE, StrategyId.UG, StrategyId.CF):
            with pytest.raises(ModelError, match="no feasible window"):
                wmax(dead, s)
        assert wmax(dead, StrategyId.FPF) == 30

    def test_unbounded_capacity_is_caught(self, monkeypatch):
        # wmax() and cycle() both raise before any walk starts: every
        # strategy compares its counted w_max with the guard.
        def no_walk(*args):
            raise AssertionError("walked to a bound past the guard")
        monkeypatch.setattr("icnflow.model.placements", no_walk)

        def unbounded(scen, s):
            for entry in (wmax, cycle):
                with pytest.raises(ModelError, match="unbounded"):
                    entry(scen, s)
        # A cap past 2**53 also stops re's and cf's counts, where
        # consecutive pending counts share a float.
        for buffer in (10 ** 9, 10 ** 17):
            bottomless = Scenario((PathSpec(0.020, 10e6, buffer),))
            for s in StrategyId:
                unbounded(bottomless, s)
        # fpf fills the small path, then spills every Interest onto the
        # bottomless one: its walk would end at sum(caps), past the guard.
        beside = Scenario((PathSpec(0.020, 10e6, 20),
                           PathSpec(0.020, 10e6, 10 ** 9)))
        unbounded(beside, StrategyId.FPF)
        # TWO_PATH's caps are 30 and 81: every count is past a guard of 29.
        monkeypatch.setattr("icnflow.model._SEARCH_CAP", 29)
        for s in (StrategyId.RE, StrategyId.CF, StrategyId.FPF):
            unbounded(TWO_PATH, s)

    def test_binding_path_on_many_paths(self):
        # 300 paths of seven delays and three buffer sizes, so many tie: the
        # binding path is still the lowest index the next Interest overflows,
        # read from the reference walk, not from the count wmax() makes.
        wide = Scenario(tuple(PathSpec(0.001 * (1 + k % 7), 10e6, 1 + k % 3)
                              for k in range(300)))
        caps = [pipeline_capacity(p, rate_msgs(wide, i))
                for i, p in enumerate(wide.paths)]
        paths = [(p.delay, p.rate_bps, p.buffer_msgs) for p in wide.paths]
        for s in (StrategyId.RE, StrategyId.CF, StrategyId.FPF):
            cs = cycle(wide, s)
            fit, past = (_oracle.ref_share(paths, wide.data_msg_bytes,
                                           s.token, h)
                         for h in (cs.w_max, cs.w_max + 1))
            assert all(x <= c for x, c in zip(fit, caps)), s
            spilled = [i for i, (x, c) in enumerate(zip(past, caps)) if x > c]
            assert spilled and cs.binding_path == spilled[0], s
            assert wmax(wide, s) == cs.w_max, s

    def test_runaway_guard_allows_a_window_up_to_the_cap(self, monkeypatch):
        # fpf on TWO_PATH peaks at 111 and pe at 60 (see the tests above).
        monkeypatch.setattr("icnflow.model._SEARCH_CAP", 111)
        assert wmax(TWO_PATH, StrategyId.FPF) == 111
        monkeypatch.setattr("icnflow.model._SEARCH_CAP", 110)
        with pytest.raises(ModelError, match="unbounded"):
            wmax(TWO_PATH, StrategyId.FPF)
        monkeypatch.setattr("icnflow.model._SEARCH_CAP", 59)
        with pytest.raises(ModelError, match="unbounded"):
            wmax(TWO_PATH, StrategyId.PE)

    def test_runaway_guard_stops_the_walk(self, monkeypatch):
        # cf on TWO_PATH (caps 30 and 81) peaks at 73, past its smallest
        # cap: the guard compares its count and raises before any walk.
        drawn = [0]
        real = sharing.placements

        def counted(lanes):
            for step in real(lanes):
                drawn[0] += 1
                yield step
        monkeypatch.setattr("icnflow.model.placements", counted)
        monkeypatch.setattr("icnflow.model._SEARCH_CAP", 73)
        assert wmax(TWO_PATH, StrategyId.CF) == 73
        monkeypatch.setattr("icnflow.model._SEARCH_CAP", 72)
        for entry in (wmax, cycle):
            with pytest.raises(ModelError, match="unbounded"):
                entry(TWO_PATH, StrategyId.CF)
        assert drawn[0] == 0


class TestCycle:
    def test_eight_path_cycle_is_pinned(self):
        pinned = {StrategyId.PE: (120, 978.4068587278764),
                  StrategyId.UG: (120, 978.4068587278764),
                  StrategyId.RE: (60, 563.4347820777265),
                  StrategyId.CF: (132, 1064.7304290842333),
                  StrategyId.FPF: (208, 1142.6283374953557)}
        for s, want in pinned.items():
            cs = cycle(EIGHT, s)
            assert (cs.w_max, cs.y_msgs_per_s) == want, s

    def test_sixteen_path_cycle_is_pinned(self):
        pinned = {StrategyId.PE: (592, 3885.483216133286),
                  StrategyId.UG: (592, 3885.483216133286),
                  StrategyId.RE: (74, 1215.2046894048876),
                  StrategyId.CF: (997, 5367.17994780023),
                  StrategyId.FPF: (2135, 8809.281569256891)}
        for s, want in pinned.items():
            cs = cycle(SIXTEEN, s)
            assert (cs.w_max, cs.y_msgs_per_s) == want, s

    def test_fifty_path_cycle_is_pinned(self):
        # The largest windows in the suite, 21 168 and 165 336, counted and
        # summed over pieces.  Both y are within 3e-17 of a 40-digit
        # evaluation of the oracle's rounds.
        pinned = {StrategyId.RE: (21168, 304329.48858433246),
                  StrategyId.FPF: (165336, 1103349.2780086559)}
        for s, want in pinned.items():
            cs = cycle(FIFTY, s)
            assert (cs.w_max, cs.y_msgs_per_s) == want, s

    def test_every_cycle_field_is_pinned(self):
        # Every field, bit for bit, of each strategy's cycle on the 30 points
        # of the two shipped sweeps and on the 8- and 16-path scenarios.
        scenarios = (_sweep_points("delay_sweep") + _sweep_points("rate_sweep")
                     + [EIGHT, SIXTEEN])
        assert len(scenarios) == 32
        digest = hashlib.sha256()
        for scen in scenarios:
            for s in StrategyId:
                cs = cycle(scen, s)
                digest.update(repr((cs.w_max, cs.t_interests, cs.a_seconds,
                                    cs.y_msgs_per_s, cs.y_gross_bps,
                                    cs.y_net_bps, cs.binding_path,
                                    len(cs.rounds))).encode())
        assert digest.hexdigest() == (
            "f6e4c1f344c348436f351d990e0f3dc1c97180eeb494d62c4d22531cb2d3d35c")

    def test_cycle_agrees_with_the_reference(self):
        # Within 1e-9 of a reference that walks the windows straight-line
        # and adds left to right: up to 2135 windows on 16 paths.  At 4876-byte
        # messages 3.9008 Mbit/s is 100 msg/s, so the 145 ms path's pipe is
        # exactly 29 messages, which 2 * 0.145 * 100.0 misses by float dust.
        dust = Scenario((PathSpec(0.145, 3.9008e6, 0),
                         PathSpec(0.050, 10e6, 20)))
        for scen in (_sweep_points("delay_sweep") + _sweep_points("rate_sweep")
                     + [EIGHT, SIXTEEN, dust]):
            paths = [(p.delay, p.rate_bps, p.buffer_msgs) for p in scen.paths]
            for s in StrategyId:
                cs = cycle(scen, s)
                w_max, t, a, y = _oracle.ref_cycle(
                    paths, scen.data_msg_bytes, s.token)
                assert (cs.w_max, cs.t_interests) == (w_max, t), s
                assert cs.a_seconds == pytest.approx(a, rel=1e-9), s
                assert cs.y_msgs_per_s == pytest.approx(y, rel=1e-9), s

    def test_cycle_is_within_1e_15_of_the_exact_value(self):
        # The oracle's float sum cannot measure a few ulps; this one is
        # exact (fractions.Fraction, over the oracle's own placement order).
        # On the 150 cycles of the shipped sweeps, on the tie scenarios of
        # test_sharing (one with a key tie across two paths' 2*delay) and on
        # three paths whose pieces run to hundreds of windows, every
        # strategy's y is within 1e-15 of it.  The margin matters: the
        # rate sweep's fpf row at 38 Mbit/s prints y_net_mbps 40.0365487849,
        # and its exact value lies only 1.66e-15 above the 12-digit rounding
        # boundary.  Measured: about 0.3 s.
        long = Scenario((PathSpec(0.010, 100e6, 200),
                         PathSpec(0.025, 100e6, 100),
                         PathSpec(0.040, 50e6, 0)))
        for scen in (_sweep_points("delay_sweep") + _sweep_points("rate_sweep")
                     + list(TIES) + [EIGHT, long]):
            paths = [(p.delay, p.rate_bps, p.buffer_msgs) for p in scen.paths]
            for s in StrategyId:
                exact = _oracle.ref_cycle_exact(paths, scen.data_msg_bytes,
                                                s.token)
                y = Fraction(cycle(scen, s).y_msgs_per_s)
                assert abs(y - exact) <= exact / 10 ** 15, (scen, s)

    def test_cycle_work_is_linear_in_w_max(self, monkeypatch):
        # Every strategy counts w_max and draws no placement for it.  cf's
        # cycle() then walks its w_max placements once, adding each window's
        # term as it goes.  Rebuilding every window from zero would draw
        # O(w_max^2) placements.
        drawn = [0]
        real = sharing.placements

        def counted(lanes):
            for i in real(lanes):
                drawn[0] += 1
                yield i
        monkeypatch.setattr("icnflow.model.placements", counted)
        monkeypatch.setattr("icnflow.sharing.placements", counted)
        for s in StrategyId:
            drawn[0] = 0
            w_max = cycle(EIGHT, s).w_max
            assert drawn[0] == (w_max if s is StrategyId.CF else 0), \
                (s, drawn[0])
            drawn[0] = 0
            assert wmax(EIGHT, s) == w_max
            assert drawn[0] == 0, (s, drawn[0])

    def test_even_split_on_twin_paths(self):
        cs = cycle(TWIN, StrategyId.PE)
        assert cs.w_max == 60
        assert cs.t_interests == sum(range(30, 61)) == 1395
        assert cs.y_msgs_per_s == pytest.approx(2 * 10e6 / 39008, rel=1e-12)
        assert cs.y_gross_bps == pytest.approx(20e6, rel=1e-12)
        assert cs.a_seconds == pytest.approx(1395 / (2 * 10e6 / 39008),
                                             rel=1e-12)

    def test_delay_dominated_single_path(self):
        # Capacity 20 with no queueing below it: every round lasts 2D and
        # the round rate is W/(2D).
        path = PathSpec(0.1, 100 * 8 * 4876, 0)  # 100 msg/s, C = 20
        s = Scenario((path,))
        cs = cycle(s, StrategyId.PE)
        assert cs.w_max == 20
        assert cs.a_seconds == pytest.approx(11 * 0.2, rel=1e-12)
        assert cs.y_msgs_per_s == pytest.approx(sum(range(10, 21)) / 2.2,
                                                rel=1e-12)
        assert cs.y_msgs_per_s == pytest.approx(75.0, rel=1e-12)

    def test_gross_and_net_scaling(self):
        cs = cycle(TWO_PATH, StrategyId.CF)
        assert cs.y_gross_bps / cs.y_msgs_per_s == pytest.approx(8 * 4876,
                                                                 rel=1e-12)
        assert cs.y_net_bps / cs.y_msgs_per_s == pytest.approx(8 * 4096,
                                                               rel=1e-12)

    def test_invalid_scenario_is_a_value_error(self):
        # As in run(): core.validate()'s problems, not a division by zero.
        near, far = TWO_PATH.paths
        stopped = Scenario((near, replace(far, rate_bps=0.0)))
        with pytest.raises(ValueError, match="path 1: rate_bps"):
            cycle(stopped, StrategyId.PE)

    def test_asymmetric_delay_ordering(self):
        rates = {s: cycle(TWO_PATH, s).y_msgs_per_s for s in StrategyId}
        assert (rates[StrategyId.FPF] > rates[StrategyId.CF]
                > rates[StrategyId.PE] == rates[StrategyId.UG]
                > rates[StrategyId.RE])


class TestRoundsOnDemand:
    # cycle() sums its rounds straight from the walk and keeps none of
    # them: CycleStats.rounds is the range of the cycle's windows.
    SCENARIOS = (TWO_PATH, TWIN, EIGHT,
                 Scenario((PathSpec(0.001, 10e6, 1),)))  # w_max 1: one round

    def test_rounds_are_the_cycle_windows(self):
        for scen in self.SCENARIOS:
            for s in StrategyId:
                cs = cycle(scen, s)
                assert cs.rounds == range(max(1, cs.w_max // 2),
                                          cs.w_max + 1), s
                again = cycle(scen, s)
                assert again == cs and hash(again) == hash(cs), s

    def test_cycle_memory_does_not_grow_with_the_rounds(self):
        # w_max 4408 (5842 for fpf) on 8 paths, and ten times that with
        # 5000-message buffers.  Built eagerly, the 2200+ rounds with two
        # 8-tuples each peak at 0.84-1.4 MB on the smaller scenario.  Every
        # strategy keeps O(n) state: pe, ug, re and fpf a few pieces, cf one
        # heap entry and one rate a path for its walk; they peak at 1.3-5.1
        # kB on both.  A record of each window's rate, 8 bytes a window,
        # would pass 8 kB on both.
        for buffer in (500, 5000):
            big = Scenario(tuple(PathSpec(0.010 * k, 100e6, buffer)
                                 for k in range(1, 9)))
            for s in StrategyId:
                tracemalloc.start()
                try:
                    cs = cycle(big, s)
                    kept, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert cs.w_max >= 8 * buffer + 408, s
                assert peak < 8_000, (s, buffer, peak)
                assert kept < 4_000, (s, buffer, kept)


class TestSweep:
    def test_delay_sweep_shape_for_capacity_filling(self):
        # Stretching path 2 lengthens its pipe, so the overflow window grows
        # point over point, while the achieved rate is best with equal paths
        # and never falls below what path 1 alone can carry.  The rate curve
        # itself has small floor-rounding wiggles, so it is not asserted to
        # be monotone.
        near, far = TWO_PATH.paths
        pts = [cycle(Scenario((near, replace(far, delay=d / 1e3))),
                     StrategyId.FPF) for d in range(20, 201, 20)]
        ws = [p.w_max for p in pts]
        ys = [p.y_msgs_per_s for p in pts]
        assert all(a < b for a, b in zip(ws, ws[1:]))
        assert ys[0] == max(ys)
        assert min(ys) > 10e6 / 39008
        assert ys[-1] < ys[0]
