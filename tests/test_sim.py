"""Unit tests for the event-driven simulator."""

import hashlib
from dataclasses import astuple

import pytest

import _oracle
from icnflow import PathSpec, Scenario, SimConfig, StrategyId, run
from icnflow.core import pipeline_capacity, rate_msgs
from icnflow.sim import (FPF_CAP_ESTIMATED, LOSS_TIMEOUT, FaceState,
                         select_face, validate_config)

TWO_PATH = Scenario((PathSpec(0.020, 10e6, 20), PathSpec(0.120, 10e6, 20)))
MSG_SECONDS = 4876 * 8 / 10e6  # service time of one message at 10 Mbps


def _faces(*pending):
    faces = [FaceState() for _ in pending]
    for f, p in zip(faces, pending):
        f.pending = p
    return faces


class TestConfigValidation:
    def test_needs_exactly_one_stop_condition(self):
        assert validate_config(SimConfig()) != []
        assert validate_config(SimConfig(duration=1.0, total_chunks=5)) != []
        assert validate_config(SimConfig(duration=1.0)) == []
        assert validate_config(SimConfig(total_chunks=5)) == []

    def test_range_checks(self):
        assert validate_config(SimConfig(duration=-1.0)) != []
        assert validate_config(SimConfig(duration=1.0, initial_window=0)) != []
        assert validate_config(SimConfig(duration=1.0,
                                         loss_signal="carrier-pigeon")) != []
        assert validate_config(SimConfig(duration=1.0,
                                         fpf_capacity_mode="guessed")) != []

    def test_infinite_and_fractional_values_are_rejected(self):
        # An infinite duration would never end; fractional counts have no
        # meaning for whole Interests.
        for cfg, word in ((SimConfig(duration=float("inf")), "duration"),
                          (SimConfig(total_chunks=2.5), "total_chunks"),
                          (SimConfig(duration=1.0, initial_window=1.5),
                           "initial_window"),
                          (SimConfig(duration=1.0, initial_window=10**400),
                           "initial_window"),
                          # More than 4300 digits: the message cannot
                          # print them.
                          (SimConfig(total_chunks=10**5000), "total_chunks"),
                          (SimConfig(duration=1.0, initial_window=10**5000),
                           "initial_window"),
                          (SimConfig(duration=10**5000), "duration")):
            problems = validate_config(cfg)
            assert len(problems) == 1 and word in problems[0], cfg

    def test_run_rejects_bad_config(self):
        with pytest.raises(ValueError):
            run(TWO_PATH, StrategyId.PE, SimConfig())


class TestFaceSelection:
    def test_min_pending(self):
        cfg = SimConfig(duration=1.0)
        s = Scenario((PathSpec(0.02, 10e6, 20),) * 3)
        assert select_face(StrategyId.PE, _faces(3, 1, 2), s, cfg) == 1

    def test_capacity_filling_skips_saturated_face(self):
        cfg = SimConfig(duration=1.0)
        assert select_face(StrategyId.FPF, _faces(30, 5), TWO_PATH, cfg) == 1

    def test_zero_pending_priority(self):
        cfg = SimConfig(duration=1.0)
        assert select_face(StrategyId.CF, _faces(0, 7), TWO_PATH, cfg) == 0

    def test_delay_equalizing_prefers_short_backlog_time(self):
        cfg = SimConfig(duration=1.0)
        # 31 outstanding drain in 121 ms, still under the slow path's 240 ms.
        assert select_face(StrategyId.RE, _faces(31, 0), TWO_PATH, cfg) == 0
        # Identical paths: tie falls to the emptier face.
        twin = Scenario((PathSpec(0.02, 10e6, 20),) * 2)
        assert select_face(StrategyId.RE, _faces(2, 1), twin, cfg) == 1

    def test_round_robin_alternates_on_equal_weights(self):
        cfg = SimConfig(duration=1.0)
        twin = Scenario((PathSpec(0.02, 10e6, 20),) * 2)
        faces = _faces(0, 0)
        first = select_face(StrategyId.UG, faces, twin, cfg)
        second = select_face(StrategyId.UG, faces, twin, cfg)
        assert {first, second} == {0, 1}


class TestBufferCensus:
    # One path, 10 ms delay, one message serialises in 2 ms, 5 buffer slots.
    SCEN = Scenario((PathSpec(0.010, 4876 * 8 / 0.002, 5),))

    def test_burst_over_buffer_drops_once(self):
        # Six Interests land together: one in service, five queued is full
        # occupancy, so exactly the sixth is lost, at exactly the one-way
        # delay; the halved window drains before the retransmission returns.
        res = run(self.SCEN, StrategyId.PE,
                  SimConfig(total_chunks=40, initial_window=6))
        assert res.losses == 1
        assert res.loss_times == (0.010,)
        assert res.delivered_msgs == 40

    def test_burst_filling_buffer_exactly_is_lossless(self):
        res = run(self.SCEN, StrategyId.PE,
                  SimConfig(total_chunks=40, initial_window=5))
        assert res.losses == 0
        assert res.delivered_msgs == 40

    def test_steady_state_loss_point_matches_pipeline_capacity(self):
        one = Scenario((PathSpec(0.020, 10e6, 20),))
        cap = pipeline_capacity(one.paths[0], rate_msgs(one, 0))
        res = run(one, StrategyId.PE, SimConfig(duration=20.0,
                                                trace_window=True))
        assert res.per_face_max_pending[0] == cap + 1
        peaks = _oracle.halving_points(res.window_trace)
        assert peaks, "expected at least one halving"
        assert all(p == (cap + 1, (cap + 1) // 2) for p in peaks)


class TestSawtooth:
    def test_single_path_saturates_its_bottleneck(self):
        one = Scenario((PathSpec(0.020, 10e6, 20),))
        res = run(one, StrategyId.RE, SimConfig(duration=30.0))
        assert res.rate_msgs_per_s == pytest.approx(rate_msgs(one, 0),
                                                    rel=0.05)


class TestAccounting:
    def test_conservation_per_face(self):
        res = run(TWO_PATH, StrategyId.CF, SimConfig(duration=15.0))
        for i in range(2):
            assert res.per_face_sent[i] == (res.per_face_delivered[i]
                                            + res.per_face_dropped[i]
                                            + res.per_face_inflight[i])
        assert sum(res.per_face_delivered) == res.delivered_msgs
        assert sum(res.per_face_dropped) == res.losses

    def test_rate_definition(self):
        res = run(TWO_PATH, StrategyId.PE, SimConfig(duration=10.0))
        assert res.rate_msgs_per_s == pytest.approx(
            res.delivered_msgs / res.elapsed, rel=1e-12)
        assert res.gross_bps == pytest.approx(res.rate_msgs_per_s * 8 * 4876,
                                              rel=1e-12)

    def test_chunk_mode_stops_at_the_requested_count(self):
        res = run(TWO_PATH, StrategyId.FPF, SimConfig(total_chunks=777))
        assert res.delivered_msgs == 777
        assert res.elapsed > 0

    def test_capacity_bound_under_capacity_filling(self):
        caps = [pipeline_capacity(p, rate_msgs(TWO_PATH, i))
                for i, p in enumerate(TWO_PATH.paths)]
        res = run(TWO_PATH, StrategyId.FPF, SimConfig(duration=30.0))
        for i in range(2):
            assert res.per_face_max_pending[i] <= caps[i] + 1


class TestDeterminismAndSeeds:
    def test_identical_runs_are_identical(self):
        cfg = SimConfig(duration=12.0, trace_window=True)
        assert (run(TWO_PATH, StrategyId.UG, cfg)
                == run(TWO_PATH, StrategyId.UG, cfg))

    def test_seeded_runs_are_reproducible(self):
        cfg = SimConfig(duration=12.0, seed=7)
        assert (run(TWO_PATH, StrategyId.PE, cfg)
                == run(TWO_PATH, StrategyId.PE, cfg))

    def test_seed_zero_differs_only_in_tie_breaking_policy(self):
        # Both must deliver comparable totals; exact equality not required.
        a = run(TWO_PATH, StrategyId.PE, SimConfig(duration=12.0, seed=0))
        b = run(TWO_PATH, StrategyId.PE, SimConfig(duration=12.0, seed=3))
        assert b.delivered_msgs == pytest.approx(a.delivered_msgs, rel=0.05)

    def test_large_window_results_are_pinned(self):
        # Hundreds of Interests in flight per face, where the other pins stay
        # near 110: every strategy, with oracle loss and with timeout loss and
        # estimated fpf caps; the digest covers every SimResult field.
        fast = Scenario((PathSpec(0.020, 100e6, 200),
                         PathSpec(0.120, 100e6, 200)))
        digest = hashlib.sha256()
        for extra in ({}, {"loss_signal": LOSS_TIMEOUT,
                           "fpf_capacity_mode": FPF_CAP_ESTIMATED}):
            cfg = SimConfig(duration=2.0, initial_window=300, seed=1, **extra)
            for strategy in StrategyId:
                res = run(fast, strategy, cfg)
                assert res.max_window >= 300
                digest.update(repr(astuple(res)).encode())
        assert digest.hexdigest() == (
            "d2a3417d05e7170c8e22f99a9cd257a0144b17e7cef31e21bd30ee85fb54e026")


class TestOtherModes:
    def test_timeout_signal_still_delivers(self):
        res = run(TWO_PATH, StrategyId.PE,
                  SimConfig(duration=20.0, loss_signal=LOSS_TIMEOUT))
        assert res.delivered_msgs > 0
        assert res.losses > 0  # drops exist; detections come from timers

    def test_estimated_capacity_mode_converges_to_a_sawtooth(self):
        res = run(TWO_PATH, StrategyId.FPF,
                  SimConfig(duration=40.0, fpf_capacity_mode=FPF_CAP_ESTIMATED,
                            trace_window=True))
        assert res.delivered_msgs > 0
        assert res.losses > 0
        assert _oracle.halving_points(res.window_trace)


class TestTrace:
    def test_trace_starts_at_initial_window_and_tracks_growth(self):
        res = run(TWO_PATH, StrategyId.PE, SimConfig(duration=5.0,
                                                     trace_window=True))
        assert res.window_trace[0] == (0.0, 1)
        times = [t for t, _ in res.window_trace]
        assert times == sorted(times)
        assert res.max_window == max(w for _, w in res.window_trace)

    def test_trace_absent_by_default(self):
        assert run(TWO_PATH, StrategyId.PE,
                   SimConfig(duration=5.0)).window_trace is None
