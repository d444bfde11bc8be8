"""Unit tests for the domain types and per-path formulas."""

import pytest

from icnflow import PathSpec, Scenario, StrategyId, validate
from icnflow.core import pipeline_capacity, rate_msgs, rtt

MSG = 4876
TWO_PATH = Scenario((PathSpec(0.020, 10e6, 20), PathSpec(0.120, 10e6, 20)))


class TestRateConversion:
    def test_ten_mbps_message_rate(self):
        assert rate_msgs(TWO_PATH, 0) == pytest.approx(10e6 / 39008, rel=1e-12)
        assert rate_msgs(TWO_PATH, 0) == pytest.approx(256.36, abs=0.01)

    def test_rate_equal_to_message_size_is_one_per_second(self):
        s = Scenario((PathSpec(0.01, 8.0 * MSG, 5),))
        assert rate_msgs(s, 0) == pytest.approx(1.0, rel=1e-12)

    def test_twenty_mbps_message_rate(self):
        s = Scenario((PathSpec(0.01, 20e6, 5),))
        assert rate_msgs(s, 0) == pytest.approx(512.72, abs=0.01)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            rate_msgs(TWO_PATH, 2)


class TestRtt:
    RATE = 10e6 / 39008
    PATH = PathSpec(0.020, 10e6, 20)

    def test_delay_dominated(self):
        # 5 outstanding drain in ~19.5 ms, below the 40 ms propagation floor.
        assert rtt(self.PATH, 5, self.RATE) == pytest.approx(0.040, rel=1e-12)

    def test_bandwidth_dominated(self):
        assert rtt(self.PATH, 30, self.RATE) == pytest.approx(30 / self.RATE,
                                                              rel=1e-12)
        assert rtt(self.PATH, 30, self.RATE) == pytest.approx(0.117, abs=5e-4)

    def test_empty_pipe_is_twice_the_delay(self):
        assert rtt(self.PATH, 0, self.RATE) == 2 * self.PATH.delay

    def test_continuous_at_crossover(self):
        crossover = 2 * self.PATH.delay * self.RATE
        lo = rtt(self.PATH, crossover - 1e-9, self.RATE)
        hi = rtt(self.PATH, crossover + 1e-9, self.RATE)
        assert lo == pytest.approx(hi, abs=1e-11)


class TestPipelineCapacity:
    def test_short_path(self):
        assert pipeline_capacity(TWO_PATH.paths[0], rate_msgs(TWO_PATH, 0)) == 30

    def test_long_path(self):
        assert pipeline_capacity(TWO_PATH.paths[1], rate_msgs(TWO_PATH, 1)) == 81

    def test_no_buffer_integral_case(self):
        # 2 * 0.1 s * 20 msg/s = 4 exactly, no buffer on top.
        path = PathSpec(0.1, 20 * 8 * MSG, 0)
        assert pipeline_capacity(path, rate_msgs(Scenario((path,)), 0)) == 4

    def test_monotone_in_every_parameter(self):
        base = PathSpec(0.020, 10e6, 20)
        r = rate_msgs(Scenario((base,)), 0)
        c = pipeline_capacity(base, r)
        assert pipeline_capacity(PathSpec(0.040, 10e6, 20), r) >= c
        assert pipeline_capacity(base, 2 * r) >= c
        assert pipeline_capacity(PathSpec(0.020, 10e6, 40), r) >= c


class TestValidate:
    def test_reference_scenario_is_clean(self):
        assert validate(TWO_PATH) == []

    def test_empty_path_list(self):
        problems = validate(Scenario((), MSG, 4096))
        assert problems and any("path" in p for p in problems)

    def test_payload_larger_than_message(self):
        s = Scenario((PathSpec(0.02, 10e6, 20),), data_msg_bytes=100,
                     payload_bytes=200)
        assert any("payload" in p for p in validate(s))

    def test_bad_path_parameters_all_reported(self):
        s = Scenario((PathSpec(-1.0, 0.0, -3),))
        problems = validate(s)
        assert len(problems) >= 3

    def test_zero_buffer_is_legal(self):
        assert validate(Scenario((PathSpec(0.02, 10e6, 0),))) == []

    def test_infinite_and_fractional_path_values_are_rejected(self):
        # Each of these used to pass and then crash pipeline_capacity with an
        # OverflowError, or be silently used as a fractional buffer; a buffer
        # past the float range raised in validate() itself, and a message
        # rate of 0 crashed cycle() with a ZeroDivisionError.  A value of
        # more than 4300 digits raised formatting its own problem message.
        inf = float("inf")
        huge = 10**5000
        for path, word in ((PathSpec(inf, 10e6, 20), "delay"),
                           (PathSpec(0.02, inf, 20), "rate"),
                           (PathSpec(0.02, 10e6, 2.5), "buffer"),
                           (PathSpec(0.02, 10e6, inf), "buffer"),
                           (PathSpec(float("nan"), 10e6, 20), "delay"),
                           (PathSpec(0.02, 10e6, 10**400), "buffer"),
                           (PathSpec(huge, 10e6, 20), "delay"),
                           (PathSpec(0.02, huge, 20), "rate"),
                           (PathSpec(0.02, 10e6, huge), "buffer"),
                           # finite, but 2*delay*rate is not
                           (PathSpec(1e197, 1e206, 20), "capacity"),
                           # positive, but the message rate underflows to 0
                           (PathSpec(0.02, 5e-324, 20), "backlog")):
            problems = validate(Scenario((path,)))
            assert len(problems) == 1 and word in problems[0], path
        for msg, payload, word in ((huge, 4096, "data_msg_bytes"),
                                   (4876, huge, "payload_bytes")):
            problems = validate(Scenario((PathSpec(0.02, 10e6, 20),), msg,
                                         payload))
            assert problems == [f"{word} must be a finite whole number > 0, "
                                "got a whole number past the float range"]
        # A whole float is still a whole number of messages.
        assert validate(Scenario((PathSpec(0.02, 10e6, 20.0),))) == []

    def test_infinite_and_fractional_message_sizes_are_rejected(self):
        # An infinite message size made the message rate zero and crashed
        # cycle() with a ZeroDivisionError.
        path = (PathSpec(0.02, 10e6, 20),)
        for msg, payload, word in ((float("inf"), 4096, "data_msg_bytes"),
                                   (4876.5, 4096, "data_msg_bytes"),
                                   (4876, 4096.5, "payload_bytes")):
            problems = validate(Scenario(path, msg, payload))
            assert len(problems) == 1 and word in problems[0], (msg, payload)


class TestStrategyId:
    def test_tokens_round_trip(self):
        for s in StrategyId:
            assert StrategyId(s.token) is s
        assert {s.token for s in StrategyId} == {"pe", "re", "ug", "cf", "fpf"}

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError):
            StrategyId("srr")
