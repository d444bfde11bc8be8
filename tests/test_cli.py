"""Tests for the experiment-file loader, the CSV emitter, and exit codes."""

import csv
import hashlib
import io
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

from icnflow import (FPF_CAP_ESTIMATED, LOSS_TIMEOUT, PathSpec, Scenario,
                     SimConfig, SimResult, StrategyId)
from icnflow.cli import (_KEYS, _MAX_SWEEP_POINTS, ExperimentError,
                         ExperimentSpec, SweepSpec, _fmt, load_experiment,
                         main, run_experiment)

HERE = os.path.dirname(__file__)
EXPERIMENTS = os.path.join(HERE, "..", "experiments")


def _write(tmp_path, text, name="case.exp"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)

MINIMAL = """
path.delay_ms = 20
path.rate_mbps = 10
path.buffer_msgs = 20
strategies = pe
mode = model
output = {out}
"""

# Every key the loader knows, with a value other than its default; {stop} is
# one of the two stop conditions.
EVERY_KEY = """
path.delay_ms = 20
path.rate_mbps = 10
path.buffer_msgs = 20
path.delay_ms = 120
path.rate_mbps = 2.5
path.buffer_msgs = 7
data_msg_bytes = 1500
payload_bytes = 1400
strategies = fpf,pe
mode = sim
sweep.path = 1
sweep.param = rate_mbps
sweep.from = 1
sweep.to = 3
sweep.step = 0.5
{stop}
sim.initial_window = 4
sim.seed = 9
sim.loss_signal = timeout
sim.fpf_capacity_mode = estimated
output = runs/every
"""


class TestLoad:
    def test_shipped_experiments_parse(self):
        for name, n_paths, sweep_points in (("delay_sweep.exp", 2, 10),
                                            ("window_trace.exp", 2, None),
                                            ("rate_sweep.exp", 2, 20)):
            spec = load_experiment(os.path.join(EXPERIMENTS, name))
            assert len(spec.scenario.paths) == n_paths
            if sweep_points is None:
                assert spec.sweep is None
            else:
                assert len(spec.sweep.values()) == sweep_points

    def test_units_are_converted(self):
        spec = load_experiment(os.path.join(EXPERIMENTS, "delay_sweep.exp"))
        assert spec.scenario.paths[0].delay == pytest.approx(0.020)
        assert spec.scenario.paths[0].rate_bps == pytest.approx(10e6)
        assert spec.scenario.data_msg_bytes == 4876

    def test_sweep_values_include_both_endpoints(self):
        assert SweepSpec(0, "delay_ms", 20, 200, 20).values() == \
            [20, 40, 60, 80, 100, 120, 140, 160, 180, 200]
        assert SweepSpec(0, "rate_mbps", 0.5, 1.0, 0.1).values() == \
            pytest.approx([0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        # The endpoint sits 1e-10 past `to`: inside the 1e-9 slack, but a
        # tolerance applied after dividing by the step would drop it.
        near = SweepSpec(0, "delay_ms", 67.73, 68.6299999999, 0.02).values()
        assert len(near) == 46
        assert near[0] == 67.73 and near[-1] == 68.63

    # The window trace is the trace command's, and the RTT gain is fixed,
    # so neither has a file key.
    @pytest.mark.parametrize("key, value", [
        ("colour", "blue"), ("sim.trace_window", "true"),
        ("sim.rtt_alpha", "0.25")], ids=["colour", "trace_window", "rtt_alpha"])
    def test_unknown_key_reports_line_number(self, tmp_path, key, value):
        path = _write(tmp_path, "path.delay_ms = 20\n"
                                "path.rate_mbps = 10\n"
                                "path.buffer_msgs = 20\n"
                                "strategies = pe\n"
                                f"{key} = {value}\n")
        with pytest.raises(ExperimentError) as e:
            load_experiment(path)
        assert e.value.problems == [f"line 5: unknown key {key!r}"]

    def test_unknown_strategy_token_is_named(self, tmp_path):
        path = _write(tmp_path, "path.delay_ms = 20\n"
                                "path.rate_mbps = 10\n"
                                "path.buffer_msgs = 20\n"
                                "strategies = pe,srr\n")
        with pytest.raises(ExperimentError) as e:
            load_experiment(path)
        assert any("srr" in p for p in e.value.problems)

    def test_negative_rate_is_a_validation_error(self, tmp_path):
        path = _write(tmp_path, "path.delay_ms = 20\n"
                                "path.rate_mbps = -1\n"
                                "path.buffer_msgs = 20\n"
                                "strategies = pe\n")
        with pytest.raises(ExperimentError) as e:
            load_experiment(path)
        assert any("rate" in p for p in e.value.problems)

    def test_all_problems_are_collected(self, tmp_path):
        path = _write(tmp_path, "path.delay_ms = 20\n"
                                "path.rate_mbps = ten\n"
                                "path.buffer_msgs = 20\n"
                                "strategies = pe,xx\n"
                                "mode = loud\n")
        with pytest.raises(ExperimentError) as e:
            load_experiment(path)
        assert len(e.value.problems) >= 3

    def test_repeated_path_key_starts_a_new_path(self, tmp_path):
        path = _write(tmp_path, "path.delay_ms = 20\n"
                                "path.rate_mbps = 10\n"
                                "path.buffer_msgs = 20\n"
                                "path.delay_ms = 120\n"
                                "path.rate_mbps = 10\n"
                                "path.buffer_msgs = 20\n"
                                "strategies = pe\n")
        spec = load_experiment(path)
        assert len(spec.scenario.paths) == 2
        assert spec.scenario.paths[1].delay == pytest.approx(0.120)

    def test_comments_and_blank_lines_are_ignored(self, tmp_path):
        path = _write(tmp_path, "# header\n\n"
                                "path.delay_ms = 20  # short path\n"
                                "path.rate_mbps = 10\n"
                                "path.buffer_msgs = 20\n"
                                "strategies = pe\n")
        assert load_experiment(path).scenario.paths[0].delay == 0.020

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        # Some editors save UTF-8 with a leading byte-order mark.
        text = MINIMAL.format(out="o").lstrip()
        bom = tmp_path / "bom.exp"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_experiment(str(bom)) == load_experiment(
            _write(tmp_path, text))

    @pytest.mark.parametrize("lines, want", [
        ("sim.total_chunks = 500\nsim.seed = 7\nsim.initial_window = 4\n"
         "sim.loss_signal = timeout\nsim.fpf_capacity_mode = estimated\n",
         SimConfig(total_chunks=500, seed=7, initial_window=4,
                   loss_signal=LOSS_TIMEOUT,
                   fpf_capacity_mode=FPF_CAP_ESTIMATED)),
        ("sim.duration_s = 12\nsim.loss_signal = oracle-immediate\n"
         "sim.fpf_capacity_mode = oracle\n",
         SimConfig(duration=12.0)),
        ("", SimConfig(duration=30.0)),
    ])
    def test_sim_keys_build_the_sim_config(self, tmp_path, lines, want):
        # Every sim.* key the README lists; keys left out keep SimConfig's
        # defaults, and so does the scenario's message size.
        spec = load_experiment(_write(tmp_path, MINIMAL.format(out="o") + lines))
        assert spec.sim == want
        assert spec.scenario == Scenario(spec.scenario.paths)

    @pytest.mark.parametrize("stop, sim", [
        ("sim.duration_s = 12.5", {"duration": 12.5}),
        ("sim.total_chunks = 800", {"total_chunks": 800})],
        ids=["duration", "total_chunks"])
    def test_every_key_builds_the_expected_spec(self, tmp_path, stop, sim):
        spec = load_experiment(_write(tmp_path, EVERY_KEY.format(stop=stop)))
        assert spec == ExperimentSpec(
            Scenario((PathSpec(20 / 1e3, 10 * 1e6, 20),
                      PathSpec(120 / 1e3, 2.5 * 1e6, 7)), 1500, 1400),
            (StrategyId.FPF, StrategyId.PE), "sim",
            SweepSpec(1, "rate_mbps", 1.0, 3.0, 0.5),
            SimConfig(initial_window=4, seed=9, loss_signal=LOSS_TIMEOUT,
                      fpf_capacity_mode=FPF_CAP_ESTIMATED, **sim),
            "runs/every")

    def test_every_key_file_covers_the_key_table(self):
        # A key added to the loader must be added to EVERY_KEY too.
        text = EVERY_KEY.format(stop="sim.duration_s = 1\nsim.total_chunks = 1")
        assert {line.split("=")[0].strip()
                for line in text.splitlines() if line} == set(_KEYS)

    def test_sweep_past_the_point_bound_is_rejected_unbuilt(self, tmp_path,
                                                            monkeypatch):
        def build(self):
            raise AssertionError("the sweep's values were built")
        monkeypatch.setattr(SweepSpec, "values", build)
        path = _write(tmp_path, MINIMAL.format(out="o")
                      + "sweep.path = 0\nsweep.param = delay_ms\n"
                        "sweep.from = 0\nsweep.to = 1e6\nsweep.step = 1e-9\n")
        with pytest.raises(ExperimentError) as e:
            load_experiment(path)
        assert len(e.value.problems) == 1
        assert f"{_MAX_SWEEP_POINTS} points" in e.value.problems[0]
        # The bound itself is allowed, one more point is not.
        at_bound = SweepSpec(0, "delay_ms", 1, _MAX_SWEEP_POINTS, 1)
        assert at_bound.count() == _MAX_SWEEP_POINTS
        with pytest.raises(ValueError):
            replace(at_bound, stop=_MAX_SWEEP_POINTS + 1).count()
        with pytest.raises(ValueError):  # a span past the float range
            SweepSpec(0, "delay_ms", -1e308, 1e308, 1).count()

    # One fault in the file is one problem: a path problem is not reported
    # again as an empty or misnumbered path list.
    @pytest.mark.parametrize("text, want", [
        ("strategies = pe\n", "empty path list"),
        ("path.delay_ms = 20\npath.rate_mbps = ten\npath.buffer_msgs = 20\n"
         "strategies = pe\n", "line 2: bad value for path.rate_mbps"),
        ("path.delay_ms = 20\npath.rate_mbps = 10\nstrategies = pe\n",
         "path 0: missing path.buffer_msgs"),
        (MINIMAL.format(out="o").replace("= pe", "= pe,re,pe"),
         "line 5: bad value for strategies: a strategy is listed twice"),
        (MINIMAL.format(out=""), "line 7: bad value for output: empty"),
        (MINIMAL.format(out="o") + "sim.loss_signal = never\n",
         "line 8: bad value for sim.loss_signal: expected one of"),
        (MINIMAL.format(out="o") + "sim.fpf_capacity_mode = guessed\n",
         "line 8: bad value for sim.fpf_capacity_mode: expected one of")],
        ids=["no_path", "bad_path_value", "missing_path_key",
             "repeated_strategy", "empty_output", "bad_loss_signal",
             "bad_fpf_capacity_mode"])
    def test_one_fault_is_one_problem(self, tmp_path, text, want):
        with pytest.raises(ExperimentError) as e:
            load_experiment(_write(tmp_path, text))
        assert len(e.value.problems) == 1
        assert e.value.problems[0].startswith(want)


class TestRun:
    def test_rates_csv_schema_and_round_trip(self, tmp_path):
        path = _write(tmp_path, MINIMAL.format(out=tmp_path / "o" / "case"))
        spec = load_experiment(path)
        assert run_experiment(spec) == 0
        out = tmp_path / "o" / "case-rates.csv"
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["strategy"] == "pe" and row["source"] == "model"
        assert row["sweep_value"] == ""
        # 12-significant-digit round trip
        y = float(row["y_msgs_per_s"])
        assert y == pytest.approx(256.35767022149304, rel=1e-11)
        assert float(row["y_gross_mbps"]) == pytest.approx(10.0, rel=1e-11)
        assert row["w_max_or_peak"] == "30"

    def test_reruns_are_byte_identical(self, tmp_path):
        path = _write(tmp_path, MINIMAL.format(out=tmp_path / "case"))
        spec = load_experiment(path)
        run_experiment(spec)
        first = (tmp_path / "case-rates.csv").read_bytes()
        run_experiment(spec)
        assert (tmp_path / "case-rates.csv").read_bytes() == first

    def test_round_robin_rows_match_even_split_rows(self, tmp_path):
        path = _write(tmp_path,
                      "path.delay_ms = 20\npath.rate_mbps = 10\n"
                      "path.buffer_msgs = 20\n"
                      "path.delay_ms = 60\npath.rate_mbps = 10\n"
                      "path.buffer_msgs = 20\n"
                      "strategies = pe,ug\nmode = model\n"
                      "sweep.path = 1\nsweep.param = delay_ms\n"
                      "sweep.from = 20\nsweep.to = 100\nsweep.step = 40\n"
                      f"output = {tmp_path / 'pair'}\n")
        assert run_experiment(load_experiment(path)) == 0
        with open(tmp_path / "pair-rates.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        pe = [r for r in rows if r[1] == "pe"]
        ug = [r for r in rows if r[1] == "ug"]
        assert len(pe) == len(ug) == 3
        for a, b in zip(pe, ug):
            assert a[0] == b[0] and a[2:] == b[2:]

    def test_failing_point_does_not_abort_the_sweep(self, tmp_path, capsys):
        # At 0.001 ms with no buffer, path 1 holds no message, so the model
        # has no feasible window there; the simulator still runs, and the
        # later points get both rows, in sweep order.
        path = _write(tmp_path,
                      "path.delay_ms = 20\npath.rate_mbps = 10\n"
                      "path.buffer_msgs = 20\n"
                      "path.delay_ms = 20\npath.rate_mbps = 10\n"
                      "path.buffer_msgs = 0\n"
                      "strategies = pe\nmode = both\n"
                      "sweep.path = 1\nsweep.param = delay_ms\n"
                      "sweep.from = 0.001\nsweep.to = 120.001\n"
                      "sweep.step = 60\nsim.duration_s = 2\n"
                      f"output = {tmp_path / 'gap'}\n")
        assert run_experiment(load_experiment(path)) == 3
        err = capsys.readouterr().err
        assert "model/pe at 0.001" in err and "window" in err
        with open(tmp_path / "gap-rates.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(r[0], r[2]) for r in rows] == [
            ("0.001", "sim"),
            ("60.001", "model"), ("60.001", "sim"),
            ("120.001", "model"), ("120.001", "sim")]
        assert all(float(r[3]) > 0 for r in rows)

    def test_window_trace_files_for_traced_runs(self, tmp_path):
        path = _write(tmp_path,
                      "path.delay_ms = 20\npath.rate_mbps = 10\n"
                      "path.buffer_msgs = 20\n"
                      "strategies = pe\nmode = sim\nsim.duration_s = 3\n"
                      f"output = {tmp_path / 'tr'}\n")
        assert main(["trace", "--experiment", path]) == 0
        with open(tmp_path / "tr-window-pe.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time_s", "window"]
        assert rows[1] == ["0", "1"]
        assert len(rows) > 10

    def test_window_trace_bytes_are_what_csv_writer_gives(self, tmp_path,
                                                          monkeypatch):
        trace = ((0.0, 1), (1e-05, 2), (0.1 + 0.2, 3), (1234567.0, 1))
        result = SimResult(
            delivered_msgs=4, elapsed=1.0, rate_msgs_per_s=4.0,
            gross_bps=4.0 * 8 * 4876, net_bps=4.0 * 8 * 4096, losses=1,
            loss_times=(0.5,), per_face_delivered=(4,), per_face_sent=(5,),
            per_face_dropped=(1,), per_face_inflight=(0,),
            per_face_max_pending=(3,), max_window=3, window_trace=trace)
        monkeypatch.setattr("icnflow.cli.run", lambda *args: result)
        assert run_experiment(ExperimentSpec(
            Scenario((PathSpec(0.020, 10e6, 20),)), (StrategyId.PE,), "sim",
            None, SimConfig(duration=1.0, trace_window=True),
            str(tmp_path / "bytes"))) == 0
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["time_s", "window"])
        for t, w in trace:
            writer.writerow([_fmt(t), str(w)])
        got = (tmp_path / "bytes-window-pe.csv").read_bytes()
        assert got == want.getvalue().encode("utf-8")
        assert got == b"time_s,window\n0,1\n1e-05,2\n0.3,3\n1234567,1\n"


# sha256 of CSVs written by the seeded runs below, recorded before the
# simulator's face selection was folded into one selector.  They pin the
# order of the seeded tie-breaker's rng.choice calls and the
# estimated-capacity fpf picker, which the single-run tests cannot see.
_PINNED_SHA256 = {
    "delay-rates.csv":
        "2434ee1f5a3f45126e39feec4be1820cd169b53bbec2f6468de7304c16c2e273",
    "trace-rates.csv":
        "dbc91be0e38f9b8f9800b6213ed8f1ac8dc7234c05c9628223d7a8f4eca79af1",
    "trace-window-fpf.csv":
        "9c3f13f97abdcc0f5b928d4eb8cda2ddaf18df372e7cd5e21aee92b3f5fdc653",
    "trace-window-pe.csv":
        "27240cd82078256b53bbb9159e1245f77aa7cb86248e3a078cbd11a602bb4677",
    "wide-rates.csv":
        "f798a0e78d1589647130c93c295183115fcd7a1e42183d359f6eb105d48c485f",
    "wide-window-pe.csv":
        "cbda7bb802813a9863dd8aa647190aa38ec49b566e46df002f66c10aa5fe6da8",
    "wide-window-re.csv":
        "5b6895c8f98c22c2e5ae84026440e15e92441cdabec090ffa3afa6f474baad6a",
    "wide-window-ug.csv":
        "cf79c699671c83e195ceb91f20350ef3062674caa5c3b90041ba11ce648722eb",
    "wide-window-cf.csv":
        "4525a9d3e91f59af905f6b90b02dee508ba23a0f303e23b2e1fc6eb64657546a",
    "wide-window-fpf.csv":
        "a925651fa5311a8a81d94cde456a57a2e1af619bf67e15020524dcbabbfc9ff2",
    "ties-oracle-rates.csv":
        "0dc4c5bf858ccbb4af7397d45dfd01226e81c4a03f1afcb72d07ee5e22d5eed7",
    "ties-oracle-window-ug.csv":
        "312fafe04776577ece7c6375f1cc737b44f6bab0b48724599963e139071d2488",
    "ties-oracle-window-cf.csv":
        "e341de978fa0965ae61490b670ee851b34cce8a3013525e094893ccec1816dfc",
    "ties-timeout-rates.csv":
        "2ce0a06e081578bc6bd68676442eab533e143dbb0f97efefda9f7814e6d3add1",
    "ties-timeout-window-ug.csv":
        "a1fcd69486a1b0a816d0f5d67bdfbf065003bb2d89fc7436315d6e09e070758d",
    "ties-timeout-window-cf.csv":
        "62b4c9c736f5e01f6fa6dafbfc6930ff5af88b95089e03a5bfece4b428cad27d",
}


def _run_shipped(tmp_path, name, prefix, **sim):
    spec = load_experiment(os.path.join(EXPERIMENTS, f"{name}.exp"))
    spec = replace(spec, sim=replace(spec.sim, **sim),
                   output=str(tmp_path / prefix))
    assert run_experiment(spec) == 0


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedOutput:
    def test_seeded_delay_sweep_is_pinned(self, tmp_path):
        # All five strategies, model and sim, seeded tie-breaks.
        _run_shipped(tmp_path, "delay_sweep", "delay", seed=1, duration=2.0)
        assert _sha256(tmp_path / "delay-rates.csv") == \
            _PINNED_SHA256["delay-rates.csv"]

    def test_seeded_timeout_trace_with_estimated_capacities_is_pinned(
            self, tmp_path):
        _run_shipped(tmp_path, "window_trace", "trace", seed=1,
                     loss_signal="timeout", fpf_capacity_mode="estimated",
                     trace_window=True)
        for name in ("trace-rates.csv", "trace-window-fpf.csv",
                     "trace-window-pe.csv"):
            assert _sha256(tmp_path / name) == _PINNED_SHA256[name], name

    def test_seeded_eight_path_timeout_run_is_pinned(self, tmp_path):
        # Eight 6.25 Mbit/s paths with 12-message buffers and one-way delays
        # near 10, 20, ..., 80 ms, moved and shuffled by the seed; every
        # strategy to 5000 chunks with timeout loss, estimated fpf caps and
        # window traces.
        rng = random.Random(1)
        delays_ms = [10.0 * k + rng.uniform(-0.05, 0.05) for k in range(1, 9)]
        rng.shuffle(delays_ms)
        scenario = Scenario(tuple(PathSpec(d / 1e3, 6.25e6, 12)
                                  for d in delays_ms))
        sim = SimConfig(total_chunks=5000, seed=1, loss_signal=LOSS_TIMEOUT,
                        fpf_capacity_mode=FPF_CAP_ESTIMATED, trace_window=True)
        assert run_experiment(ExperimentSpec(
            scenario, tuple(StrategyId), "sim", None, sim,
            str(tmp_path / "wide"))) == 0
        for name in sorted(_PINNED_SHA256):
            if name.startswith("wide-"):
                assert _sha256(tmp_path / name) == _PINNED_SHA256[name], name

    def test_runs_with_equal_time_events_are_pinned(self, tmp_path):
        # Round delays and rates put Data returns, drops and timers at
        # exactly equal times, so the order of equal-time events shows in the
        # output; ordering them by time and push order alone changes these.
        scenario = Scenario((PathSpec(0.020, 5e6, 3), PathSpec(0.010, 10e6, 1),
                             PathSpec(0.020, 10e6, 8), PathSpec(0.005, 5e6, 9)))
        for prefix, sim in (
                ("ties-oracle", SimConfig(duration=3.0, seed=3,
                                          trace_window=True)),
                ("ties-timeout", SimConfig(total_chunks=2000, seed=0,
                                           loss_signal=LOSS_TIMEOUT,
                                           trace_window=True))):
            assert run_experiment(ExperimentSpec(
                scenario, (StrategyId.UG, StrategyId.CF), "sim", None, sim,
                str(tmp_path / prefix))) == 0
        for name in sorted(_PINNED_SHA256):
            if name.startswith("ties-"):
                assert _sha256(tmp_path / name) == _PINNED_SHA256[name], name


_SWEEP = ("path.delay_ms = 20\npath.rate_mbps = 10\nsweep.path = 0\n"
          "sweep.param = delay_ms\nsweep.from = {}\nsweep.to = {}\n"
          "sweep.step = {}\n")


class TestMain:
    def test_usage_error_is_exit_1(self, capsys):
        assert main([]) == 1
        assert main(["model"]) == 1

    def test_unreadable_experiment_is_exit_2(self, tmp_path, capsys):
        # A missing file, and one that is not UTF-8 (it used to end in a raw
        # UnicodeDecodeError traceback with exit 1, the usage-error code).
        bad = tmp_path / "bad.exp"
        bad.write_bytes(b"path.delay_ms = 20\xff\n")
        for path in (tmp_path / "nope.exp", bad):
            assert main(["model", "--experiment", str(path)]) == 2
            assert "cannot read experiment" in capsys.readouterr().err

    def test_invalid_experiment_is_exit_2(self, tmp_path, capsys):
        path = _write(tmp_path, "strategies = pe\n")
        assert main(["model", "--experiment", path]) == 2
        assert "experiment error" in capsys.readouterr().err

    def test_infinite_values_are_exit_2(self, tmp_path, capsys):
        # These used to reach the engines: an infinite delay or rate, or
        # finite ones whose pipeline overflows a float, raised a raw
        # OverflowError (exit 3, no CSV), an infinite duration never ended,
        # and a NaN or infinite sweep bound failed to count the sweep points.
        for key, line in (("delay", "path.delay_ms = inf\n"
                                    "path.rate_mbps = 10\n"),
                          ("rate", "path.delay_ms = 20\n"
                                   "path.rate_mbps = inf\n"),
                          ("capacity", "path.delay_ms = 1e200\n"
                                       "path.rate_mbps = 1e200\n"),
                          ("duration", "path.delay_ms = 20\n"
                                       "path.rate_mbps = 10\n"
                                       "sim.duration_s = inf\n"),
                          ("from", _SWEEP.format("nan", "40", "10")),
                          ("to", _SWEEP.format("20", "inf", "10")),
                          ("step", _SWEEP.format("20", "40", "nan"))):
            path = _write(tmp_path, line + "path.buffer_msgs = 20\n"
                                           "strategies = pe\n"
                                           f"output = {tmp_path / key}\n")
            assert main(["sim", "--experiment", path]) == 2, key
            err = capsys.readouterr().err
            assert "experiment error" in err and key in err, key
            assert not (tmp_path / f"{key}-rates.csv").exists()

    def test_sweep_command_needs_a_sweep_section(self, tmp_path):
        path = _write(tmp_path, MINIMAL.format(out=tmp_path / "x"))
        assert main(["sweep", "--experiment", path]) == 2

    def test_invalid_model_point_is_exit_3_with_the_other_rows(
            self, tmp_path, capsys):
        # Rate 0 is no scenario at all: the model reports validate()'s
        # problem for that point and the valid points still get their rows.
        path = _write(tmp_path,
                      "path.delay_ms = 20\npath.rate_mbps = 10\n"
                      "path.buffer_msgs = 20\n"
                      "strategies = pe\nmode = model\n"
                      "sweep.path = 0\nsweep.param = rate_mbps\n"
                      "sweep.from = 0\nsweep.to = 4\nsweep.step = 2\n"
                      f"output = {tmp_path / 'rate'}\n")
        assert main(["sweep", "--experiment", path]) == 3
        err = capsys.readouterr().err
        assert "model/pe at 0: path 0: rate_bps" in err
        with open(tmp_path / "rate-rates.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(r[0], r[2]) for r in rows] == [("2", "model"),
                                                ("4", "model")]

    def test_per_point_model_failure_is_exit_3(self, tmp_path, capsys):
        path = _write(tmp_path,
                      "path.delay_ms = 0.001\npath.rate_mbps = 0.01\n"
                      "path.buffer_msgs = 0\n"
                      "strategies = pe\nmode = model\n"
                      f"output = {tmp_path / 'bad'}\n")
        assert main(["model", "--experiment", path]) == 3
        assert "error" in capsys.readouterr().err

    def test_model_subcommand_with_overrides(self, tmp_path, capsys):
        # window_trace's scenario is the 20 ms / 120 ms pair; the model subcommand
        # overrides the file's sim mode, and --strategy narrows pe,fpf to fpf.
        exp = os.path.join(EXPERIMENTS, "window_trace.exp")
        out = tmp_path / "ovr"
        assert main(["model", "--experiment", exp, "--strategy", "fpf",
                     "--out", str(out)]) == 0
        with open(f"{out}-rates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["strategy"] for r in rows] == ["fpf"]
        assert rows[0]["source"] == "model"
        assert rows[0]["w_max_or_peak"] == "111"

    def test_trace_subcommand_forces_traces(self, tmp_path):
        exp = _write(tmp_path, "path.delay_ms = 20\npath.rate_mbps = 10\n"
                               "path.buffer_msgs = 20\nstrategies = re\n"
                               "mode = model\nsim.duration_s = 2\n"
                               f"output = {tmp_path / 't'}\n")
        assert main(["trace", "--experiment", exp]) == 0
        assert (tmp_path / "t-window-re.csv").exists()

    def test_python_dash_m_runs_from_a_checkout(self, tmp_path):
        exp = _write(tmp_path, MINIMAL.format(out=tmp_path / "m"))
        env = dict(os.environ, PYTHONPATH=os.path.join(HERE, "..", "src"))
        done = subprocess.run(
            [sys.executable, "-m", "icnflow", "model", "--experiment", exp],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert "wrote" in done.stdout
        with open(tmp_path / "m-rates.csv") as fh:
            assert [r["strategy"] for r in csv.DictReader(fh)] == ["pe"]
