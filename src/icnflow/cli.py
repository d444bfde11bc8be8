"""Experiment driver: flat key=value experiment files in, CSV tables out.

An experiment file describes a scenario, the strategies to run, an optional
one-parameter sweep and the simulator settings, one `key = value` per line
('#' starts a comment).  Path blocks repeat the three `path.*` keys once per
path, in order:

    path.delay_ms = 20          # one-way delay, milliseconds
    path.rate_mbps = 10         # bottleneck rate, Mbit/s
    path.buffer_msgs = 20       # drop-tail buffer, Data messages
    data_msg_bytes = 4876
    payload_bytes = 4096
    strategies = pe,re,ug,cf,fpf
    mode = both                 # model | sim | both
    sweep.path = 1              # 0-based path index
    sweep.param = delay_ms      # delay_ms | rate_mbps
    sweep.from = 20
    sweep.to = 200
    sweep.step = 20
    sim.duration_s = 60         # or sim.total_chunks = N
    sim.seed = 0
    output = out/delays

Results land in `<output>-rates.csv` (one row per sweep point, strategy and
source) and, under `icnflow trace`, `<output>-window-<strategy>.csv`.
All delays in these files are milliseconds and all rates Mbit/s; the library
underneath works in seconds and bits/s.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace

from .core import (PathSpec, Scenario, StrategyId, scenario_with, validate)
from .model import ModelError, cycle
from .sim import SimConfig, run, validate_config

_RATES_HEADER = ("sweep_value,strategy,source,y_msgs_per_s,y_gross_mbps,"
                 "y_net_mbps,w_max_or_peak\n")

_PATH_KEYS = ("delay_ms", "rate_mbps", "buffer_msgs")
_SWEEP_KEYS = ("path", "param", "from", "to", "step")
_DEFAULT_DURATION_S = 30.0  # when the file sets neither stop condition


class ExperimentError(Exception):
    """One or more problems in an experiment file; `.problems` lists them."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class SweepSpec:
    path_index: int
    param: str      # delay_ms | rate_mbps
    start: float
    stop: float
    step: float

    def values(self):
        # Both endpoints.  The 1e-9 of slack is absolute, in sweep units, so
        # it goes on `stop` before dividing: after the division it would
        # shrink with the step and drop endpoints that float dust put just
        # past `stop`.
        count = math.floor((self.stop + 1e-9 - self.start) / self.step) + 1
        return [round(self.start + k * self.step, 12) for k in range(count)]


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: Scenario
    strategies: tuple[StrategyId, ...]
    mode: str                 # model | sim | both
    sweep: SweepSpec | None
    sim: SimConfig
    output: str               # file prefix for the CSVs


def load_experiment(path: str) -> ExperimentSpec:
    """Parse and validate one experiment file; raises ExperimentError with
    every problem found (line numbers included)."""
    problems = []
    path_blocks = []   # list of {key: (lineno, raw)}
    block = {}
    flat = {}          # top-level key -> (lineno, raw)

    with open(path, encoding="utf-8") as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                problems.append(f"line {lineno}: expected key = value, got {line!r}")
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key.startswith("path."):
                sub = key[len("path."):]
                if sub not in _PATH_KEYS:
                    problems.append(f"line {lineno}: unknown path key {key!r}")
                    continue
                if sub in block:  # a repeated path key opens the next path
                    path_blocks.append(block)
                    block = {}
                block[sub] = (lineno, value)
            else:
                if key in flat:
                    problems.append(f"line {lineno}: duplicate key {key!r}")
                    continue
                flat[key] = (lineno, value)
    if block:
        path_blocks.append(block)

    def take(key, convert, default):
        if key not in flat:
            return default
        lineno, raw = flat.pop(key)
        try:
            return convert(raw)
        except ValueError as exc:
            problems.append(f"line {lineno}: bad value for {key}: {exc}")
            return default

    def given(**keys):
        # Keywords for the keys the file sets and that parse, so Scenario
        # and SimConfig own every default (no converter returns None).
        kw = {field: take(key, conv, None) for field, (key, conv) in keys.items()}
        return {field: v for field, v in kw.items() if v is not None}

    # paths (ms / Mbps at this boundary, SI below)
    paths = []
    for idx, blk in enumerate(path_blocks):
        vals = {}
        for sub, conv in (("delay_ms", float), ("rate_mbps", float),
                          ("buffer_msgs", int)):
            if sub not in blk:
                problems.append(f"path {idx}: missing path.{sub}")
                continue
            lineno, raw = blk[sub]
            try:
                vals[sub] = conv(raw)
            except ValueError as exc:
                problems.append(f"line {lineno}: bad value for path.{sub}: {exc}")
        if len(vals) == 3:
            paths.append(PathSpec(delay=vals["delay_ms"] / 1e3,
                                  rate_bps=vals["rate_mbps"] * 1e6,
                                  buffer_msgs=vals["buffer_msgs"]))
    if not path_blocks:
        problems.append("no path.* blocks found")

    scenario = Scenario(tuple(paths), **given(
        data_msg_bytes=("data_msg_bytes", int),
        payload_bytes=("payload_bytes", int)))

    strategies = []
    if "strategies" in flat:
        lineno, raw = flat.pop("strategies")
        for token in (s.strip() for s in raw.split(",")):
            try:
                strategies.append(StrategyId(token))
            except ValueError:
                problems.append(f"line {lineno}: unknown strategy {token!r} "
                                f"(expected one of pe, re, ug, cf, fpf)")
    else:
        problems.append("missing key: strategies")

    mode = take("mode", str, "both")
    if mode not in ("model", "sim", "both"):
        problems.append(f"mode must be model, sim or both, got {mode!r}")

    sweep = None
    sweep_present = [k for k in _SWEEP_KEYS if f"sweep.{k}" in flat]
    if sweep_present:
        missing = [k for k in _SWEEP_KEYS if f"sweep.{k}" not in flat]
        if missing:
            problems.append("incomplete sweep section, missing: "
                            + ", ".join(f"sweep.{k}" for k in missing))
        p_idx = take("sweep.path", int, 0)
        param = take("sweep.param", str, "delay_ms")
        start = take("sweep.from", float, 0.0)
        stop = take("sweep.to", float, 0.0)
        step = take("sweep.step", float, 1.0)
        ok = not missing
        if param not in ("delay_ms", "rate_mbps"):
            problems.append(f"sweep.param must be delay_ms or rate_mbps, got {param!r}")
            ok = False
        if paths and not 0 <= p_idx < len(paths):
            problems.append(f"sweep.path {p_idx} out of range (have {len(paths)} paths)")
            ok = False
        for key, value in (("from", start), ("to", stop), ("step", step)):
            if not math.isfinite(value):
                problems.append(f"sweep.{key} must be finite, got {value}")
                ok = False
        if step <= 0:
            problems.append(f"sweep.step must be > 0, got {step}")
            ok = False
        if stop < start:
            problems.append(f"sweep.to ({stop}) is below sweep.from ({start})")
            ok = False
        if ok:
            sweep = SweepSpec(p_idx, param, start, stop, step)

    sim_kw = given(duration=("sim.duration_s", float),
                   total_chunks=("sim.total_chunks", int),
                   initial_window=("sim.initial_window", int),
                   seed=("sim.seed", int),
                   loss_signal=("sim.loss_signal", str),
                   fpf_capacity_mode=("sim.fpf_capacity_mode", str))
    if "duration" not in sim_kw and "total_chunks" not in sim_kw:
        sim_kw["duration"] = _DEFAULT_DURATION_S
    sim_cfg = SimConfig(**sim_kw)

    output = take("output", str, "out/experiment")

    for key, (lineno, _) in flat.items():
        problems.append(f"line {lineno}: unknown key {key!r}")

    problems.extend(validate(scenario))
    problems.extend(validate_config(sim_cfg))
    if problems:
        raise ExperimentError(problems)
    return ExperimentSpec(scenario, tuple(strategies), mode, sweep,
                          sim_cfg, output)


def _fmt(x):
    return f"{x:.12g}"


def _sweep_si(param, value):
    # human sweep units -> library units
    if param == "delay_ms":
        return "delay", value / 1e3
    return "rate", value * 1e6


def run_experiment(spec: ExperimentSpec) -> int:
    """Run every (sweep point, strategy, source) combination and write the
    CSVs.  Per-point failures are reported on stderr and reflected in the
    exit code (3) but never abort the rest of the run."""
    sweep_values = spec.sweep.values() if spec.sweep else [None]
    failures = []
    rows = []
    traces = {}  # strategy token -> window trace (single-point runs only)

    for value in sweep_values:
        if value is None:
            scen = spec.scenario
            tag = ""
        else:
            param, si_value = _sweep_si(spec.sweep.param, value)
            scen = scenario_with(spec.scenario, spec.sweep.path_index,
                                 param, si_value)
            tag = _fmt(value)
        for strat in spec.strategies:
            if spec.mode in ("model", "both"):
                try:
                    cs = cycle(scen, strat)
                    rows.append([tag, strat.token, "model",
                                 _fmt(cs.y_msgs_per_s),
                                 _fmt(cs.y_gross_bps / 1e6),
                                 _fmt(cs.y_net_bps / 1e6),
                                 str(cs.w_max)])
                except (ModelError, ValueError) as exc:
                    failures.append(f"model/{strat.token} at {tag or 'base'}: {exc}")
            if spec.mode in ("sim", "both"):
                try:
                    res = run(scen, strat, spec.sim)
                    rows.append([tag, strat.token, "sim",
                                 _fmt(res.rate_msgs_per_s),
                                 _fmt(res.gross_bps / 1e6),
                                 _fmt(res.net_bps / 1e6),
                                 str(res.max_window)])
                    if spec.sweep is None and res.window_trace is not None:
                        traces[strat.token] = res.window_trace
                except ValueError as exc:
                    failures.append(f"sim/{strat.token} at {tag or 'base'}: {exc}")

    out_dir = os.path.dirname(spec.output)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    # Each file is one write of the rows csv.writer would give: no field
    # ever needs quoting (_fmt numbers, integers, strategy tokens,
    # model/sim, and an empty sweep tag only in a multi-field row).
    rates_path = f"{spec.output}-rates.csv"
    with open(rates_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_RATES_HEADER + "".join([",".join(r) + "\n" for r in rows]))

    for token, trace in traces.items():
        trace_path = f"{spec.output}-window-{token}.csv"
        with open(trace_path, "w", newline="", encoding="utf-8") as fh:
            fh.write("time_s,window\n"
                     + "".join([f"{t:.12g},{w}\n" for t, w in trace]))

    header = f"{'sweep':>12} {'strategy':>8} {'source':>6} " \
             f"{'msgs/s':>14} {'gross Mbps':>12} {'net Mbps':>12} {'wmax/peak':>9}"
    print(header)
    for r in rows:
        print(f"{r[0] or '-':>12} {r[1]:>8} {r[2]:>6} {r[3]:>14} {r[4]:>12} "
              f"{r[5]:>12} {r[6]:>9}")
    print(f"wrote {rates_path}" +
          (f" and {len(traces)} window trace(s)" if traces else ""))

    if failures:
        for f in failures:
            print(f"error: {f}", file=sys.stderr)
        return 3
    return 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(
        prog="icnflow",
        description="Receive-rate model and simulator for windowed "
                    "Interest/Data transfer over parallel paths.",
        epilog="Units: path delays in ms, path rates in Mbit/s, message "
               "sizes in bytes, durations in seconds.  Output rates are "
               "msgs/s and Mbit/s.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("model", "evaluate the analytic cycle model at the base scenario"),
            ("sim", "run the simulator at the base scenario"),
            ("sweep", "run the experiment's sweep (model, sim or both)"),
            ("trace", "run the simulator and record the window trace")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--experiment", required=True, metavar="FILE",
                       help="experiment file (key = value lines)")
        p.add_argument("--strategy", choices=[s.token for s in StrategyId],
                       help="run only this strategy (default: the file's list)")
        p.add_argument("--seed", type=int, help="override sim.seed")
        p.add_argument("--out", help="override the output file prefix")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    try:
        spec = load_experiment(args.experiment)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read experiment: {exc}", file=sys.stderr)
        return 2
    except ExperimentError as exc:
        for p in exc.problems:
            print(f"experiment error: {p}", file=sys.stderr)
        return 2

    if args.command == "model":
        spec = replace(spec, mode="model", sweep=None)
    elif args.command == "sim":
        spec = replace(spec, mode="sim", sweep=None)
    elif args.command == "trace":
        spec = replace(spec, mode="sim", sweep=None,
                       sim=replace(spec.sim, trace_window=True))
    elif spec.sweep is None:
        print("experiment error: the sweep command needs a sweep.* section",
              file=sys.stderr)
        return 2

    if args.strategy:
        spec = replace(spec, strategies=(StrategyId(args.strategy),))
    if args.seed is not None:
        spec = replace(spec, sim=replace(spec.sim, seed=args.seed))
    if args.out:
        spec = replace(spec, output=args.out)

    try:
        return run_experiment(spec)
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
