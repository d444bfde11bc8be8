"""Experiment driver: flat key=value experiment files in, CSV tables out.

An experiment file describes a scenario, the strategies to run, an optional
one-parameter sweep and the simulator settings, one `key = value` per line
('#' starts a comment).  The three `path.*` keys come once per path, in
order; a path key already set in the current path block opens the next one:

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

import math
import os
import sys
from dataclasses import dataclass, replace

from .core import PathSpec, Scenario, StrategyId, validate
from .model import ModelError, cycle
from .sim import (FPF_CAP_ESTIMATED, FPF_CAP_ORACLE, LOSS_ORACLE, LOSS_TIMEOUT,
                  SimConfig, run, validate_config)

_RATES_HEADER = ("sweep_value,strategy,source,y_msgs_per_s,y_gross_mbps,"
                 "y_net_mbps,w_max_or_peak\n")

_DEFAULT_DURATION_S = 30.0  # when the file sets neither stop condition
_MAX_SWEEP_POINTS = 10_000  # a longer sweep is refused, never built
_BAD = object()             # a value its converter rejected (and reported)


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

    def count(self) -> int:
        """Number of sweep points, both endpoints included; ValueError, with
        nothing built, unless that is 1 to _MAX_SWEEP_POINTS."""
        if not self.step > 0:
            raise ValueError(f"sweep.step must be > 0, got {self.step}")
        # The 1e-9 of slack is absolute, in sweep units, so it goes on `stop`
        # before dividing: after the division it would shrink with the step
        # and drop endpoints that float dust put just past `stop`.
        steps = (self.stop + 1e-9 - self.start) / self.step
        if not 0 <= steps < _MAX_SWEEP_POINTS:  # an infinite span fails too
            raise ValueError(f"sweep {self.start}..{self.stop} by {self.step} "
                             f"must have 1 to {_MAX_SWEEP_POINTS} points")
        return math.floor(steps) + 1

    def values(self):
        return [round(self.start + k * self.step, 12)
                for k in range(self.count())]

    def points(self, base: Scenario):
        """Yields (value, scenario) for each of values(): `base` with path
        `path_index`'s field set as the file key `path.<param>` sets it."""
        _, field, to_si = _KEYS["path." + self.param]  # to s or bit/s
        paths = list(base.paths)
        swept = paths[self.path_index]
        for value in self.values():
            paths[self.path_index] = replace(swept, **{field: to_si(value)})
            yield value, replace(base, paths=tuple(paths))


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: Scenario
    strategies: tuple[StrategyId, ...]
    mode: str                 # model | sim | both
    sweep: SweepSpec | None
    sim: SimConfig
    output: str               # file prefix for the CSVs


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _one_of(*choices):
    def convert(raw):
        if raw not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, "
                             f"got {raw!r}")
        return raw
    return convert


_strategy_token = _one_of(*(s.token for s in StrategyId))


def _strategies(raw):
    tokens = [_strategy_token(t.strip()) for t in raw.split(",")]
    if len(set(tokens)) < len(tokens):
        raise ValueError(f"a strategy is listed twice in {raw!r}")
    return tuple(map(StrategyId, tokens))


# File key -> (what it sets, field name there, converter).  Path delays and
# rates go from ms and Mbit/s to the library's seconds and bits/s here.
_KEYS = {
    "path.delay_ms": ("path", "delay", lambda raw: float(raw) / 1e3),
    "path.rate_mbps": ("path", "rate_bps", lambda raw: float(raw) * 1e6),
    "path.buffer_msgs": ("path", "buffer_msgs", int),
    "data_msg_bytes": ("scenario", "data_msg_bytes", int),
    "payload_bytes": ("scenario", "payload_bytes", int),
    "strategies": ("spec", "strategies", _strategies),
    "mode": ("spec", "mode", _one_of("model", "sim", "both")),
    "output": ("spec", "output", str),
    "sweep.path": ("sweep", "path_index", int),
    "sweep.param": ("sweep", "param", _one_of("delay_ms", "rate_mbps")),
    "sweep.from": ("sweep", "start", _finite),
    "sweep.to": ("sweep", "stop", _finite),
    "sweep.step": ("sweep", "step", _finite),
    "sim.duration_s": ("sim", "duration", float),
    "sim.total_chunks": ("sim", "total_chunks", int),
    "sim.initial_window": ("sim", "initial_window", int),
    "sim.seed": ("sim", "seed", int),
    "sim.loss_signal": ("sim", "loss_signal",
                        _one_of(LOSS_ORACLE, LOSS_TIMEOUT)),
    "sim.fpf_capacity_mode": ("sim", "fpf_capacity_mode",
                              _one_of(FPF_CAP_ORACLE, FPF_CAP_ESTIMATED)),
}


def load_experiment(path: str) -> ExperimentSpec:
    """Parse and validate one experiment file; raises ExperimentError with
    every problem found (line numbers included)."""
    problems = []
    blocks = []  # one {field: value} per path, in file order
    found = {"scenario": {}, "spec": {}, "sweep": {}, "sim": {}}

    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not eq:
                problems.append(f"line {lineno}: expected key = value, got {line!r}")
                continue
            if key not in _KEYS:
                problems.append(f"line {lineno}: unknown key {key!r}")
                continue
            group, field, convert = _KEYS[key]
            if group == "path":
                if not blocks or field in blocks[-1]:
                    blocks.append({})  # the key is set already: next path
                into = blocks[-1]
            else:
                into = found[group]
                if field in into:
                    problems.append(f"line {lineno}: duplicate key {key!r}")
                    continue
            try:
                if not value:  # no key takes an empty value
                    raise ValueError("empty")
                into[field] = convert(value)
            except ValueError as exc:
                into[field] = _BAD
                problems.append(f"line {lineno}: bad value for {key}: {exc}")

    def complete(group, kw, where):
        # Reports `group`'s keys missing from `kw`; true if none is, nor bad.
        missing = [key for key, (g, field, _) in _KEYS.items()
                   if g == group and field not in kw]
        if missing:
            problems.append(f"{where}: missing {', '.join(missing)}")
        return not missing and _BAD not in kw.values()

    # Objects get just the fields the file sets (their classes own defaults);
    # they are checked whole only if all converted, so nothing is said twice.
    paths = tuple(PathSpec(**blk) for idx, blk in enumerate(blocks)
                  if complete("path", blk, f"path {idx}"))
    scenario = Scenario(paths, **found["scenario"])
    if len(paths) == len(blocks) and _BAD not in found["scenario"].values():
        problems.extend(validate(scenario))

    if "strategies" not in found["spec"]:
        problems.append("missing key: strategies")

    sweep = None
    if found["sweep"] and complete("sweep", found["sweep"], "sweep"):
        sweep = SweepSpec(**found["sweep"])
        if blocks and not 0 <= sweep.path_index < len(blocks):
            problems.append(f"sweep.path {sweep.path_index} out of range "
                            f"(have {len(blocks)} paths)")
        try:
            sweep.count()
        except ValueError as exc:
            problems.append(str(exc))

    sim_kw = found["sim"]
    if "duration" not in sim_kw and "total_chunks" not in sim_kw:
        sim_kw["duration"] = _DEFAULT_DURATION_S
    sim_cfg = SimConfig(**sim_kw)
    if _BAD not in sim_kw.values():
        problems.extend(validate_config(sim_cfg))

    if problems:
        raise ExperimentError(problems)
    spec = {"mode": "both", "output": "out/experiment", **found["spec"]}
    return ExperimentSpec(scenario=scenario, sweep=sweep, sim=sim_cfg, **spec)


def _fmt(x):
    return f"{x:.12g}"


def run_experiment(spec: ExperimentSpec) -> int:
    """Run every (sweep point, strategy, source) combination and write the
    CSVs.  Per-point failures are reported on stderr and reflected in the
    exit code (3) but never abort the rest of the run."""
    points = (spec.sweep.points(spec.scenario) if spec.sweep
              else [(None, spec.scenario)])
    failures = []
    rows = []
    traces = {}  # strategy token -> window trace (single-point runs only)

    for value, scen in points:
        tag = "" if value is None else _fmt(value)
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


def _build_parser():
    # argparse is imported here, not at the top: library users who only
    # import the package do not pay for it.
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

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

    if args.command != "sweep":
        mode = "model" if args.command == "model" else "sim"
        sim = replace(spec.sim, trace_window=args.command == "trace")
        spec = replace(spec, mode=mode, sweep=None, sim=sim)
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
