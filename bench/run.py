"""Layered benchmark for icnflow: time to CSV on three workloads.

Each workload runs in one process with one caller and no threads: a closed
loop that hands every ExperimentSpec of the workload to
icnflow.cli.run_experiment, waits until its CSVs are written, checks them,
and starts the next iteration while the last one still fits in --seconds.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

        One run.  --trace 0 gives the end-to-end metrics: the time of one
        pass to the CSVs, summed over its parts from the fastest of each
        over the run's iterations (wall_s); the fastest of 60 fresh-process
        set-ups spread over the run (setup_s); and the peak RSS of the
        process (peak_rss_mb).  --trace 1 is the
        traced run: iterations alternate between untraced and every layer
        boundary wrapped (bench/tracing.py), then a select_face
        microbenchmark; it gives the per-layer metrics and writes the spans
        to .bench_out/<workload>/spans.json.  Metrics are printed one per
        line with their unit; the last line of stdout is one JSON object
        with the keys correct, attempted, failed and metrics.

    python3 bench/run.py [--seed N] [--seconds S] [--repeats R] [--record FILE]

        Every workload, untraced (R times, medians) and traced, each run in
        its own process.  With --record (e.g. bench/records/BENCH_2.json) it
        writes a bench record with the commit and the src/ line count, and a
        diff against the newest earlier record in the same directory.

Exit status: 0 when every output passed its check, 1 when a check failed or
a run did not finish, 2 when the repository's src/ or experiments/ is
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may get worse.  BENCHMARK.json lists the same metrics.
# The untraced run also prints, without gating them: call_p50_ms and
# call_p90_ms, the latency of one (point, strategy, source) unit, which do not
# repeat run to run (the median of paper_sweeps falls in the gap between its
# model and sim units, that of wide_model is the one re cycle per
# iteration); sim_interests_per_s and model_rounds_per_s, which exist only
# where that engine runs, while every gated metric must be non-zero on every
# workload; and wall_p50_s and setup_p50_s, the medians of whole passes and
# of set-ups beside the gated fastest ones.  The traced run reports the two
# rates as per-layer metrics.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

STRATEGIES = ("pe", "re", "ug", "cf", "fpf")
PER_LAYER = [
    ("sharing.share_calls", "count", "lower"),
    ("sharing.share_s", "s", "lower"),
    ("sharing.self_s", "s", "lower"),
    ("core.rtt_calls", "count", "lower"),
    ("model.wmax_s", "s", "lower"),
    ("model.cycle_self_s", "s", "lower"),
    ("model.self_s", "s", "lower"),
    ("model.share_calls_per_round", "ratio", "lower"),
    ("model_rounds_per_s", "1/s", "higher"),
    ("sim.run_s", "s", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.ns_per_interest", "ns", "lower"),
    ("sim_interests_per_s", "1/s", "higher"),
    ("sim.interests", "count", "lower"),
    ("sim.losses", "count", "lower"),
    ("sim.delivery_ratio", "ratio", "higher"),
    ("sim.loss_ratio", "ratio", "lower"),
    *((f"sim.select_face_ns.{s}.n{n}", "ns", "lower")
      for s in STRATEGIES for n in (2, 8)),
    ("cli.load_experiment_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.csv_rows", "count", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

UNIT_SPANS = ("model.cycle", "sim.run")
# setup_s is the fastest of this many fresh-process set-ups, spread evenly
# between the iterations: CPU speed on a shared host drifts over tens of
# seconds, and set-up should see the same phases of it as wall_s does.
SETUP_PROBES = 60
SPEC_BUILDS = 5         # in-process builds per traced run, for load_experiment_s
SELECT_CALLS = 2000     # select_face calls per microbenchmark sample
SELECT_SAMPLES = 5

_clock = time.perf_counter


class LayoutError(Exception):
    """The checkout lacks the program the benchmark measures."""


def _require_layout():
    missing = [p for p in ("src/icnflow/cli.py", "experiments/delay_sweep.exp",
                           "experiments/rate_sweep.exp")
               if not (ROOT / p).is_file()]
    if missing:
        raise LayoutError("not an icnflow checkout, missing: " + ", ".join(missing))
    sys.path.insert(0, str(ROOT / "src"))


def _middle(values):
    """Median; for counts, the lower middle value, so a count stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _fastest(values):
    """The least of several timings of the same work, as timeit advises.
    Other tenants of a shared host only ever add time, and they come and go
    within seconds: the fastest of a run's samples follows the program, the
    median also follows the neighbours.  On a 2-vCPU share, 10 ms of fixed
    work kept a steady minimum while its median in 2 s windows ranged over
    40 %; over five 30 s runs of paper_sweeps, the fastest pass and set-up
    spread by about 5 % (quartile distance over median), their medians by up
    to 28 %."""
    return min(values)


def _pass_time(iters):
    """One pass over the workload's specs, from start to CSVs written, put
    together from its parts: each (point, strategy, source) unit and the rest
    of the pass (sweep bookkeeping, CSV writing), each at its _fastest() over
    the run's iterations.  A part of milliseconds finds a quiet moment of the
    host far more often than a whole pass of a second does."""
    return sum(_fastest(samples)
               for samples in zip(*(it.parts for it in iters), strict=True))


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# one iteration: every spec of the workload once, then the output check

class Iteration:
    """One pass: its wall time, its problems, the times of its parts (each
    unit, then the rest of the pass) and the work its units did.  Only a
    traced pass keeps its spans, so that an untraced run holds a few numbers
    per pass and its peak RSS does not grow with the number of passes."""

    def __init__(self, wall, spans, rtt_calls, problems, files, keep_spans):
        self.wall = wall
        self.rtt_calls = rtt_calls
        self.problems = problems
        units = [s for s in spans if s[1] in UNIT_SPANS]
        self.spans = spans if keep_spans else None
        self.units = units if keep_spans else None
        self.parts = [s[4] - s[3] for s in units]
        self.parts.append(wall - sum(self.parts))
        self.failed = sum(1 for s in units if s[5] is None or "error" in s[5])
        done = [(s[1], s[4] - s[3], s[5]) for s in units
                if s[5] is not None and "error" not in s[5]]
        self.sim_sent = sum(i["sent"] for n, _, i in done if n == "sim.run")
        self.sim_s = sum(d for n, d, _ in done if n == "sim.run")
        self.rounds = sum(i["rounds"] for n, _, i in done if n == "model.cycle")
        self.model_s = sum(d for n, d, _ in done if n == "model.cycle")
        self.csv_rows = self.csv_bytes = 0
        digest = hashlib.sha256()
        for f in files:
            digest.update(f.name.encode() + b"\0")
            with open(f, "rb") as fh:
                while block := fh.read(1 << 16):
                    digest.update(block)
                    self.csv_rows += block.count(b"\n")
                    self.csv_bytes += len(block)
            self.csv_rows -= 1   # the header
        self.digest = digest.hexdigest()


def _iteration(plan, tracer, sink):
    import icnflow.cli as cli
    import workloads
    workloads.remove_outputs(plan)
    mark, rtt0 = len(tracer.spans), tracer.rtt_calls[0]
    run_experiment = tracer.timed("cli.run_experiment", cli.run_experiment)
    t0 = _clock()
    with contextlib.redirect_stdout(sink):
        for spec in plan.specs:
            run_experiment(spec)
    wall = _clock() - t0
    spans = tracer.spans[mark:]
    if not tracer.layers:
        del tracer.spans[mark:]
    problems = workloads.check(
        plan, [(s[1], s[5] or {}) for s in spans if s[1] in UNIT_SPANS])
    return Iteration(wall, spans, tracer.rtt_calls[0] - rtt0, problems,
                     workloads.output_files(plan), keep_spans=tracer.layers)


def _iterate(plan, tracer, seconds, sink):
    """Iterations while the last one's duration still fits in `seconds`."""
    iters = []
    start = _clock()
    with tracer:
        while True:
            iters.append(_iteration(plan, tracer, sink))
            if _clock() - start + iters[-1].wall > seconds:
                return iters


# ---------------------------------------------------------------------------
# metrics

def _setup_probes(name, seed, count):
    """Fresh-process set-up times (bench/setup_probe.py)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
           str(OUT / name)]
    return [float(subprocess.run(cmd, check=True, capture_output=True,
                                 text=True, timeout=120).stdout)
            for _ in range(count)]


def _throughputs(iters):
    """(Interests per second of run() time, rounds per second of cycle()
    time) over the iterations; None where the layer did no work."""
    sim_work = sum(it.sim_sent for it in iters)
    sim_time = sum(it.sim_s for it in iters)
    rounds = sum(it.rounds for it in iters)
    model_time = sum(it.model_s for it in iters)
    return (sim_work / sim_time if sim_time else None,
            rounds / model_time if model_time else None)


def _layer_numbers(it):
    """Per-layer numbers of one traced iteration."""
    from tracing import self_times
    own = self_times(it.spans)
    dur, self_s, calls = {}, {}, {}
    for s in it.spans:
        dur[s[1]] = dur.get(s[1], 0.0) + s[4] - s[3]
        self_s[s[1]] = self_s.get(s[1], 0.0) + own[s[0]]
        calls[s[1]] = calls.get(s[1], 0) + 1

    def layer(prefix, table, zero=0.0):
        return sum((v for k, v in table.items() if k.startswith(prefix + ".")),
                   zero)

    infos = [s[5] for s in it.units if s[5] and "error" not in s[5]]
    rounds = sum(i["rounds"] for i in infos if "rounds" in i)
    sent = sum(i["sent"] for i in infos if "sent" in i)
    delivered = sum(i["delivered"] for i in infos if "sent" in i)
    losses = sum(i["losses"] for i in infos if "sent" in i)
    share_calls = layer("sharing", calls, 0)
    run_s = dur.get("sim.run", 0.0)
    return {
        "sharing.share_calls": share_calls,
        "sharing.share_s": layer("sharing", dur),
        "sharing.self_s": layer("sharing", self_s),
        "core.rtt_calls": it.rtt_calls,
        "model.wmax_s": dur.get("model.wmax", 0.0),
        "model.cycle_self_s": self_s.get("model.cycle", 0.0),
        "model.self_s": layer("model", self_s),
        "model.share_calls_per_round": share_calls / rounds if rounds else 0.0,
        "sim.run_s": run_s,
        "sim.self_s": layer("sim", self_s),
        "sim.ns_per_interest": run_s / sent * 1e9 if sent else 0.0,
        "sim.interests": sent,
        "sim.losses": losses,
        "sim.delivery_ratio": delivered / sent if sent else 0.0,
        "sim.loss_ratio": losses / sent if sent else 0.0,
        "cli.self_s": self_s.get("cli.run_experiment", 0.0),
        "cli.csv_rows": it.csv_rows,
        "cli.csv_bytes": it.csv_bytes,
    }


def _select_face_ns(seed, tiny):
    """ns per select_face call for every strategy on 2 and 8 faces whose
    pending counts and smoothed RTTs are drawn from the seed."""
    from icnflow.core import PathSpec, Scenario, StrategyId, rtt, rate_msgs
    from icnflow.sim import FaceState, SimConfig, select_face
    import workloads
    draw = random.Random(seed)
    config = SimConfig(duration=1.0, seed=seed)
    calls = SELECT_CALLS // 10 if tiny else SELECT_CALLS
    out = {}
    for n, scen in ((2, Scenario((PathSpec(0.020, 10e6, 20),
                                  PathSpec(0.120, 10e6, 20)))),
                    (8, workloads.wide_scenario(seed))):
        for strategy in StrategyId:
            faces = []
            for i, p in enumerate(scen.paths):
                f = FaceState(pending=draw.randint(1, 2 * p.buffer_msgs))
                f.srtt = rtt(p, f.pending, rate_msgs(scen, i)) * draw.uniform(1, 1.2)
                faces.append(f)
            ties = random.Random(seed) if seed else None
            samples = []
            for _ in range(SELECT_SAMPLES):
                t0 = _clock()
                for _ in range(calls):
                    select_face(strategy, faces, scen, config, ties)
                samples.append((_clock() - t0) / calls * 1e9)
            out[f"sim.select_face_ns.{strategy.token}.n{n}"] = \
                statistics.median(samples)
    return out


# ---------------------------------------------------------------------------
# one run

def run_workload(name, seed, seconds, trace, tiny=False):
    """One run of one workload.  Returns (result, report): the result is the
    JSON object of the last output line, the report the lines before it."""
    import tracing
    import workloads
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    report = [f"workload {name}  seed {seed}  seconds {seconds}  "
              f"trace {trace}  (closed loop, 1 caller)"]
    with open(os.devnull, "w", encoding="utf-8") as sink:
        if not trace:
            # The first probe compiles the bytecode, which a user pays once.
            _setup_probes(name, seed, 1)
            plan = workloads.build(name, seed, out_dir, tiny)
            tracer = tracing.Tracer(layers=False)
            iters, traced, setup = [], [], []
            start = _clock()
            while True:
                iters += _iterate(plan, tracer, 0, sink)
                share = (min(1.0, (_clock() - start) / seconds)
                         if seconds else 1.0)
                due = int(SETUP_PROBES * share) - len(setup)
                setup += _setup_probes(name, seed, max(0, due))
                if _clock() - start + iters[-1].wall > seconds:
                    break
            setup += _setup_probes(name, seed, SETUP_PROBES - len(setup))
        else:
            setup_tracer = tracing.Tracer(layers=True)
            builds = []
            with setup_tracer:
                for _ in range(SPEC_BUILDS):
                    mark = len(setup_tracer.spans)
                    plan = workloads.build(name, seed, out_dir, tiny)
                    spans = setup_tracer.spans[mark:]
                    builds.append(sum((s[4] - s[3] for s in spans), 0.0))
            # Untraced and traced iterations alternate, so that drift in CPU
            # speed falls on both sides of trace.overhead_s alike.
            untraced = tracing.Tracer(layers=False)
            tracer = tracing.Tracer(layers=True)
            iters, traced = [], []
            start = _clock()
            while True:
                iters += _iterate(plan, untraced, 0, sink)
                traced += _iterate(plan, tracer, 0, sink)
                if _clock() - start + iters[-1].wall + traced[-1].wall > seconds:
                    break
            spans_file = out_dir / "spans.json"
            spans_file.write_text(json.dumps(
                tracing.to_json(tracer.spans, tracer.spans[0][3])))
            select_ns = _select_face_ns(seed, tiny)
    everything = iters + traced
    attempted = sum(len(it.parts) - 1 for it in everything)
    failed = sum(it.failed for it in everything)
    problems = [p for it in everything for p in it.problems]
    if len({it.digest for it in everything}) > 1:
        problems.append("iterations of one run wrote different CSVs")
    sim_rate, model_rate = _throughputs(iters)

    if not trace:
        durations = [d * 1e3 for it in iters for d in it.parts[:-1]]
        walls = [it.wall for it in iters]
        metrics = {
            "setup_s": _fastest(setup),
            "wall_s": _pass_time(iters),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units_of = {m[0]: m[1] for m in END_TO_END}
        report.append(f"iterations {len(iters)}, call samples {len(durations)}")
        extra = [("wall_p50_s", "s", statistics.median(walls)),
                 ("setup_p50_s", "s", statistics.median(setup)),
                 ("call_p50_ms", "ms", statistics.median(durations)),
                 ("call_p90_ms", "ms", _p90(durations)),
                 ("sim_interests_per_s", "1/s", sim_rate),
                 ("model_rounds_per_s", "1/s", model_rate)]
    else:
        per_it = [_layer_numbers(it) for it in traced]
        metrics = {k: _middle([d[k] for d in per_it]) for k in per_it[0]}
        metrics.update(select_ns)
        metrics["cli.load_experiment_s"] = statistics.median(builds)
        metrics["sim_interests_per_s"] = sim_rate or 0.0
        metrics["model_rounds_per_s"] = model_rate or 0.0
        metrics["trace.overhead_s"] = (
            statistics.median(it.wall for it in traced)
            - statistics.median(it.wall for it in iters))
        metrics = {m[0]: metrics[m[0]] for m in PER_LAYER}
        units_of = {m[0]: m[1] for m in PER_LAYER}
        report.append(f"iterations {len(iters)} untraced, {len(traced)} "
                      f"traced; spans written to {spans_file.relative_to(ROOT)}")
        extra = []
    extra += [("fail_ratio", "ratio", failed / attempted if attempted else 0.0),
              ("check_failures", "count", len(problems))]
    for key, value in metrics.items():
        report.append(f"{key} = {value!r} {units_of[key]}")
    for key, unit, value in extra:
        if value is not None:
            report.append(f"{key} = {value!r} {unit}")
    report.extend(f"check failed: {p}" for p in problems)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]}
                    for k, v in metrics.items()},
    }
    return result, report


# ---------------------------------------------------------------------------
# every workload, and the bench record

_METRIC_LINE = re.compile(r"^([\w.]+) = (\S+) (\S+)$")


def _src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def _commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _record_number(path):
    digits = path.stem.rpartition("_")[2]
    return int(digits) if digits.isdigit() else -1


def _diff(old, new):
    """Relative change of every metric both records hold."""
    out = {}
    for name, wl in new["workloads"].items():
        before = old.get("workloads", {}).get(name, {}).get("metrics", {})
        for key, m in wl["metrics"].items():
            if key in before and before[key]["value"]:
                out[f"{name}.{key}"] = (m["value"] - before[key]["value"]) \
                    / abs(before[key]["value"])
    return out


def run_all(args):
    from workloads import WORKLOADS
    record = {"commit": _commit(), "src_lines": _src_lines(),
              "seed": args.seed, "seconds": args.seconds,
              "repeats": args.repeats, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        runs = [0] * args.repeats + [1]
        values = {}
        for trace in runs:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode or not lines:
                print(proc.stderr, file=sys.stderr)
                ok = False
                merged["correct"] = False
                continue
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for line in lines[:-1]:   # every metric, gated or not
                if m := _METRIC_LINE.match(line):
                    values.setdefault(m[1], (m[3], []))[1].append(float(m[2]))
        merged["metrics"] = {k: {"value": statistics.median(v), "unit": u}
                             for k, (u, v) in values.items()}
        record["workloads"][name] = merged
        ok &= merged["correct"]

    print(f"\nsrc/ lines {record['src_lines']}, commit {record['commit']}")
    for name, wl in record["workloads"].items():
        for key, m in wl["metrics"].items():
            print(f"{name:>16} {key:<32} {m['value']:>16.6g} {m['unit']}")
    if args.record:
        path = Path(args.record)
        earlier = [p for p in path.parent.glob("BENCH_*.json")
                   if _record_number(p) < _record_number(path)]
        if earlier:
            prev = max(earlier, key=_record_number)
            record["diff_against"] = prev.name
            record["diff"] = _diff(json.loads(prev.read_text()), record)
            for key, change in record["diff"].items():
                print(f"diff {key:<48} {change:+.1%}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload without --workload")
    parser.add_argument("--record", help="bench record to write, "
                        "without --workload")
    args = parser.parse_args(argv)
    try:
        _require_layout()
    except LayoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(expected one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    result, report = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
