"""Workload inputs, ExperimentSpecs and output checks.

Every workload is a list of ExperimentSpecs that the benchmark hands to
icnflow.cli.run_experiment, so each run ends in the CSVs a user would get.
The inputs depend on the seed alone.  Importing this module and calling
build() is the set-up that bench/setup_probe.py times in a fresh process.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

import icnflow.cli as cli
from icnflow.cli import ExperimentSpec
from icnflow.core import PathSpec, Scenario, StrategyId
from icnflow.sim import FPF_CAP_ESTIMATED, LOSS_TIMEOUT, SimConfig

ROOT = Path(__file__).resolve().parent.parent

# Why each workload is in the benchmark; BENCHMARK.json repeats these.
WORKLOADS = {
    "paper_sweeps": "the two shipped 2-path sweeps, model and sim, all five "
                    "strategies, at 2 s of simulated time per point: what "
                    "users run, cut short",
    "wide_model": "8 paths at 6.25 Mbit/s, model only: time goes to the greedy "
                  "allocation under cycle()/wmax(); sim does nothing",
    "wide_timeout_sim": "the same 8 paths, sim only, to a chunk target with "
                        "timeout loss, estimated fpf caps and window-trace "
                        "CSVs; model does nothing",
}

PAPER_EXPERIMENTS = ("delay_sweep", "rate_sweep")
# Simulated seconds per sweep point.  The shipped files say 60, which makes
# one pass over both sweeps take about 25 s: one sample per run, at the mercy
# of whatever else the host runs then.  At 2 s a pass takes about 0.7 s,
# still mostly in sim.run, and a run times each unit over dozens of passes.
PAPER_SIM_SECONDS = 2.0

# sha256 of the -rates.csv files of the shipped sweeps at seed 0 and
# PAPER_SIM_SECONDS, recorded when the benchmark was created.  The seed-0
# CSVs must stay byte-identical.
PAPER_SEED0_SHA256 = {
    "delay_sweep":
        "1353e42f378b465bcd87493e6067126ac84da7bb41fb07b86b5bb8e5639e6982",
    "rate_sweep":
        "0185a16d32d713345d62163de11523e2ed1efa5101be34682e942efbc78ce5ca",
}

# cycle() on the seed-0 wide scenario, recorded when the benchmark was
# created: strategy -> (w_max, y_msgs_per_s).
WIDE_SEED0_CYCLE = {
    "pe": (120, 978.4068587278767),
    "re": (60, 563.4347820777265),
    "ug": (120, 978.4068587278767),
    "cf": (132, 1064.7304290842337),
    "fpf": (208, 1142.6283374953562),
}

WIDE_PATHS = 8
# With 100 Mbit/s and 50-message buffers one fpf cycle() alone takes about
# 4.5 s.  At 6.25 Mbit/s and 12 messages the pipelines hold a tenth of the
# messages (fpf w_max 208 against 2242) and a whole model pass takes about
# 0.09 s, its longest unit (fpf) 0.05 s; a sim pass to 5000 chunks takes
# about 0.16 s.  The benchmark times each unit by the fastest of many
# passes, and a short unit finds a quiet moment of a shared host far more
# often than a long one.
WIDE_RATE_BPS = 6.25e6
WIDE_BUFFER_MSGS = 12
WIDE_TIMEOUT_CHUNKS = 5_000

# Relative tolerance of cycle() against the reference evaluator.
CYCLE_RTOL = 1e-9

ALL = tuple(StrategyId)


@dataclass
class Plan:
    """One workload at one seed: the specs to run and what to check."""
    name: str
    seed: int
    tiny: bool
    specs: list


def wide_scenario(seed: int, tiny: bool = False) -> Scenario:
    """Eight paths at 6.25 Mbit/s with 12-message buffers and one-way delays
    of 10, 20, ..., 80 ms at seed 0.  Other seeds shuffle the paths and move
    each delay by up to 0.05 ms, which moves w_max by a few windows at most.
    Larger moves would not just perturb the input: a message more or less of
    pipeline can flip which path overflows first under re and make w_max,
    hence the work of a run, jump (by 30 % for moves of 2 ms at 25 Mbit/s
    with 50-message buffers)."""
    delays_ms = [10.0 * (k + 1) for k in range(WIDE_PATHS)]
    if seed:
        rng = random.Random(seed)
        delays_ms = [d + rng.uniform(-0.05, 0.05) for d in delays_ms]
        rng.shuffle(delays_ms)
    if tiny:
        return Scenario(tuple(PathSpec(d / 1e3, WIDE_RATE_BPS / 10, 5)
                              for d in delays_ms))
    return Scenario(tuple(PathSpec(d / 1e3, WIDE_RATE_BPS, WIDE_BUFFER_MSGS)
                          for d in delays_ms))


def build(name: str, seed: int, out_dir: Path, tiny: bool = False) -> Plan:
    """The specs of workload `name` at `seed`, writing under `out_dir`.
    `tiny` shrinks the work for the self-test; the code path is the same."""
    if name == "paper_sweeps":
        specs = []
        for exp in PAPER_EXPERIMENTS:
            spec = cli.load_experiment(str(ROOT / "experiments" / f"{exp}.exp"))
            sim = replace(spec.sim, seed=seed, duration=PAPER_SIM_SECONDS)
            sweep = spec.sweep
            if tiny:
                sim = replace(sim, duration=0.5)
                sweep = replace(sweep, stop=sweep.start + sweep.step)
            specs.append(replace(spec, sim=sim, sweep=sweep,
                                 output=str(out_dir / exp)))
    elif name == "wide_model":
        specs = [ExperimentSpec(wide_scenario(seed, tiny), ALL, "model", None,
                                SimConfig(duration=60.0, seed=seed),
                                str(out_dir / name))]
    elif name == "wide_timeout_sim":
        sim = SimConfig(total_chunks=500 if tiny else WIDE_TIMEOUT_CHUNKS,
                        seed=seed, loss_signal=LOSS_TIMEOUT,
                        fpf_capacity_mode=FPF_CAP_ESTIMATED, trace_window=True)
        specs = [ExperimentSpec(wide_scenario(seed, tiny), ALL, "sim", None,
                                sim, str(out_dir / name))]
    else:
        raise ValueError(f"unknown workload {name!r} "
                         f"(expected one of {', '.join(WORKLOADS)})")
    return Plan(name, seed, tiny, specs)


# ---------------------------------------------------------------------------
# outputs

def output_files(plan: Plan) -> list[Path]:
    """Every CSV the plan's specs wrote, in a stable order."""
    files = []
    for spec in plan.specs:
        prefix = Path(spec.output)
        files.extend(sorted(prefix.parent.glob(prefix.name + "-*.csv")))
    return files


def remove_outputs(plan: Plan):
    for path in output_files(plan):
        path.unlink()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path, problems):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        problems.append(f"{path.name}: cannot read: {exc}")
        return None


def _rates_rows(spec, problems):
    """Data rows of a spec's -rates.csv, checked against the unit count."""
    path = Path(f"{spec.output}-rates.csv")
    rows = _read_csv(path, problems)
    if rows is None:
        return []
    points = len(spec.sweep.values()) if spec.sweep else 1
    sources = 2 if spec.mode == "both" else 1
    want = points * len(spec.strategies) * sources
    if len(rows) - 1 != want:
        problems.append(f"{path.name}: {len(rows) - 1} rows, expected {want}")
    return rows[1:]


# ---------------------------------------------------------------------------
# reference evaluator for the wide model check

def _ref_rtt(delay_s, msg_rate, pending):
    return max(2 * delay_s, pending / msg_rate)


def reference_cycle(scenario: Scenario, token: str):
    """(w_max, y_msgs_per_s) by a straight-line evaluation, independent of
    the package and following tests/_oracle.py: the greedy strategies place
    one Interest at a time, so a single pass yields every prefix allocation,
    and w_max is the last window before the first one that overflows."""
    paths = [(p.delay, p.rate_bps, p.buffer_msgs) for p in scenario.paths]
    n = len(paths)
    rates = [r / (8 * scenario.data_msg_bytes) for (_, r, _) in paths]
    caps = [math.floor(2 * d * rates[i] + b) for i, (d, _, b) in enumerate(paths)]
    pending = [0] * n
    shares = [None]   # shares[h] is the allocation of a window of h
    while True:
        h = len(shares)
        if token in ("pe", "ug"):
            share = [h / n] * n
        else:
            choice, choice_key = None, None
            for i, (d, _, _) in enumerate(paths):
                if token == "fpf" and pending[i] >= caps[i]:
                    continue
                cur = _ref_rtt(d, rates[i], pending[i])
                metric = pending[i] / math.sqrt(cur) if token == "cf" else cur
                key = (metric, pending[i], i)
                if choice is None or key < choice_key:
                    choice, choice_key = i, key
            if choice is None:
                choice = min(range(n), key=lambda i: (
                    _ref_rtt(paths[i][0], rates[i], pending[i]), pending[i], i))
            pending[choice] += 1
            share = [float(p) for p in pending]
        if any(share[i] > caps[i] + 1e-9 for i in range(n)):
            break
        shares.append(share)
        if h > 1_000_000:
            raise ValueError("reference window scan ran away")
    w_hi = len(shares) - 1
    if w_hi < 1:
        raise ValueError("no feasible window")
    total_msgs, total_time = 0, 0.0
    for w in range(max(1, w_hi // 2), w_hi + 1):
        rate_sum = 0.0
        for i, (d, _, _) in enumerate(paths):
            rate_sum += shares[w][i] / _ref_rtt(d, rates[i], shares[w][i])
        total_msgs += w
        total_time += w / rate_sum
    return w_hi, total_msgs / total_time


def _close(a, b):
    return abs(a - b) <= CYCLE_RTOL * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the outputs are correct

def _check_paper(plan, units):
    problems = []
    for spec in plan.specs:
        _rates_rows(spec, problems)
        exp = Path(spec.output).name
        if plan.seed == 0 and not plan.tiny:
            got = sha256(Path(f"{spec.output}-rates.csv"))
            if got != PAPER_SEED0_SHA256[exp]:
                problems.append(f"{exp}-rates.csv: sha256 {got} differs from "
                                f"the recorded seed-0 hash")
    for name, info in units:
        if name == "sim.run" and "error" not in info:
            if info["sent"] != info["delivered"] + info["losses"] + info["inflight"]:
                problems.append(f"sim/{info['strategy']}: sent {info['sent']} != "
                                f"delivered + losses + inflight")
    return problems


def _check_wide_model(plan, units):
    problems = []
    spec = plan.specs[0]
    want = {s.token: reference_cycle(spec.scenario, s.token) for s in ALL}
    for row in _rates_rows(spec, problems):
        token, w_max, y = row[1], int(row[6]), float(row[3])
        if w_max != want[token][0] or not _close(y, want[token][1]):
            problems.append(f"model/{token}: CSV has w_max {w_max}, y {y}; "
                            f"reference {want[token]}")
    for name, info in units:
        if name != "model.cycle" or "error" in info:
            continue
        token = info["strategy"]
        if info["w_max"] != want[token][0] or not _close(
                info["y_msgs_per_s"], want[token][1]):
            problems.append(f"model/{token}: cycle() gives w_max "
                            f"{info['w_max']}, y {info['y_msgs_per_s']!r}; "
                            f"reference {want[token]}")
        if plan.seed == 0 and not plan.tiny:
            w_rec, y_rec = WIDE_SEED0_CYCLE[token]
            if info["w_max"] != w_rec or not _close(info["y_msgs_per_s"], y_rec):
                problems.append(f"model/{token}: cycle() differs from the "
                                f"recorded seed-0 value {(w_rec, y_rec)}")
    return problems


def _check_wide_timeout(plan, units):
    problems = []
    spec = plan.specs[0]
    _rates_rows(spec, problems)
    for name, info in units:
        if name != "sim.run" or "error" in info:
            continue
        token = info["strategy"]
        if info["delivered"] < spec.sim.total_chunks:
            problems.append(f"sim/{token}: stopped at {info['delivered']} "
                            f"deliveries, before the {spec.sim.total_chunks} "
                            f"chunk target")
        path = Path(f"{spec.output}-window-{token}.csv")
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                rows, last, ordered = -1, -math.inf, True
                for row in csv.reader(fh):
                    rows += 1
                    if rows:
                        t = float(row[0])
                        ordered &= t >= last
                        last = t
        except OSError as exc:
            problems.append(f"{path.name}: cannot read: {exc}")
            continue
        if rows != info["trace_rows"]:
            problems.append(f"{path.name}: {rows} rows, the run traced "
                            f"{info['trace_rows']}")
        if not ordered:
            problems.append(f"{path.name}: trace times decrease")
    return problems


_CHECKS = {"paper_sweeps": _check_paper, "wide_model": _check_wide_model,
           "wide_timeout_sim": _check_wide_timeout}


def check(plan: Plan, units) -> list[str]:
    """Problems with one iteration's outputs.  `units` is a list of
    (span name, info) for the model.cycle and sim.run calls it made."""
    return _CHECKS[plan.name](plan, units)
