"""Self-test of the benchmark: a tiny version of each workload through the
same code path as bench/run.py, with the correctness gate required to pass,
plus checks that the gate does catch broken outputs.

    python3 bench/selftest.py
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import unittest

import run

run._require_layout()

import tracing     # noqa: E402  (needs the src/ path set up above)
import workloads   # noqa: E402


def _rewrite(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(edit(rows))


def _units(plan):
    """(span name, info) of every unit, from one traced iteration (only a
    traced one keeps its spans)."""
    tracer = tracing.Tracer(layers=True)
    with open(run.os.devnull, "w", encoding="utf-8") as sink:
        it = run._iterate(plan, tracer, 0, sink)[0]
    return [(s[1], s[5]) for s in it.units]


class TinyWorkloads(unittest.TestCase):

    def test_every_workload_passes_its_gate_and_reports_every_metric(self):
        want = {0: [m[0] for m in run.END_TO_END],
                1: [m[0] for m in run.PER_LAYER]}
        for name in workloads.WORKLOADS:
            for seed in (0, 7):
                for trace in (0, 1):
                    with self.subTest(workload=name, seed=seed, trace=trace):
                        result, report = run.run_workload(
                            name, seed, 0, trace, tiny=True)
                        self.assertTrue(result["correct"], "\n".join(report))
                        self.assertGreaterEqual(result["attempted"], 1)
                        self.assertEqual(result["failed"], 0)
                        self.assertEqual(list(result["metrics"]), want[trace])
                        if not trace:
                            for key, m in result["metrics"].items():
                                self.assertGreater(m["value"], 0, key)

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            a = workloads.build(name, 5, run.OUT / name)
            b = workloads.build(name, 5, run.OUT / name)
            self.assertEqual(a.specs, b.specs)
            self.assertNotEqual(a.specs, workloads.build(
                name, 6, run.OUT / name).specs)


class GateCatchesBrokenOutputs(unittest.TestCase):

    def test_paper_sweeps_missing_row_and_seed0_hash(self):
        plan = workloads.build("paper_sweeps", 0, run.OUT / "selftest", tiny=True)
        units = _units(plan)
        self.assertEqual(workloads.check(plan, units), [])
        # The tiny sweep is not the shipped one, so the seed-0 hash must differ.
        full = workloads.Plan(plan.name, 0, False, plan.specs)
        problems = workloads.check(full, units)
        self.assertEqual(sum("sha256" in p for p in problems), 2)
        _rewrite(f"{plan.specs[0].output}-rates.csv", lambda rows: rows[:-1])
        self.assertTrue(any("rows, expected" in p
                            for p in workloads.check(plan, units)))

    def test_paper_sweeps_conservation(self):
        plan = workloads.build("paper_sweeps", 3, run.OUT / "selftest", tiny=True)
        units = _units(plan)
        name, info = next(u for u in units if u[0] == "sim.run")
        broken = units + [(name, {**info, "losses": info["losses"] + 1})]
        self.assertTrue(any("sent" in p for p in workloads.check(plan, broken)))

    def test_wide_model_wrong_wmax_in_csv(self):
        plan = workloads.build("wide_model", 3, run.OUT / "selftest", tiny=True)
        units = _units(plan)
        self.assertEqual(workloads.check(plan, units), [])
        _rewrite(f"{plan.specs[0].output}-rates.csv", lambda rows: [
            r[:6] + [str(int(r[6]) + 1)] if i else r for i, r in enumerate(rows)])
        self.assertEqual(len(workloads.check(plan, units)), 5)

    def test_wide_timeout_decreasing_trace_and_short_run(self):
        plan = workloads.build("wide_timeout_sim", 3, run.OUT / "selftest",
                               tiny=True)
        units = _units(plan)
        self.assertEqual(workloads.check(plan, units), [])
        _rewrite(f"{plan.specs[0].output}-window-pe.csv",
                 lambda rows: rows[:1] + rows[1:][::-1])
        short = [(n, {**i, "delivered": 1}) for n, i in units]
        problems = workloads.check(plan, short)
        self.assertTrue(any("trace times decrease" in p for p in problems))
        self.assertEqual(sum("chunk target" in p for p in problems), 5)


class Reference(unittest.TestCase):

    def test_reference_cycle_matches_the_test_oracle(self):
        tests_dir = run.ROOT / "tests"
        if not (tests_dir / "_oracle.py").is_file():
            self.skipTest("tests/_oracle.py is not in this checkout")
        sys.path.insert(0, str(tests_dir))
        import _oracle
        scen = workloads.Scenario((
            workloads.PathSpec(0.020, 10e6, 20),
            workloads.PathSpec(0.120, 10e6, 20),
            workloads.PathSpec(0.050, 4e6, 7)))
        paths = [(p.delay, p.rate_bps, p.buffer_msgs) for p in scen.paths]
        for token in run.STRATEGIES:
            w_max, _, _, y = _oracle.ref_cycle(paths, 4876, token)
            self.assertEqual(workloads.reference_cycle(scen, token), (w_max, y))


class Tracing(unittest.TestCase):

    def test_self_time_subtracts_child_spans(self):
        spans = [[0, "cli.run_experiment", None, 0.0, 10.0, None],
                 [1, "model.cycle", 0, 1.0, 5.0, None],
                 [2, "model.wmax", 1, 1.5, 2.5, None],
                 [3, "sharing.share_cf", 2, 2.0, 2.25, None],
                 [4, "sim.run", 0, 6.0, 9.0, None]]
        self.assertEqual(tracing.self_times(spans),
                         {0: 3.0, 1: 3.0, 2: 0.75, 3: 0.25, 4: 3.0})

    def test_uninstall_restores_the_program(self):
        import icnflow.cli as cli
        import icnflow.model as model
        import icnflow.sharing as sharing
        before = (cli.cycle, cli.run, cli.load_experiment, model.wmax,
                  model.sharing_function, sharing.rtt)
        with tracing.Tracer(layers=True):
            self.assertIsNot(cli.cycle, before[0])
        self.assertEqual(before, (cli.cycle, cli.run, cli.load_experiment,
                                  model.wmax, model.sharing_function,
                                  sharing.rtt))


class Contract(unittest.TestCase):

    def test_benchmark_json_lists_the_metrics_run_py_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["command"], ["python3", "bench/run.py"])
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         workloads.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]], run.PER_LAYER)

    def test_fails_without_result_outside_a_checkout(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "paper_sweeps",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
