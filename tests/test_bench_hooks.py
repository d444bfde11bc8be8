"""The benchmark patches, imports and builds names inside the package; a
change under src/ that removes one of them should fail here, not only in a
bench run."""

import importlib
from pathlib import Path

import icnflow.cli as cli
import icnflow.model as model
import icnflow.sharing as sharing
from icnflow.core import PathSpec, Scenario, StrategyId
from icnflow.sim import validate_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_layer_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    hooks = [(cli, "cycle"), (cli, "run"), (cli, "load_experiment"),
             (model, "wmax"), (model, "sharing_function"), (sharing, "rtt")]
    before = [getattr(m, name) for m, name in hooks]
    with tracing.Tracer(layers=True):
        assert all(getattr(m, name) is not fn
                   for (m, name), fn in zip(hooks, before))
    assert [getattr(m, name) for m, name in hooks] == before


def test_cycle_description_counts_the_cycle_windows(monkeypatch):
    # Every bench run, traced or not, describes each cycle() result by the
    # number of its rounds, one per window from max(1, w_max // 2) to w_max.
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    for scen in (Scenario((PathSpec(0.020, 10e6, 20),
                           PathSpec(0.120, 10e6, 20))),
                 Scenario((PathSpec(0.001, 10e6, 1),))):  # w_max 1
        for s in StrategyId:
            cs = model.cycle(scen, s)
            info = tracing._describe_cycle((scen, s), cs)
            assert info["rounds"] == cs.w_max - max(1, cs.w_max // 2) + 1, s
            assert info["w_max"] == cs.w_max, s


def test_every_workload_builds_from_the_package(monkeypatch, tmp_path):
    # The names bench/run.py imports, and each workload's specs as the
    # self-test builds them (a SimConfig field they set must still exist).
    from icnflow.core import PathSpec, Scenario, StrategyId, rate_msgs, rtt  # noqa: F401
    from icnflow.sim import FaceState, SimConfig, select_face  # noqa: F401
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        plan = workloads.build(name, 0, tmp_path, tiny=True)
        assert plan.specs, name
        assert all(validate_config(spec.sim) == [] for spec in plan.specs), name
