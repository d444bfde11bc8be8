"""The benchmark's tracer patches names inside the package; a change under
src/ that removes one of them should fail here, not only in a bench run."""

import importlib
from pathlib import Path

import icnflow.cli as cli
import icnflow.model as model
import icnflow.sharing as sharing

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
