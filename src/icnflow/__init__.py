"""Receive-rate model and event simulator for windowed Interest/Data
transfer over parallel forwarding paths.

The library has four layers:

* `core` — scenario description (paths, message sizes) and the handful of
  per-path quantities everything else is built from (service rate, round
  trip time, pipeline capacity).
* `sharing` — the forwarding strategies: each one's per-Interest face
  picker, and how it splits a window of pending Interests across paths.
* `model` — fluid cycle model of a halve-on-loss, grow-per-delivery window
  controller driving those strategies; yields steady-state receive rate.
* `sim` — per-message event simulator of the same system with drop-tail
  path buffers, used to validate the model.

Each layer imports only from the ones above it (`model` and `sim` both sit
on `sharing`); `cli` wires all of it to experiment files and CSV output.
The root exports what a library user needs to ask the question; everything
else is imported from its module.
"""

from .core import PathSpec, Scenario, StrategyId, validate
from .model import ModelError, cycle, wmax
from .sim import SimConfig, run

__version__ = "0.1.0"

__all__ = ["PathSpec", "Scenario", "StrategyId", "validate", "ModelError",
           "cycle", "wmax", "SimConfig", "run", "__version__"]
