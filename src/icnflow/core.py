"""Core value types and per-path arithmetic.

Unit conventions used across the package: delays in seconds, link rates in
bits/s, sizes in bytes, and traffic counted in whole Data messages.  The
human-facing ms / Mbit/s units exist only at the CLI boundary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace


class StrategyId(enum.Enum):
    """Forwarding strategy selector, parseable from its lowercase token."""

    PE = "pe"    # equalize pending Interests across faces
    RE = "re"    # lowest-RTT face wins each Interest
    UG = "ug"    # round robin weighted by inverse RTT
    CF = "cf"    # round robin weighted by inverse pending count
    FPF = "fpf"  # fill the fastest pipeline first, capacity-capped

    @property
    def token(self) -> str:
        return self.value


@dataclass(frozen=True)
class PathSpec:
    delay: float      # one-way propagation delay, seconds
    rate_bps: float   # bottleneck transmission rate, bits/s
    buffer_msgs: int  # drop-tail buffer, in whole Data messages


@dataclass(frozen=True)
class Scenario:
    paths: tuple[PathSpec, ...]
    data_msg_bytes: int = 4876  # full Data message, headers included
    payload_bytes: int = 4096   # application payload carried per message


def rate_msgs(scenario: Scenario, path_index: int) -> float:
    """Bottleneck rate of one path, in Data messages per second."""
    path = scenario.paths[path_index]
    return path.rate_bps / (8.0 * scenario.data_msg_bytes)


def rtt(path: PathSpec, pending: float, msg_rate: float) -> float:
    """Round-trip time seen on a path carrying `pending` Interests.

    Below the bandwidth-delay product the path is propagation-limited; past
    it the bottleneck backlog dominates and the RTT grows linearly with the
    number of outstanding messages.
    """
    return max(2.0 * path.delay, pending / msg_rate)


# Absorbs float dust from unit conversions so a mathematically integral
# bandwidth-delay product is not floored one message short.
_CAP_EPS = 1e-9


def pipeline_capacity(path: PathSpec, msg_rate: float) -> int:
    """Most messages a path sustains without loss: pipe (2*D*R) plus buffer."""
    return math.floor(2.0 * path.delay * msg_rate + path.buffer_msgs + _CAP_EPS)


def is_whole(x) -> bool:
    """True for a finite number with no fractional part (3 or 3.0, not 2.5)."""
    return math.isfinite(x) and x == math.floor(x)


def validate(scenario: Scenario) -> list[str]:
    """Returns the list of problems; an empty list means usable."""
    errors = []
    if not scenario.paths:
        errors.append("empty path list")
    msg_ok = is_whole(scenario.data_msg_bytes) and scenario.data_msg_bytes > 0
    for i, p in enumerate(scenario.paths):
        found = len(errors)
        if not 0 < p.delay < math.inf:
            errors.append(f"path {i}: delay must be finite and > 0, got {p.delay}")
        if not 0 < p.rate_bps < math.inf:
            errors.append(
                f"path {i}: rate_bps must be finite and > 0, got {p.rate_bps}")
        if not (is_whole(p.buffer_msgs) and p.buffer_msgs >= 0):
            errors.append(
                f"path {i}: buffer_msgs must be a whole number >= 0, "
                f"got {p.buffer_msgs}")
        if len(errors) == found and msg_ok and not math.isfinite(
                2.0 * p.delay * rate_msgs(scenario, i) + p.buffer_msgs):
            errors.append(f"path {i}: pipeline capacity 2*delay*rate + "
                          "buffer overflows a float")
    if not msg_ok:
        errors.append(f"data_msg_bytes must be a whole number > 0, "
                      f"got {scenario.data_msg_bytes}")
    if not (is_whole(scenario.payload_bytes) and scenario.payload_bytes > 0):
        errors.append(f"payload_bytes must be a whole number > 0, "
                      f"got {scenario.payload_bytes}")
    elif msg_ok and scenario.payload_bytes > scenario.data_msg_bytes:
        errors.append(
            f"payload ({scenario.payload_bytes} B) exceeds message size "
            f"({scenario.data_msg_bytes} B)")
    return errors


def scenario_with(scenario: Scenario, path_index: int, param: str, value: float) -> Scenario:
    """Copy of `scenario` with one path's `delay` (s) or `rate` (bits/s) replaced."""
    if param == "delay":
        new_path = replace(scenario.paths[path_index], delay=value)
    elif param == "rate":
        new_path = replace(scenario.paths[path_index], rate_bps=value)
    else:
        raise ValueError(f"unknown path parameter {param!r} (expected 'delay' or 'rate')")
    paths = list(scenario.paths)
    paths[path_index] = new_path
    return replace(scenario, paths=tuple(paths))
