"""Core value types and per-path arithmetic.

Unit conventions used across the package: delays in seconds, link rates in
bits/s, sizes in bytes, and traffic counted in whole Data messages.  The
human-facing ms / Mbit/s units exist only at the CLI boundary.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass


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


# The slack in the pipeline capacity floor: it absorbs float dust from unit
# conversions so a mathematically integral bandwidth-delay product is not
# floored one message short.
_CAP_EPS = 1e-9


def is_whole(x) -> bool:
    """True for a whole number in the float range: 3 or 3.0, not 2.5 or inf."""
    return abs(x) <= sys.float_info.max and x == math.floor(x)


def shown(x) -> str:
    """`x` as a problem message prints it.  An int past the float range is
    named instead: str() refuses one of more than 4300 digits."""
    if isinstance(x, int) and not abs(x) <= sys.float_info.max:
        return "a whole number past the float range"
    return f"{x}"


def validate(scenario: Scenario) -> list[str]:
    """Returns the list of problems; an empty list means usable."""
    return _checked(scenario)[0]


def path_lanes(scenario: Scenario) -> list[tuple[float, float, int]]:
    """Each path's `(2·delay, message rate, pipeline capacity)`.  Raises
    ValueError with validate()'s problems for a scenario it rejects."""
    problems, lanes = _checked(scenario)
    if problems:
        raise ValueError("; ".join(problems))
    return lanes


def _checked(scenario: Scenario):
    """`(problems, lanes)` from one pass over the paths: each path's rate
    and capacity are checked where its lane is built.  `validate`,
    `path_lanes` and the simulator's `run` read it, each once."""
    errors, lanes = [], []
    if not scenario.paths:
        errors.append("empty path list")
    msg_ok = is_whole(scenario.data_msg_bytes) and scenario.data_msg_bytes > 0
    for i, p in enumerate(scenario.paths):
        found = len(errors)
        if not 0 < p.delay <= sys.float_info.max:
            errors.append(f"path {i}: delay must be finite and > 0, "
                          f"got {shown(p.delay)}")
        if not 0 < p.rate_bps <= sys.float_info.max:
            errors.append(f"path {i}: rate_bps must be finite and > 0, "
                          f"got {shown(p.rate_bps)}")
        if not (is_whole(p.buffer_msgs) and p.buffer_msgs >= 0):
            errors.append(
                f"path {i}: buffer_msgs must be a finite whole number >= 0, "
                f"got {shown(p.buffer_msgs)}")
        if len(errors) > found or not msg_ok:
            continue
        two_d, msg_rate = 2.0 * p.delay, rate_msgs(scenario, i)
        capacity = two_d * msg_rate + p.buffer_msgs
        if not math.isfinite(capacity):
            errors.append(f"path {i}: pipeline capacity 2*delay*rate + "
                          "buffer overflows a float")
        elif msg_rate == 0 or not math.isfinite(capacity / msg_rate):
            errors.append(f"path {i}: message rate too low: a full "
                          "pipeline's backlog time overflows a float")
        else:  # pipe plus buffer: the most a path holds without loss
            lanes.append((two_d, msg_rate, math.floor(capacity + _CAP_EPS)))
    if not msg_ok:
        errors.append(f"data_msg_bytes must be a finite whole number > 0, "
                      f"got {shown(scenario.data_msg_bytes)}")
    if not (is_whole(scenario.payload_bytes) and scenario.payload_bytes > 0):
        errors.append(f"payload_bytes must be a finite whole number > 0, "
                      f"got {shown(scenario.payload_bytes)}")
    elif msg_ok and scenario.payload_bytes > scenario.data_msg_bytes:
        errors.append(
            f"payload ({scenario.payload_bytes} B) exceeds message size "
            f"({scenario.data_msg_bytes} B)")
    return errors, lanes
