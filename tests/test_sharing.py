"""Unit tests for the per-strategy pending-allocation functions."""

import ast
import math
import random
from pathlib import Path

import pytest

import _oracle
from icnflow import PathSpec, Scenario, StrategyId
from icnflow.core import path_lanes, pipeline_capacity, rate_msgs
from icnflow.sharing import (FaceState, key_at, keys_below, picker,
                             placements, sharing_function)

TWO_PATH = Scenario((PathSpec(0.020, 10e6, 20), PathSpec(0.120, 10e6, 20)))
TWIN = Scenario((PathSpec(0.020, 10e6, 20), PathSpec(0.020, 10e6, 20)))
# Identical and duplicated paths tie exactly on every strategy's key and on
# pending, so only the index decides; the fifth scenario has a path with no
# buffer, whose pipeline is its propagation floor alone.  In the last, at 100
# and 200 messages/s, path 0's saturated key at 20 pending ties path 1's
# 2*delay of 0.2 s while path 1 still fills.
A, B = PathSpec(0.020, 10e6, 20), PathSpec(0.005, 2e6, 3)
TIES = (TWIN, Scenario((A,) * 4), Scenario((A, B, A, B, A)),
        Scenario((B, A, B), 1250, 470),
        Scenario((B, PathSpec(0.010, 10e6, 0), A, B)),
        Scenario((PathSpec(0.010, 100 * 39008, 30),
                  PathSpec(0.100, 200 * 39008, 0))))
PLACED = (StrategyId.RE, StrategyId.CF, StrategyId.FPF)

share_pe, share_re, share_ug, share_cf, share_fpf = (
    sharing_function(StrategyId(t)) for t in ("pe", "re", "ug", "cf", "fpf"))


class TestEvenSplit:
    def test_two_paths(self):
        assert share_pe(TWIN, 4) == (2.0, 2.0)

    def test_fractional_split(self):
        assert share_pe(TWIN, 61) == (30.5, 30.5)

    def test_three_paths(self):
        s = Scenario((PathSpec(0.02, 10e6, 20),) * 3)
        assert share_pe(s, 10) == pytest.approx((10 / 3,) * 3)

    def test_four_path_split(self):
        s = Scenario((PathSpec(0.02, 10e6, 20),) * 4)
        assert share_ug(s, 8) == (2.0, 2.0, 2.0, 2.0)

    def test_zero_total(self):
        assert share_ug(TWIN, 0) == (0.0, 0.0)


class TestDelayEqualizing:
    def test_identical_paths_alternate(self):
        assert share_re(TWIN, 6) == (3.0, 3.0)

    def test_low_delay_path_fills_first(self):
        assert share_re(TWO_PATH, 5) == (5.0, 0.0)

    def test_split_after_slow_path_turnover_matches(self):
        # The fast path holds the allocation until draining it takes longer
        # than the slow path's propagation floor (62/256.36 ≈ 0.2418 > 0.24 s).
        assert share_re(TWO_PATH, 70) == (62.0, 8.0)


class TestPendingWeighted:
    def test_identical_paths_split_evenly(self):
        assert share_cf(TWIN, 10) == (5.0, 5.0)

    def test_single_path_takes_everything(self):
        s = Scenario((PathSpec(0.02, 10e6, 20),))
        assert share_cf(s, 17) == (17.0,)

    def test_placements_break_exact_ties_as_the_reference_scan(self):
        # re, cf and fpf count; each one's allocation at every h must be the
        # reference scan's, and so must cf's heap walk, each of its steps'
        # pending count and rtt the reference's for the placed path, bit for
        # bit.  sum(caps) + n steps take every placement past every cap, and
        # fpf into its spill.
        for scen in TIES:
            paths = [(p.delay, p.rate_bps, p.buffer_msgs) for p in scen.paths]
            rates = [_oracle.ref_msg_rate(r, scen.data_msg_bytes)
                     for _, r, _ in paths]
            caps = [_oracle.ref_capacity(d, rate, b)
                    for (d, _, b), rate in zip(paths, rates)]
            for s in PLACED:
                share = sharing_function(s)
                per = [0.0] * len(paths)
                steps = (placements(path_lanes(scen)) if s is StrategyId.CF
                         else None)
                for h in range(1, sum(caps) + len(caps) + 1):
                    want = _oracle.ref_share(paths, scen.data_msg_bytes,
                                             s.token, h)
                    assert list(share(scen, h)) == want, (scen, s, h)
                    if steps is None:
                        continue
                    i, p, rtt = next(steps)
                    per[i] += 1.0
                    assert p == per[i], (scen, h)
                    assert rtt == _oracle.ref_rtt(paths[i][0], rates[i], p), \
                        (scen, h)
                    assert per == want, (scen, h)

    def test_sqrt_rtt_ratio_in_delay_dominated_regime(self):
        # While both pending counts sit below their propagation floors
        # (p1 <= 10 and p2 <= 61 here) the allocation settles at
        # P2/P1 = sqrt(RTT2/RTT1); larger windows push path 1 into the
        # bandwidth-limited regime and the ratio drifts off.
        p1, p2 = share_cf(TWO_PATH, 31)
        want = math.sqrt(0.240 / 0.040)
        assert p2 / p1 == pytest.approx(want, rel=0.05)


class TestCapacityFilling:
    def test_fast_pipe_fills_to_capacity_then_spills(self):
        assert share_fpf(TWO_PATH, 40) == (30.0, 10.0)

    def test_below_capacity_everything_on_fast_pipe(self):
        assert share_fpf(TWO_PATH, 20) == (20.0, 0.0)

    def test_total_capacity_fills_both(self):
        assert share_fpf(TWO_PATH, 111) == (30.0, 81.0)

    def test_overflow_beyond_total_capacity_is_allowed(self):
        total = share_fpf(TWO_PATH, 120)
        assert sum(total) == 120
        caps = [pipeline_capacity(p, rate_msgs(TWO_PATH, i))
                for i, p in enumerate(TWO_PATH.paths)]
        assert any(x > c for x, c in zip(total, caps))


class TestSimulatorOrder:
    def test_re_and_fpf_walks_are_the_simulators_first_dispatches(self):
        # Before any Data comes back the simulator's picker only adds
        # Interests, so its first W picks hold, path by path, what the
        # model counts for a window of W.  Equal counts at every W = 1, 2,
        # ... fix the whole sequence of picks.  sum(caps) + n picks take fpf
        # past every cap and into its spill.
        for scen in TIES:
            caps = [pipeline_capacity(p, rate_msgs(scen, i))
                    for i, p in enumerate(scen.paths)]
            for s in (StrategyId.RE, StrategyId.FPF):
                share = sharing_function(s)
                faces = [FaceState() for _ in scen.paths]
                pick = picker(s, faces, scen, False, None)
                for w in range(1, sum(caps) + len(caps) + 1):
                    faces[pick()].pending += 1
                    assert share(scen, w) == tuple(
                        float(f.pending) for f in faces), (scen, s, w)
                if s is StrategyId.FPF:
                    assert all(f.pending >= c for f, c in zip(faces, caps))

    def test_fpf_spill_breaks_exact_ties_as_the_reference(self):
        # With every face at its oracle cap, fpf spills on the uncapped rtt
        # key, and on these scenarios equal faces tie on it exactly, so the
        # seeded rng picks among them.
        for scen in TIES:
            caps = [pipeline_capacity(p, rate_msgs(scen, i))
                    for i, p in enumerate(scen.paths)]
            paths = [(p.delay, p.rate_bps, p.buffer_msgs) for p in scen.paths]
            for seed in range(1, 51):
                faces = [FaceState(pending=c) for c in caps]
                ref_faces = [FaceState(pending=c) for c in caps]
                rng, ref_rng = random.Random(seed), random.Random(seed)
                pick = picker(StrategyId.FPF, faces, scen, False, rng)
                for _ in range(3 * len(caps)):
                    i = pick()
                    assert i == _oracle.ref_select_face(
                        "fpf", ref_faces, paths, scen.data_msg_bytes, caps,
                        ref_rng), (scen, seed)
                    assert rng.getstate() == ref_rng.getstate(), (scen, seed)
                    faces[i].pending += 1
                    ref_faces[i].pending += 1


class TestKeyCounts:
    def test_keys_below_counts_each_paths_keys(self):
        # A path's count below a trial key against a brute-force count of
        # its keys (value, pending, index), the value as the reference
        # computes it: re's rtt, cf's pending/sqrt(rtt).  The trial keys
        # take every path's value at cap, which identical paths tie exactly,
        # with pending around that cap and every index.
        for scen in TIES:
            paths = [(p.delay, p.rate_bps, p.buffer_msgs) for p in scen.paths]
            rates = [_oracle.ref_msg_rate(r, scen.data_msg_bytes)
                     for _, r, _ in paths]
            lanes = path_lanes(scen)
            for s in (StrategyId.RE, StrategyId.CF):
                def value(i, p):
                    rtt = _oracle.ref_rtt(paths[i][0], rates[i], p)
                    return p / math.sqrt(rtt) if s is StrategyId.CF else rtt
                at_cap = [value(i, cap) for i, (_, _, cap) in enumerate(lanes)]
                keys = []  # each path's keys up to the first above every cap's
                for i, lane in enumerate(lanes):
                    cap = lane[2]
                    assert key_at(lane, cap, i, s) == (at_cap[i], cap, i)
                    keys.append([(value(i, 0), 0, i)])
                    while keys[i][-1][0] <= max(at_cap):
                        p = len(keys[i])
                        keys[i].append((value(i, p), p, i))
                for v, (_, _, cap) in zip(at_cap, lanes):
                    for trial in ((v, cap + dp, j) for dp in (-1, 0, 1)
                                  for j in range(len(lanes) + 1)):
                        for i, lane in enumerate(lanes):
                            want = sum(k < trial for k in keys[i])
                            assert keys_below(lane, i, trial, s) == want, \
                                (scen, s, trial, i)


SRC = Path(__file__).resolve().parents[1] / "src" / "icnflow"
# Each source file, and the test oracle, which must import no package module
# so that a bug in the package cannot leak into the reference results.
FILES = {p.stem: p for p in SRC.glob("*.py")}
FILES["_oracle"] = Path(__file__).with_name("_oracle.py")
# The package modules each module may import: core <- sharing <- {model,
# sim} <- cli, and only the package root and `python -m` reach cli.
LAYERS = {"core": set(), "sharing": {"core"}, "model": {"core", "sharing"},
          "sim": {"core", "sharing"}, "cli": {"core", "sharing", "model", "sim"},
          "__init__": {"core", "sharing", "model", "sim", "cli"},
          "__main__": {"cli"}, "_oracle": set()}


@pytest.mark.parametrize("module", sorted(FILES))
def test_module_imports_only_the_layers_above_it(module):
    tree = ast.parse(FILES[module].read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = ([node.module] if node.module
                     else [a.name for a in node.names])
            assert node.level == 1 and set(names) <= LAYERS[module], \
                ast.unparse(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [a.name for a in node.names])
            assert not any(n.split(".")[0] == "icnflow" for n in names), \
                ast.unparse(node)
