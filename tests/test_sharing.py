"""Unit tests for the per-strategy pending-allocation functions."""

import ast
import math
import random
from itertools import islice
from pathlib import Path

import pytest

import _oracle
from icnflow import (PathSpec, Scenario, StrategyId, pipeline_capacity,
                     rate_msgs, sharing_function, wmax)
from icnflow.sharing import FaceState, picker, placements

TWO_PATH = Scenario((PathSpec(0.020, 10e6, 20), PathSpec(0.120, 10e6, 20)))
TWIN = Scenario((PathSpec(0.020, 10e6, 20), PathSpec(0.020, 10e6, 20)))
# Identical and duplicated paths tie exactly on every strategy's key and on
# pending, so only the index decides; the last scenario has a path with no
# buffer, whose pipeline is its propagation floor alone.
A, B = PathSpec(0.020, 10e6, 20), PathSpec(0.005, 2e6, 3)
TIES = (TWIN, Scenario((A,) * 4), Scenario((A, B, A, B, A)),
        Scenario((B, A, B), 1250, 470),
        Scenario((B, PathSpec(0.010, 10e6, 0), A, B)))
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

    def test_round_robin_form_matches_even_split(self):
        for h in (0, 1, 7, 61, 200):
            assert share_ug(TWO_PATH, h) == share_pe(TWO_PATH, h)

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
        # For re, cf and fpf, the heap's first h steps must be the reference
        # scan's allocation at h, up to the first overflow.
        for scen in TIES:
            paths = [(p.delay, p.rate_bps, p.buffer_msgs) for p in scen.paths]
            for s in PLACED:
                w_max = wmax(scen, s)
                per = [0.0] * len(paths)
                steps = placements(scen, s)
                for h in range(1, w_max + 2):
                    i, _ = next(steps)
                    per[i] += 1.0
                    assert per == _oracle.ref_share(
                        paths, scen.data_msg_bytes, s.token, h), (scen, s, h)

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
        # Interests, so its first picks are the model's placement walk.
        # sum(caps) + n picks take fpf past every cap and into its spill.
        for scen in TIES:
            caps = [pipeline_capacity(p, rate_msgs(scen, i))
                    for i, p in enumerate(scen.paths)]
            for s in (StrategyId.RE, StrategyId.FPF):
                faces = [FaceState() for _ in scen.paths]
                pick = picker(s, faces, scen, False, None)
                picked = []
                for _ in range(sum(caps) + len(caps)):
                    i = pick()
                    faces[i].pending += 1
                    picked.append(i)
                assert [i for i, _ in islice(placements(scen, s),
                                             len(picked))] == picked, (scen, s)
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


class TestLookup:
    def test_every_strategy_is_wired(self):
        for s in StrategyId:
            vec = sharing_function(s)(TWO_PATH, 12)
            assert len(vec) == len(TWO_PATH.paths)
            assert sum(vec) == pytest.approx(12)

    def test_even_splits_have_no_placement_process(self):
        for s in (StrategyId.PE, StrategyId.UG):
            with pytest.raises(ValueError, match="no placement process"):
                placements(TWIN, s)


def test_sharing_imports_only_from_core():
    # Both engines sit on the strategies, so sharing reaches no further down
    # the package than core: nothing from model, sim or cli.
    src = Path(__file__).resolve().parents[1] / "src" / "icnflow" / "sharing.py"
    tree = ast.parse(src.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "core"), ast.unparse(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [a.name for a in node.names])
            assert not any(n.split(".")[0] == "icnflow" for n in names), \
                ast.unparse(node)
