"""BackendHandle state/placement surface and PlacementPolicy units."""

import random

import pytest

from repro.router import (
    DOWN,
    DRAINING,
    HEALTHY,
    BackendHandle,
    PlacementPolicy,
)


def handle(address="10.0.0.1:7341", state=HEALTHY, models=("default",),
           precisions=("fp64",), queued_rows=0, batch_ms_ema=0.0,
           inflight_rows=0):
    h = BackendHandle(address)
    h.state = state
    h.models = tuple(models)
    h.precisions = tuple(precisions)
    h.queued_rows = queued_rows
    h.batch_ms_ema = batch_ms_ema
    h.inflight_rows = inflight_rows
    return h


class TestBackendHandle:
    def test_starts_down_and_advertises_nothing(self):
        h = BackendHandle("10.0.0.1:7341")
        assert h.state == DOWN
        assert not h.routable
        # Never probed: no route is advertised, not even the default.
        assert h.advertises("default", None) is False
        # But None/None (the "whatever you serve" route) matches, so
        # routability alone gates cold backends.
        assert h.advertises(None, None) is True

    def test_advertises_matches_probe_surface(self):
        h = handle(models=("default", "alt"), precisions=("fp64", "fp32"))
        assert h.advertises("alt", "fp32")
        assert h.advertises(None, None)
        assert h.advertises("default", None)
        assert not h.advertises("missing", None)
        assert not h.advertises("default", "int8")

    def test_load_weights_depth_by_batch_ema(self):
        slow = handle(queued_rows=10, batch_ms_ema=100.0)
        fast = handle("10.0.0.2:7341", queued_rows=10, batch_ms_ema=0.0)
        assert slow.load() == pytest.approx(20.0)  # depth doubled
        assert fast.load() == pytest.approx(10.0)

    def test_load_counts_router_side_inflight(self):
        h = handle(queued_rows=2, inflight_rows=3)
        assert h.load() == pytest.approx(5.0)

    def test_mark_down(self):
        h = handle()
        h.mark_down("kaboom")
        assert h.state == DOWN
        assert not h.routable
        assert h.last_error == "kaboom"
        assert h.stats["failures"] == 1

    def test_routable_states(self):
        assert handle(state=HEALTHY).routable
        assert not handle(state=DRAINING).routable
        assert not handle(state=DOWN).routable

    def test_describe_is_json_able(self):
        import json

        desc = json.loads(json.dumps(handle().describe()))
        assert desc["state"] == HEALTHY
        assert desc["spawned"] is False


class TestPlacementPolicy:
    def test_candidates_filter_state_and_route(self):
        a = handle("a:1", models=("m1",))
        b = handle("b:1", models=("m2",))
        c = handle("c:1", state=DOWN, models=("m1",))
        policy = PlacementPolicy()
        assert policy.candidates([a, b, c], "m1", None) == [a]
        assert policy.candidates([a, b, c], "m2", None) == [b]
        assert policy.candidates([a, b, c], "m3", None) == []

    def test_exclude_removes_tried_backends(self):
        a, b = handle("a:1"), handle("b:1")
        policy = PlacementPolicy()
        assert policy.candidates([a, b], None, None, exclude={"a:1"}) == [b]

    def test_choose_prefers_lower_load(self):
        light = handle("a:1", queued_rows=1)
        heavy = handle("b:1", queued_rows=50)
        policy = PlacementPolicy(rng=random.Random(0))
        picks = {policy.choose([light, heavy], None, None).address
                 for _ in range(20)}
        assert picks == {"a:1"}

    def test_choose_tie_goes_sticky(self):
        a, b = handle("a:1"), handle("b:1")
        policy = PlacementPolicy(rng=random.Random(0))
        first = policy.choose([a, b], None, None)
        # All loads equal: every subsequent choice repeats the pick.
        for _ in range(20):
            assert policy.choose([a, b], None, None) is first
        assert policy.sticky_for(None, None) == first.address

    def test_sticky_is_per_route(self):
        a = handle("a:1", models=("m1", "m2"))
        b = handle("b:1", models=("m1", "m2"))
        policy = PlacementPolicy(rng=random.Random(3))
        pick1 = policy.choose([a, b], "m1", None)
        assert policy.sticky_for("m1", None) == pick1.address
        # The other route has no stickiness until it sees traffic.
        assert policy.sticky_for("m2", None) is None

    def test_forget_clears_stickiness(self):
        a, b = handle("a:1"), handle("b:1")
        policy = PlacementPolicy(rng=random.Random(0))
        pick = policy.choose([a, b], None, None)
        policy.forget(pick.address)
        assert policy.sticky_for(None, None) is None

    def test_choose_single_candidate(self):
        a = handle("a:1")
        policy = PlacementPolicy()
        assert policy.choose([a], "m", "fp64") is a
        assert policy.sticky_for("m", "fp64") == "a:1"

    def test_choose_empty_raises(self):
        with pytest.raises(ValueError):
            PlacementPolicy().choose([], None, None)

    def test_load_spreads_across_equal_backends(self):
        # With live inflight accounting the two-choice rule alternates
        # rather than piling onto one backend: simulate the router
        # incrementing inflight_rows per forward.
        a, b = handle("a:1"), handle("b:1")
        policy = PlacementPolicy(rng=random.Random(7))
        counts = {"a:1": 0, "b:1": 0}
        for _ in range(100):
            pick = policy.choose([a, b], None, None)
            pick.inflight_rows += 1
            counts[pick.address] += 1
        assert abs(counts["a:1"] - counts["b:1"]) <= 2
