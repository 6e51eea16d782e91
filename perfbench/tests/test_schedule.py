"""The seeded request generators: reproducible, with seed-free class counts."""

from collections import Counter

import pytest

import schedule


def _counts(plan):
    return Counter(entry["cls"] for entry in plan)


def test_same_seed_same_schedule():
    assert schedule.service_schedule(7, 8.0, 20) == schedule.service_schedule(7, 8.0, 20)
    assert schedule.service_schedule(7, 8.0, 20) != schedule.service_schedule(8, 8.0, 20)


@pytest.mark.parametrize("seed", [1, 2, 3, 99])
def test_class_counts_do_not_depend_on_seed(seed):
    plan = schedule.service_schedule(seed, 8.0, 20)
    assert len(plan) == 160
    blocks = len(plan) // schedule.SERVICE_BLOCK
    expected = {cls: n * blocks for cls, n in schedule.SERVICE_FRESH.items()}
    expected.update(repeat=3 * blocks, coalesce=blocks)
    assert _counts(plan) == expected
    for block in range(blocks):
        chunk = plan[block * 20:(block + 1) * 20]
        assert _counts(chunk) == {
            **schedule.SERVICE_FRESH, "repeat": 3, "coalesce": 1
        }


def test_arrivals_sorted_inside_window():
    plan = schedule.service_schedule(5, 8.0, 20)
    times = [entry["at"] for entry in plan]
    assert times == sorted(times)
    assert 0.0 <= times[0] and times[-1] < 20.0


def test_each_block_arrives_in_its_own_interval():
    plan = schedule.service_schedule(5, 8.0, 20)
    interval = 20 / (len(plan) // schedule.SERVICE_BLOCK)
    for index, entry in enumerate(plan):
        block = index // schedule.SERVICE_BLOCK
        assert block * interval <= entry["at"] < (block + 1) * interval


def test_repeats_and_coalescing_point_at_fresh_requests():
    plan = schedule.service_schedule(11, 8.0, 20)
    for index, entry in enumerate(plan):
        ref = entry["repeat_of"]
        if entry["cls"] == "repeat":
            assert index - ref >= 10
            assert plan[ref]["repeat_of"] is None
            assert entry["doc"] == plan[ref]["doc"]
        elif entry["cls"] == "coalesce":
            assert ref == index - 1
            assert plan[ref]["cls"] == "life_c3"
            assert entry["doc"] == plan[ref]["doc"]
        else:
            assert ref is None


def test_fresh_requests_are_distinct():
    plan = schedule.service_schedule(3, 8.0, 20)
    fresh = [str(e["doc"]) for e in plan if e["repeat_of"] is None]
    assert len(set(fresh)) == len(fresh)


def test_sweep_stream():
    for seed in (1, 2):
        requests = [schedule.sweep_request(seed, i) for i in range(24)]
        assert requests == [schedule.sweep_request(seed, i) for i in range(24)]
        fresh = [r for i, r in enumerate(requests) if i % 4 != 3]
        assert all(r["repeat_of"] is None for r in fresh)
        assert Counter(r["design"] for r in fresh) == Counter(
            {d: 18 // len(schedule.SWEEP_DESIGNS) + (i < 18 % len(schedule.SWEEP_DESIGNS))
             for i, d in enumerate(schedule.SWEEP_DESIGNS)}
        )
        for i in range(3, 24, 4):
            ref = requests[i]["repeat_of"]
            assert ref % 4 != 3 and ref < i
            assert requests[i]["temperatures_c"] == requests[ref]["temperatures_c"]
        assert all(len(r["temperatures_c"]) == schedule.SWEEP_TEMPS for r in requests)


def test_fleet_stream():
    requests = [schedule.fleet_request(4, i) for i in range(20)]
    for i, request in enumerate(requests):
        assert request["doc"]["mc_chips"] == schedule.FLEET_CHIPS
        if i % 5 == 4:
            assert requests[request["repeat_of"]]["doc"] == request["doc"]
        else:
            assert request["repeat_of"] is None
    assert len({r["doc"]["seed"] for i, r in enumerate(requests) if i % 5 != 4}) == 16


def test_activity_factors_in_range_and_seeded():
    factors = schedule.activity_factors(3, 17, 40)
    assert factors == schedule.activity_factors(3, 17, 40)
    assert factors != schedule.activity_factors(4, 17, 40)
    assert all(0.05 <= f <= 0.95 for f in factors)


def test_lifetime_methods_per_block():
    plan = schedule.service_schedule(2, 8.0, 20)
    for block in range(len(plan) // 20):
        chunk = [e for e in plan[block * 20:(block + 1) * 20] if e["repeat_of"] is None]
        for cls, count in (("life_c1", 4), ("life_c2", 4), ("life_c3", 3)):
            methods = [e["doc"]["methods"] for e in chunk if e["cls"] == cls]
            assert all(len(m) == 1 for m in methods)
            assert len({m[0] for m in methods}) == count
    warmups = dict(schedule.service_warmups(2))
    assert warmups["life_c3"]["methods"] == list(schedule.SERVICE_METHODS)
