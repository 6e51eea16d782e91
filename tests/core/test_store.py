"""The process-wide design store: every request analyzer on one design model.

A request served from the store must read, byte for byte, what a fresh
``ReliabilityAnalyzer`` reads, whether the store is cold or warm.  The
store's key must separate what moves numbers (block powers) and share what
does not (the supply voltage).  A design must be built once however many
threads ask for it, and a build that raises must leave nothing behind.
Its lazily built parts must be built once too.  The store must stay within
its byte bound.
"""

from __future__ import annotations

import multiprocessing
import pickle
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import make_synthetic_design, obs
from repro.chip.benchmarks import make_benchmark
from repro.chip.floorplan import Floorplan
from repro.core import store
from repro.core.analyzer import AnalysisConfig, ReliabilityAnalyzer
from repro.core.store import (
    clear_design_store,
    design_store_stats,
    stored_analyzer,
)
from repro.errors import ConfigurationError
from repro.exec.backends import close_shared_backends
from repro.io.design_json import setup_from_dict, setup_to_dict
from repro.payloads import dump_payload
from repro.service.requests import JobRequest, run_job

METHODS = ["st_fast", "st_mc", "hybrid", "temp_unaware", "guard"]

#: Burn-in then field at 1.2x block power, three mechanisms in order.
POWER_SCALE_SCENARIO = {
    "phases": [
        {"name": "burnin", "duration_hours": 168, "temperature_c": 125, "vdd": 1.3},
        {"name": "field", "power_scale": 1.2},
    ],
    "mechanisms": ["obd", "nbti", "em"],
    "composition": "ordered",
}
RESIDENCY_SCENARIO = {
    "phases": [
        {"name": "idle", "fraction": 0.7, "temperature_c": 55.0},
        {"name": "busy", "fraction": 0.3, "power_scale": 1.1},
    ],
    "mechanisms": ["obd"],
    "composition": "residency",
}
OBD_SCENARIO = {"phases": [{"name": "field"}], "mechanisms": ["obd"]}


def _setup_document() -> dict:
    floorplan = make_synthetic_design(
        name="T", n_devices=5000, n_blocks=4, die_size=2.0, seed=42
    )
    return setup_to_dict(floorplan, config=AnalysisConfig(grid_size=6))


def _payload_set() -> dict[str, dict]:
    """The job documents whose payloads must not depend on the store."""
    curve = {"kind": "curve", "t_min": 1e3, "t_max": 2e6, "points": 30}
    return {
        "C1 lifetime": {"kind": "lifetime", "design": "C1", "grid": 10,
                        "methods": METHODS, "ppm": 10.0},
        "C2 lifetime at 1.3 V": {"kind": "lifetime", "design": "C2",
                                 "grid": 15, "methods": METHODS,
                                 "ppm": 3.5, "vdd": 1.3},
        "C3 lifetime": {"kind": "lifetime", "design": "C3", "grid": 25,
                        "methods": METHODS, "ppm": 42.0},
        "setup lifetime": {"kind": "lifetime", "setup": _setup_document(),
                           "methods": ["st_fast", "hybrid", "guard"]},
        "C1 mc": {"kind": "lifetime", "design": "C1", "grid": 10,
                  "methods": ["mc"], "mc_chips": 64, "seed": 3},
        "C1 st_fast curve": {**curve, "design": "C1", "grid": 10,
                             "methods": ["st_fast"]},
        "C2 st_mc curve": {**curve, "design": "C2", "grid": 15,
                           "methods": ["st_mc"]},
        "C3 hybrid curve": {**curve, "design": "C3", "grid": 25,
                            "methods": ["hybrid"]},
        "C2 power_scale scenario": {"kind": "scenario", "design": "C2",
                                    "grid": 15, "ppm": 7.0,
                                    "scenario": POWER_SCALE_SCENARIO},
        "C1 residency scenario": {"kind": "scenario", "design": "C1",
                                  "grid": 10, "scenario": RESIDENCY_SCENARIO},
        "C3 OBD scenario": {"kind": "scenario", "design": "C3", "grid": 25,
                            "scenario": OBD_SCENARIO},
    }


def _fresh_analyzer(request: JobRequest) -> ReliabilityAnalyzer:
    """What ``build_analyzer`` built before the store: a new constructor call."""
    if request.setup is None:
        return ReliabilityAnalyzer(
            make_benchmark(request.design),
            config=AnalysisConfig(
                grid_size=request.grid, rho_dist=request.rho, vdd=request.vdd
            ),
        )
    floorplan, budget, obd_model, config = setup_from_dict(request.setup)
    if request.vdd is not None:
        config = replace(config, vdd=request.vdd)
    return ReliabilityAnalyzer(
        floorplan, budget=budget, obd_model=obd_model, config=config
    )


def _span_names(docs: list[dict]) -> list[str]:
    names = []
    for doc in docs:
        names.append(doc["name"])
        names.extend(_span_names(doc.get("children", [])))
    return names


def _traced(action) -> list[str]:
    obs.reset()
    with obs.enabled():
        action()
        return _span_names(obs.trace_snapshot())


def test_cold_warm_and_fresh_payloads_are_byte_identical(monkeypatch):
    requests = {
        name: JobRequest.from_dict(doc) for name, doc in _payload_set().items()
    }
    cold = {}
    for name, request in requests.items():
        clear_design_store()
        cold[name] = dump_payload(run_job(request))
    for request in requests.values():  # store every design and point
        run_job(request)
    before = design_store_stats()
    warm = {name: dump_payload(run_job(r)) for name, r in requests.items()}
    after = design_store_stats()
    assert after["misses"] == before["misses"]
    assert after["hits"] == before["hits"] + len(requests)
    monkeypatch.setattr(JobRequest, "build_analyzer", _fresh_analyzer)
    fresh = {name: dump_payload(run_job(r)) for name, r in requests.items()}
    for name in requests:
        assert cold[name] == fresh[name], name
        assert warm[name] == fresh[name], name


def _with_power(floorplan: Floorplan, index: int, factor: float) -> Floorplan:
    block = floorplan.blocks[index]
    return floorplan.with_powers({block.name: block.power * factor})


def test_block_powers_are_part_of_the_key():
    base = make_benchmark("C2")
    other = _with_power(base, 3, 1.5)
    config = AnalysisConfig(grid_size=10)
    first = stored_analyzer(base, config=config)
    second = stored_analyzer(other, config=config)
    assert first.design is not second.design
    assert design_store_stats()["misses"] == 2
    scenario = {"kind": "scenario", "ppm": 5.0, "scenario": POWER_SCALE_SCENARIO}
    for floorplan in (base, other):
        request = JobRequest.from_dict(
            {**scenario, "setup": setup_to_dict(floorplan, config=config)}
        )
        served = dump_payload(run_job(request))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(JobRequest, "build_analyzer", _fresh_analyzer)
            assert served == dump_payload(run_job(request))
    assert design_store_stats()["misses"] == 2


def test_supply_voltages_share_one_design():
    floorplan = make_benchmark("C1")

    def both_vdds() -> None:
        for vdd in (None, 1.3, None, 1.3):
            stored_analyzer(floorplan, config=AnalysisConfig(grid_size=6, vdd=vdd))

    names = _traced(both_vdds)
    assert names.count("analyzer.setup") == 1
    nominal = stored_analyzer(floorplan, config=AnalysisConfig(grid_size=6))
    raised = stored_analyzer(
        floorplan, config=AnalysisConfig(grid_size=6, vdd=1.3)
    )
    assert nominal.design is raised.design
    assert nominal is not raised
    assert stored_analyzer(
        floorplan, config=AnalysisConfig(grid_size=6, vdd=1.3)
    ) is raised
    assert raised.config.vdd == 1.3
    assert design_store_stats()["entries"] == 1


def _run_threads(target, count: int) -> list:
    results: list = [None] * count
    errors: list[BaseException] = []
    barrier = threading.Barrier(count)

    def run(index: int) -> None:
        try:
            barrier.wait(timeout=60.0)
            results[index] = target(index)
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    return results


def test_concurrent_requests_for_a_cold_design_build_it_once():
    floorplan = make_benchmark("C2")
    config = AnalysisConfig(grid_size=10)
    names: list[str] = []

    def ask_together() -> None:
        names.append(_run_threads(lambda _: stored_analyzer(floorplan, config=config), 8))

    traced = _traced(ask_together)
    (points,) = names
    assert traced.count("analyzer.setup") == 1
    assert all(point is points[0] for point in points)
    stats = design_store_stats()
    assert (stats["misses"], stats["hits"], stats["entries"]) == (1, 7, 1)


def test_a_build_that_raises_stores_nothing():
    bad = AnalysisConfig(grid_size=6, correlation_model="bogus")
    with pytest.raises(ConfigurationError, match="correlation model"):
        stored_analyzer(make_benchmark("C1"), config=bad)
    assert design_store_stats()["entries"] == 0
    assert design_store_stats()["bytes"] == 0


def test_a_failed_build_wakes_its_waiters(monkeypatch):
    """The first build raises while a second request waits on it; the
    waiter then builds the design itself."""
    building = threading.Event()
    release = threading.Event()
    calls: list[int] = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            building.set()
            release.wait(timeout=60.0)
            raise ConfigurationError("first build fails")
        return ReliabilityAnalyzer(*args, **kwargs)

    monkeypatch.setattr(store, "ReliabilityAnalyzer", flaky)
    floorplan = make_benchmark("C1")
    config = AnalysisConfig(grid_size=6)
    outcome: dict[str, object] = {}

    def first() -> None:
        try:
            stored_analyzer(floorplan, config=config)
        except ConfigurationError as exc:
            outcome["first"] = exc

    def second() -> None:
        outcome["second"] = stored_analyzer(floorplan, config=config)

    builder = threading.Thread(target=first)
    builder.start()
    assert building.wait(timeout=60.0)
    waiter = threading.Thread(target=second)
    waiter.start()
    time.sleep(0.05)  # let the waiter reach the entry; either order passes
    release.set()
    builder.join(timeout=60.0)
    waiter.join(timeout=60.0)
    assert not builder.is_alive() and not waiter.is_alive()
    assert isinstance(outcome["first"], ConfigurationError)
    assert isinstance(outcome["second"], ReliabilityAnalyzer)
    assert len(calls) == 2
    assert design_store_stats()["entries"] == 1


def test_lazy_parts_are_built_once_and_read_serial_values():
    floorplan = make_benchmark("C2")
    config = AnalysisConfig(grid_size=10, st_mc_samples=2000)
    methods = ("st_fast", "hybrid", "temp_unaware", "st_mc", "guard")
    serial = ReliabilityAnalyzer(floorplan, config=config)
    want = {method: serial.lifetime(10.0, method=method) for method in methods}
    shared = stored_analyzer(floorplan, config=config)
    results: list = []

    def evaluate(index: int) -> dict[str, float]:
        order = methods[index % len(methods):] + methods[: index % len(methods)]
        return {method: shared.lifetime(10.0, method=method) for method in order}

    def threaded() -> None:
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results.extend(_run_threads(evaluate, 8))
        finally:
            sys.setswitchinterval(interval)

    names = _traced(threaded)
    assert names.count("st_fast.rules") == 1
    assert names.count("st_mc.sample") == 1
    for got in results:
        assert got == want


def test_lru_eviction_keeps_the_store_within_its_bound(monkeypatch):
    floorplan = make_benchmark("C1")

    def ask(seed: int) -> ReliabilityAnalyzer:
        # The seed only reaches the (lazy) st_mc cloud: equal-sized designs.
        return stored_analyzer(
            floorplan, config=AnalysisConfig(grid_size=6, seed=seed)
        )

    def stored() -> set[int]:
        return {key[2].seed for key in store._entries}

    ask(0)
    one = design_store_stats()["bytes"]
    clear_design_store()
    monkeypatch.setattr(store, "MAX_BYTES", int(2.5 * one))
    kept_after = []
    for seed in range(5):
        ask(seed)
        if seed == 2:
            ask(1)  # now more recently used than 2
        assert design_store_stats()["bytes"] <= store.MAX_BYTES
        kept_after.append(stored())
    assert kept_after == [{0}, {0, 1}, {1, 2}, {1, 3}, {3, 4}]
    assert design_store_stats()["evictions"] == 3


def test_lazy_parts_are_counted_when_their_design_is_next_served():
    floorplan = make_benchmark("C1")
    config = AnalysisConfig(grid_size=6)
    analyzer = stored_analyzer(floorplan, config=config)
    before = design_store_stats()["bytes"]
    table = analyzer.hybrid._tables
    assert stored_analyzer(floorplan, config=config) is analyzer
    assert design_store_stats()["bytes"] >= before + table.nbytes
    # A point at explicit temperatures is not kept, so it is not counted.
    stored = design_store_stats()["bytes"]
    point = stored_analyzer(
        floorplan, config=config, block_temperatures=np.full(8, 80.0)
    )
    point.lifetime(10.0, method="hybrid")
    stored_analyzer(floorplan, config=config)
    assert design_store_stats()["bytes"] == stored


def test_an_oversize_design_is_served_but_not_kept(monkeypatch):
    monkeypatch.setattr(store, "MAX_BYTES", 1000)
    floorplan = make_benchmark("C1")
    config = AnalysisConfig(grid_size=6)
    served = stored_analyzer(floorplan, config=config)
    fresh = ReliabilityAnalyzer(floorplan, config=config)
    assert served.lifetime(10.0) == fresh.lifetime(10.0)
    stats = design_store_stats()
    assert (stats["entries"], stats["bytes"]) == (0, 0)


def test_a_shared_point_hands_out_read_only_arrays():
    analyzer = stored_analyzer(make_benchmark("C1"), config=AnalysisConfig(grid_size=6))
    for values in (
        analyzer.alphas,
        analyzer.bs,
        analyzer.block_temperatures,
        *analyzer.worst_case,
    ):
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


def test_a_stored_analyzer_pickles():
    analyzer = stored_analyzer(make_benchmark("C1"), config=AnalysisConfig(grid_size=6))
    want = {m: analyzer.lifetime(10.0, method=m) for m in ("st_fast", "hybrid")}
    copy = pickle.loads(pickle.dumps(analyzer))
    assert {m: copy.lifetime(10.0, method=m) for m in want} == want
    assert copy.at(copy.block_temperatures + 5.0).lifetime(10.0) == (
        analyzer.at(analyzer.block_temperatures + 5.0).lifetime(10.0)
    )


def test_designs_share_one_worker_pool_per_backend_setting():
    before = {child.pid for child in multiprocessing.active_children()}
    config = AnalysisConfig(
        grid_size=6, exec_backend="process", exec_jobs=2, mc_shard_size=16
    )
    analyzers = [
        stored_analyzer(make_benchmark(design), config=config)
        for design in ("C1", "C2")
    ]
    for analyzer in analyzers:
        analyzer.mc_lifetime(100.0, n_chips=64, seed=1)
    assert analyzers[0].exec_backend is analyzers[1].exec_backend
    started = {child.pid for child in multiprocessing.active_children()} - before
    assert len(started) == 2
    close_shared_backends()
    alive = {child.pid for child in multiprocessing.active_children()}
    assert not started & alive
