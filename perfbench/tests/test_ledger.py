"""The per-layer ledger: metric list, exact counts and span recording."""

import json
import threading
from pathlib import Path

import ledger
import tracing

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(metric) for metric in ledger.LAYER_METRICS
    ]


def test_exact_counts_are_layer_metrics():
    names = {name for name, _, _ in ledger.LAYER_METRICS}
    assert set(ledger.EXACT_COUNTS) <= names


def test_layer_metrics_cover_every_metric_but_overhead():
    out = ledger.layer_metrics([[]], requests=1, extra={})
    names = {name for name, _, _ in ledger.LAYER_METRICS}
    assert set(out) == names - {"bench.trace_overhead"}
    assert all(value == 0.0 for value in out.values())


def test_layer_metrics_per_request_means():
    spans = [
        {"id": 1, "parent": None, "name": "lifetime.solve", "t0": 0.0, "t1": 0.010,
         "request": "r0", "thread": 1, "attrs": {"evals": 12}},
        {"id": 2, "parent": 1, "name": "hybrid.query", "t0": 0.001, "t1": 0.005,
         "request": "r0", "thread": 1, "attrs": None},
        {"id": 3, "parent": None, "name": "lifetime.solve", "t0": 0.02, "t1": 0.03,
         "request": "r1", "thread": 1, "attrs": {"evals": 10}},
    ]
    out = ledger.layer_metrics([spans], requests=2, extra={})
    assert out["lifetime.solve.calls"] == 1.0
    assert out["lifetime.evals_per_solve"] == 11.0
    assert abs(out["lifetime.solve.self_ms"] - 8.0) < 1e-9
    assert out["hybrid.query.calls"] == 0.5


def test_recorder_wrap_records_parent_and_request():
    recorder = tracing.Recorder()
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    recorder.set_request("r7")
    assert outer(1) == 4
    other = threading.Thread(target=inner, args=(0,))
    other.start()
    other.join(timeout=5)
    spans = {s["name"] + str(s["thread"] == threading.get_ident()): s
             for s in recorder.span_dicts()}
    assert spans["innerTrue"]["parent"] == spans["outerTrue"]["id"]
    assert spans["innerFalse"]["parent"] is None
    assert {s["request"] for s in spans.values()} == {"r7"}
