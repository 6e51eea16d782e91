"""One workload session: set up, warm up, time a window, check, report.

Started by ``run.py``; prints one JSON object as its last stdout line.
Modes:

- ``measure``: set up, warm up, run the untraced timed window and, with
  ``--checks 1``, the correctness checks;
- ``trace``: the same with the span wrappers installed (here and, through
  ``traceboot.py``, in every server) and a fixed number of requests
  (closed loops); reports the per-layer ledger.

Session ``--part`` k of a run draws its requests from stream
``seed * 10 + k``, so the sessions of one run send different requests.

``setup_s`` runs from ``--launch`` (the wall time at which ``run.py``
started this process) to the first timed request.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Any

import procs


def _closed_loop(workload: Any, seconds: float | None, count: int | None,
                 recorder: Any) -> dict[str, Any]:
    """Send request ``i`` after request ``i-1`` completed, until the window ends."""
    latencies: list[float] = []
    failed = 0
    pids = workload.pids()
    cpu0 = procs.self_cpu_s() + sum(procs.proc_cpu_s(p) for p in pids)
    t0 = time.monotonic()
    deadline = t0 + (seconds or 0.0)
    index = 0
    while (time.monotonic() < deadline) if count is None else (index < count):
        if recorder is not None:
            recorder.set_request(f"r{index}")
        started = time.monotonic()
        try:
            workload.request(index)
            latencies.append(time.monotonic() - started)
        except Exception:  # any failure counts against the run
            traceback.print_exc(file=sys.stderr)
            failed += 1
            latencies.append(float("inf"))
        index += 1
    t1 = time.monotonic()
    cpu1 = procs.self_cpu_s() + sum(procs.proc_cpu_s(p) for p in pids)
    if recorder is not None:
        recorder.set_request(None)
    return {
        "latencies_s": latencies,
        "attempted": index,
        "failed": failed,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "window": (t0, t1),
    }


def _server_spans(path: Path, t0: float, t1: float) -> list[dict[str, Any]]:
    spans = json.loads(path.read_text()) if path.exists() else []
    return [s for s in spans if s["t0"] >= t0 and s["t1"] <= t1]


def run_session(args: argparse.Namespace) -> dict[str, Any]:
    from workloads import WORKLOADS

    recorder = None
    if args.mode == "trace":
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    workload = WORKLOADS[args.workload](
        args.seed * 10 + args.part, Path(args.root), dict(os.environ),
        args.mode == "trace", args.rate,
    )
    result: dict[str, Any] = {}
    try:
        workload.setup()
        workload.warmup()
        result["setup_s"] = time.time() - args.launch
        if hasattr(workload, "run_open"):
            window = workload.run_open(args.seconds)
        else:
            count = workload.trace_requests if args.mode == "trace" else None
            window = _closed_loop(workload, args.seconds, count, recorder)
        result.update(window)
        result["peak_rss_mb"] = procs.self_peak_rss_mb() + sum(
            procs.proc_peak_rss_mb(p) for p in workload.pids()
        )
        result["mismatches"] = workload.checks() if args.checks else []
        extra = {**window, "workers": len(workload.servers)}
    finally:
        workload.close()
    if recorder is not None:
        from ledger import layer_metrics, layer_table
        from stats import adopt_cross_thread

        t0, t1 = result["window"]
        processes = [recorder.span_dicts(t0, t1)] + [
            _server_spans(path, t0, t1) for path in workload.span_files()
        ]
        for spans in processes:
            adopt_cross_thread(spans)
        completed = result["attempted"] - result["failed"]
        result["layers"] = layer_metrics(processes, completed, extra)
        result["ledger"] = layer_table(processes, completed)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, choices=range(10), required=True)
    parser.add_argument("--checks", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--launch", type=float, required=True)
    args = parser.parse_args(argv)
    result = run_session(args)
    result.pop("window", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
