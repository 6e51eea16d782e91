"""The four workloads, each driving the program through its public API.

A workload object lives in one session process.  ``setup`` boots what
the workload needs (servers, analyzers), ``warmup`` sends one untimed
request per request class, and then either ``request(i)`` is called in a
closed loop or ``run_open`` replays an open-loop schedule.  ``checks``
runs after the timed window and returns one message per mismatch.

Program calls go through module attributes at call time, so the span
wrappers installed for a traced run see every one of them.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from pathlib import Path
from typing import Any

import procs
import schedule
from stats import percentile

#: Relative tolerance of the management_loop golden lifetimes.  The
#: solve is deterministic float64; the tolerance only absorbs BLAS and
#: libm differences between machines.
GOLDEN_RTOL = 1e-6
GOLDEN_PATH = Path(__file__).with_name("golden.json")
#: Fixed activity profiles whose lifetimes are pinned in golden.json.
CHECK_PRESETS = ("idle", "memory_bound", "typical", "fp_heavy", "int_heavy")


class Workload:
    """Base: the context every workload gets, and no-op hooks."""

    name = ""
    #: Requests in the traced window (closed loops; a multiple of each
    #: stream's repeat cycle so exact counts repeat for a fixed seed).
    trace_requests = 0

    def __init__(self, seed: int, root: Path, env: dict[str, str],
                 traced: bool, rate: float) -> None:
        self.seed = seed
        self.root = root
        self.env = env
        self.traced = traced
        self.rate = rate
        self.servers: list[procs.Server] = []

    def pids(self) -> list[int]:
        return [server.proc.pid for server in self.servers]

    def span_files(self) -> list[Path]:
        return [self.root / f"spans-{i}.json" for i in range(len(self.servers))]

    def start_servers(self, args_per_server: list[list[str]]) -> list[str]:
        for i, args in enumerate(args_per_server):
            self.servers.append(procs.Server(
                args,
                self.root / f"server-{i}",
                self.env,
                spans_path=self.root / f"spans-{i}.json" if self.traced else None,
            ))
        return [server.wait_ready() for server in self.servers]

    def close(self) -> None:
        for server in self.servers:
            server.stop()


# ----------------------------------------------------------------------
# management_loop
# ----------------------------------------------------------------------


class ManagementLoop(Workload):
    """Runtime manager: power-thermal fixed point + hybrid lifetime query."""

    name = "management_loop"
    trace_requests = 200

    def setup(self) -> None:
        import repro
        from repro.core import lifetime

        self.repro = repro
        self.lifetime = lifetime
        self.floorplan = repro.make_alpha_processor()
        base = repro.solve_power_thermal(
            self.floorplan, repro.ActivityProfile.preset("typical", self.floorplan)
        )
        self.analyzer = repro.ReliabilityAnalyzer(
            base.floorplan, block_temperatures=base.block_temperatures
        )
        self.hybrid = self.analyzer.hybrid
        self.target = lifetime.ppm_to_reliability(10.0)

    def _lifetime(self, profile: Any) -> float:
        import numpy as np

        solution = self.repro.solve_power_thermal(self.floorplan, profile)
        params = self.analyzer.obd_model.block_params(solution.block_temperatures)
        alphas = np.array([p.alpha for p in params])
        bs = np.array([p.b for p in params])
        hybrid = self.hybrid
        return self.lifetime.solve_lifetime(
            lambda t: float(hybrid.reliability(t, alphas=alphas, bs=bs)),
            self.target,
            t_guess=1e5,
        )

    def _profile(self, index: int | str) -> Any:
        blocks = self.floorplan.blocks
        factors = schedule.activity_factors(self.seed, index, len(blocks))
        return self.repro.ActivityProfile(
            name=f"request-{index}",
            factors={block.name: f for block, f in zip(blocks, factors, strict=True)},
        )

    def warmup(self) -> None:
        self._lifetime(self._profile("warmup"))

    def request(self, index: int) -> None:
        self._lifetime(self._profile(index))

    def golden(self) -> dict[str, float]:
        return {
            preset: self._lifetime(
                self.repro.ActivityProfile.preset(preset, self.floorplan)
            )
            for preset in CHECK_PRESETS
        }

    def checks(self) -> list[str]:
        expected = json.loads(GOLDEN_PATH.read_text())["management_loop"]
        problems = []
        for preset, value in self.golden().items():
            want = expected[preset]
            if abs(value - want) > GOLDEN_RTOL * abs(want):
                problems.append(
                    f"management_loop {preset}: lifetime {value!r} h, "
                    f"golden {want!r} h"
                )
        return problems


# ----------------------------------------------------------------------
# design_sweep
# ----------------------------------------------------------------------


class DesignSweep(Workload):
    """Design-space exploration through ``exec.batch.run_batch``."""

    name = "design_sweep"
    trace_requests = 24

    def setup(self) -> None:
        from repro.exec import batch, cache

        self.batch = batch
        self.cache = cache.ResultCache(self.root / "results")
        self.reports: dict[int, dict[str, Any]] = {}

    def _sweep(self, request: dict[str, Any]) -> dict[str, Any]:
        spec = self.batch.SweepSpec(
            designs=(request["design"],),
            methods=schedule.SWEEP_METHODS,
            temperatures_c=tuple(request["temperatures_c"]),
            grid_size=schedule.SWEEP_GRID,
        )
        return self.batch.run_batch(spec, cache=self.cache)

    def warmup(self) -> None:
        warmups = schedule.sweep_warmups(self.seed)
        for request in warmups:
            self._sweep(request)
        self._sweep(warmups[0])

    def request(self, index: int) -> None:
        request = schedule.sweep_request(self.seed, index)
        report = self._sweep(request)
        if request["repeat_of"] is None and len(self.reports) < 64:
            self.reports[index] = report

    def checks(self) -> list[str]:
        import random

        import numpy as np
        from repro.chip.benchmarks import make_benchmark
        from repro.core.analyzer import AnalysisConfig, ReliabilityAnalyzer

        rng = random.Random(f"{self.seed}:sweep-check")
        problems = []
        indices = sorted(self.reports)
        for index in rng.sample(indices, min(3, len(indices))):
            cell = rng.choice(self.reports[index]["cells"])
            floorplan = make_benchmark(cell["design"])
            analyzer = ReliabilityAnalyzer(
                floorplan,
                config=AnalysisConfig(grid_size=schedule.SWEEP_GRID),
                block_temperatures=np.full(
                    floorplan.n_blocks, float(cell["temperature_c"])
                ),
            )
            value = analyzer.lifetime(10.0, method=cell["method"])
            if value != cell["lifetime_hours"]:
                problems.append(
                    f"design_sweep {cell['design']} {cell['temperature_c']} C "
                    f"{cell['method']}: batch {cell['lifetime_hours']!r} h, "
                    f"analyzer {value!r} h"
                )
        return problems


# ----------------------------------------------------------------------
# mc_fleet
# ----------------------------------------------------------------------


class McFleet(Workload):
    """Monte-Carlo reference fanned out by ``FleetCoordinator``."""

    name = "mc_fleet"
    trace_requests = 20

    def setup(self) -> None:
        from repro.exec.cache import ResultCache
        from repro.fleet import FleetCoordinator, HttpTransport
        from repro.service.requests import JobRequest

        self.JobRequest = JobRequest
        urls = self.start_servers([
            ["--jobs", "1", "--rate", "0",
             "--checkpoint-dir", str(self.root / f"checkpoints-{i}")]
            for i in range(2)
        ])
        self.coordinator = FleetCoordinator(
            urls,
            transport=HttpTransport(poll_interval_s=schedule.FLEET_POLL_S),
            group_size=schedule.FLEET_GROUP_SIZE,
            shared_cache=ResultCache(self.root / "shared", tier="shared"),
            checkpoint_path=str(self.root / "fleet-checkpoint.npz"),
        )
        self.checked: tuple[dict[str, Any], dict[str, Any]] | None = None

    def _run(self, doc: dict[str, Any]) -> dict[str, Any]:
        return self.coordinator.run(self.JobRequest.from_dict(doc))

    def warmup(self) -> None:
        doc = schedule.fleet_warmup(self.seed)
        self._run(doc)
        self._run(doc)

    def request(self, index: int) -> None:
        request = schedule.fleet_request(self.seed, index)
        payload = self._run(request["doc"])
        if self.checked is None and request["repeat_of"] is None:
            self.checked = (request["doc"], payload)

    def checks(self) -> list[str]:
        from repro.payloads import dump_payload
        from repro.service.requests import run_job

        if self.checked is None:
            return ["mc_fleet: no fresh request completed"]
        doc, payload = self.checked
        serial = run_job(self.JobRequest.from_dict(doc))
        if dump_payload(payload) != dump_payload(serial):
            return [f"mc_fleet seed {doc['seed']}: fleet payload differs from serial run_job"]
        return []


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------

_TERMINAL = ("done", "failed", "cancelled", "interrupted")
#: Status-poll cycle of the load generator.  Latency is read from the
#: server's ``finished_s``, so the cycle only delays when we learn it.
_POLL_CYCLE_S = 0.1
_CLIENTS = 8


class _Conn:
    """One keep-alive HTTP connection, reopened after any error."""

    def __init__(self, url: str) -> None:
        host, port = url.split("://", 1)[1].split(":")
        self.host, self.port = host, int(port)
        self.conn: http.client.HTTPConnection | None = None

    def call(self, method: str, path: str, body: bytes | None = None,
             headers: dict[str, str] | None = None) -> tuple[int, bytes]:
        for attempt in range(2):
            if self.conn is None:
                self.conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
            try:
                self.conn.request(method, path, body=body, headers=headers or {})
                response = self.conn.getresponse()
                return response.status, response.read()
            except (OSError, http.client.HTTPException):
                self.conn.close()
                self.conn = None
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()


class ServiceMixed(Workload):
    """``repro serve`` under a seeded open-loop mix of job classes."""

    name = "service_mixed"

    def setup(self) -> None:
        (self.url,) = self.start_servers([[]])
        self.sender = _Conn(self.url)
        self.poller = _Conn(self.url)

    def close(self) -> None:
        self.sender.close()
        self.poller.close()
        super().close()

    def _submit(self, conn: _Conn, doc: dict[str, Any], client: str,
                request_id: str) -> tuple[int, dict[str, Any]]:
        status, body = conn.call(
            "POST", "/v1/jobs", json.dumps(doc).encode(),
            {"Content-Type": "application/json", "X-Client-Id": client,
             "X-Trace-Id": request_id},
        )
        return status, (json.loads(body) if body else {})

    def _wait(self, job_ids: list[str]) -> None:
        pending = set(job_ids)
        while pending:
            for job_id in list(pending):
                status, body = self.poller.call("GET", f"/v1/jobs/{job_id}")
                if status != 200 or json.loads(body)["state"] in _TERMINAL:
                    pending.discard(job_id)
            time.sleep(0.02)

    def warmup(self) -> None:
        warmups = schedule.service_warmups(self.seed)
        for batch in (warmups, [("repeat", warmups[0][1])]):
            ids = []
            for i, (cls, doc) in enumerate(batch):
                status, envelope = self._submit(
                    self.sender, doc, f"bench-{i % _CLIENTS}", f"warmup-{cls}"
                )
                if status not in (200, 201):
                    raise RuntimeError(f"warm-up {cls} got HTTP {status}")
                ids.append(envelope["id"])
            self._wait(ids)

    def run_open(self, seconds: float) -> dict[str, Any]:
        plan = schedule.service_schedule(self.seed, self.rate, seconds)
        n = len(plan)
        sent = [None] * n  # (status, envelope, submit_s, lag_s)
        finished: dict[str, dict[str, Any]] = {}
        status_s: list[float] = []
        lock = threading.Lock()
        sender_done = threading.Event()
        t0_wall = time.time()
        t0 = time.monotonic()

        def send() -> None:
            for i, entry in enumerate(plan):
                due = t0 + entry["at"]
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                started = time.monotonic()
                try:
                    status, envelope = self._submit(
                        self.sender, entry["doc"], f"bench-{i % _CLIENTS}", f"r{i}"
                    )
                except (OSError, http.client.HTTPException, ValueError):
                    status, envelope = 0, {}
                with lock:
                    sent[i] = (status, envelope, time.monotonic() - started,
                               started - due)
                    if status in (200, 201) and envelope.get("state") in _TERMINAL:
                        finished.setdefault(envelope["id"], envelope)
            sender_done.set()

        def poll() -> None:
            while True:
                with lock:
                    outstanding = {
                        s[1]["id"] for s in sent
                        if s is not None and s[0] in (200, 201)
                        and s[1]["id"] not in finished
                    }
                if not outstanding and sender_done.is_set():
                    return
                for job_id in outstanding:
                    started = time.monotonic()
                    try:
                        status, body = self.poller.call("GET", f"/v1/jobs/{job_id}")
                    except (OSError, http.client.HTTPException):
                        continue
                    status_s.append(time.monotonic() - started)
                    if status != 200:
                        with lock:
                            finished[job_id] = {"id": job_id, "state": "failed"}
                        continue
                    envelope = json.loads(body)
                    if envelope["state"] in _TERMINAL:
                        with lock:
                            finished[job_id] = envelope
                time.sleep(_POLL_CYCLE_S)

        cpu0 = procs.self_cpu_s() + sum(procs.proc_cpu_s(p) for p in self.pids())
        threads = [threading.Thread(target=send), threading.Thread(target=poll)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cpu1 = procs.self_cpu_s() + sum(procs.proc_cpu_s(p) for p in self.pids())
        t1 = time.monotonic()

        latencies: list[float] = []
        failed = 0
        last_finish = t0_wall
        shed = cached = coalesced = 0
        seen_ids: set[str] = set()
        queue_wait: list[float] = []
        run_s: list[float] = []
        for i, entry in enumerate(plan):
            status, envelope, _, _ = sent[i]
            if status in (429, 503):
                shed += 1
            job = finished.get(envelope.get("id", ""), {})
            if status not in (200, 201) or job.get("state") != "done":
                failed += 1
                latencies.append(float("inf"))
                continue
            if envelope.get("cached"):
                cached += 1
            elif status == 200:
                coalesced += 1
            elif job["id"] not in seen_ids and job.get("started_s") is not None:
                queue_wait.append(job["started_s"] - job["created_s"])
                run_s.append(job["finished_s"] - job["started_s"])
            seen_ids.add(job["id"])
            latencies.append(job["finished_s"] - (t0_wall + entry["at"]))
            last_finish = max(last_finish, job["finished_s"])
        self.plan, self.sent, self.finished = plan, sent, finished
        lags = [s[3] for s in sent if s is not None]
        submit = [s[2] for s in sent if s is not None]
        return {
            "latencies_s": latencies,
            "attempted": n,
            "failed": failed,
            "wall_s": max(last_finish - t0_wall, 1e-9),
            "cpu_s": cpu1 - cpu0,
            "window": (t0, t1),
            "service": {
                "submit_ms_p50": 1e3 * percentile(submit, 50),
                "status_ms_p50": 1e3 * percentile(status_s, 50) if status_s else 0.0,
                "queue_wait_ms_p50": 1e3 * percentile(queue_wait, 50) if queue_wait else 0.0,
                "queue_wait_ms_p90": 1e3 * percentile(queue_wait, 90) if queue_wait else 0.0,
                "run_ms_p50": 1e3 * percentile(run_s, 50) if run_s else 0.0,
                "cache_served_share": cached / n,
                "coalesced_share": coalesced / n,
                "rejected_share": shed / n,
                "sender_lag_ms_p90": 1e3 * percentile(lags, 90),
            },
        }

    def checks(self) -> list[str]:
        from repro.payloads import dump_payload
        from repro.service.requests import JobRequest, run_job

        problems = []
        done_classes: set[str] = set()
        for i, entry in enumerate(self.plan):
            status, envelope, _, _ = self.sent[i]
            job = self.finished.get(envelope.get("id", ""), {})
            if entry["cls"] in done_classes or job.get("state") != "done":
                continue
            done_classes.add(entry["cls"])
            code, body = self.poller.call("GET", f"/v1/jobs/{job['id']}/result")
            expected = dump_payload(run_job(JobRequest.from_dict(entry["doc"]))) + "\n"
            if code != 200 or body != expected.encode("utf-8"):
                problems.append(
                    f"service_mixed {entry['cls']} (arrival {i}): served result "
                    "differs from dump_payload(run_job(request))"
                )
        missing = sorted({entry["cls"] for entry in self.plan} - done_classes)
        problems.extend(f"service_mixed {cls}: no completed request" for cls in missing)
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ManagementLoop, DesignSweep, ServiceMixed, McFleet)
}
